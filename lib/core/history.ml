type t = Event.t list
(* Events in occurrence order.  Histories in this development are short
   (checkers and tests); a list keeps every definition a direct
   transliteration of the paper's. *)

let empty = []
let snoc h e = h @ [ e ]
let events h = h
let length = List.length
let append = ( @ )

type violation =
  | Invoke_while_pending of Tid.t
  | Response_without_pending of Tid.t * string
  | Commit_while_pending of Tid.t
  | Commit_and_abort of Tid.t
  | Event_after_finish of Tid.t
  | Duplicate_completion of Tid.t * string

let pp_violation ppf = function
  | Invoke_while_pending a ->
      Fmt.pf ppf "%a invokes while an invocation is pending" Tid.pp a
  | Response_without_pending (a, x) ->
      Fmt.pf ppf "response for %a at %s without matching pending invocation" Tid.pp a x
  | Commit_while_pending a ->
      Fmt.pf ppf "%a commits while an invocation is pending" Tid.pp a
  | Commit_and_abort a -> Fmt.pf ppf "%a both commits and aborts" Tid.pp a
  | Event_after_finish a ->
      Fmt.pf ppf "%a invokes or responds after committing or aborting" Tid.pp a
  | Duplicate_completion (a, x) ->
      Fmt.pf ppf "%a commits or aborts twice at %s" Tid.pp a x

(* Per-transaction status while scanning a history front to back. *)
type txn_state = {
  pending : (string * Op.invocation) option;
  committed_at : string list;
  aborted_at : string list;
}

let initial_txn_state = { pending = None; committed_at = []; aborted_at = [] }

let well_formedness_errors h =
  let state = Hashtbl.create 16 in
  let get a = Option.value (Hashtbl.find_opt state a) ~default:initial_txn_state in
  let set a s = Hashtbl.replace state a s in
  let finished s = s.committed_at <> [] || s.aborted_at <> [] in
  let step errs e =
    match e with
    | Event.Invoke { tid; inv; obj } ->
        let s = get tid in
        let errs = if finished s then Event_after_finish tid :: errs else errs in
        let errs = if s.pending <> None then Invoke_while_pending tid :: errs else errs in
        set tid { s with pending = Some (obj, inv) };
        errs
    | Event.Respond { tid; obj; _ } -> (
        let s = get tid in
        let errs = if finished s then Event_after_finish tid :: errs else errs in
        match s.pending with
        | Some (obj', _) when String.equal obj obj' ->
            set tid { s with pending = None };
            errs
        | Some _ | None -> Response_without_pending (tid, obj) :: errs)
    | Event.Commit { tid; obj } ->
        let s = get tid in
        let errs = if s.pending <> None then Commit_while_pending tid :: errs else errs in
        let errs = if s.aborted_at <> [] then Commit_and_abort tid :: errs else errs in
        let errs =
          if List.mem obj s.committed_at then Duplicate_completion (tid, obj) :: errs
          else errs
        in
        set tid { s with committed_at = obj :: s.committed_at };
        errs
    | Event.Abort { tid; obj } ->
        let s = get tid in
        let errs = if s.committed_at <> [] then Commit_and_abort tid :: errs else errs in
        let errs =
          if List.mem obj s.aborted_at then Duplicate_completion (tid, obj) :: errs
          else errs
        in
        set tid { s with aborted_at = obj :: s.aborted_at };
        errs
  in
  List.rev (List.fold_left step [] h)

let is_well_formed h = well_formedness_errors h = []

let check h =
  match well_formedness_errors h with
  | [] -> h
  | v :: _ -> invalid_arg (Fmt.str "History.check: %a" pp_violation v)

let committed h =
  List.fold_left
    (fun s e -> match e with Event.Commit { tid; _ } -> Tid.Set.add tid s | _ -> s)
    Tid.Set.empty h

let aborted h =
  List.fold_left
    (fun s e -> match e with Event.Abort { tid; _ } -> Tid.Set.add tid s | _ -> s)
    Tid.Set.empty h

let transactions h =
  List.fold_left (fun s e -> Tid.Set.add (Event.tid e) s) Tid.Set.empty h

let active h = Tid.Set.diff (transactions h) (Tid.Set.union (committed h) (aborted h))

let objects h =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      let x = Event.obj e in
      if Hashtbl.mem seen x then None
      else begin
        Hashtbl.add seen x ();
        Some x
      end)
    h

let project_obj h x = List.filter (fun e -> String.equal (Event.obj e) x) h
let project_tid h a = List.filter (fun e -> Tid.equal (Event.tid e) a) h
let project_tids h s = List.filter (fun e -> Tid.Set.mem (Event.tid e) s) h

let pending_invocation h a =
  let step acc e =
    match e with
    | Event.Invoke { tid; obj; inv } when Tid.equal tid a -> Some (obj, inv)
    | Event.Respond { tid; _ } when Tid.equal tid a -> None
    | Event.Invoke _ | Event.Respond _ | Event.Commit _ | Event.Abort _ -> acc
  in
  List.fold_left step None h

let opseq h =
  let pending = Hashtbl.create 8 in
  let step acc e =
    match e with
    | Event.Invoke { tid; obj; inv } ->
        Hashtbl.replace pending tid (obj, inv);
        acc
    | Event.Respond { tid; res; _ } -> (
        match Hashtbl.find_opt pending tid with
        | Some (obj, inv) ->
            Hashtbl.remove pending tid;
            { Op.obj; inv; res } :: acc
        | None -> invalid_arg "History.opseq: response without pending invocation")
    | Event.Commit _ | Event.Abort _ -> acc
  in
  List.rev (List.fold_left step [] h)

let permanent h = project_tids h (committed h)

(* Index of the first commit event of each transaction. *)
let first_commit_index h =
  let m = Hashtbl.create 8 in
  List.iteri
    (fun i e ->
      match e with
      | Event.Commit { tid; _ } -> if not (Hashtbl.mem m tid) then Hashtbl.add m tid i
      | Event.Invoke _ | Event.Respond _ | Event.Abort _ -> ())
    h;
  m

let precedes h =
  let commits = first_commit_index h in
  (* latest response index per transaction *)
  let last_response = Hashtbl.create 8 in
  List.iteri
    (fun i e ->
      match e with
      | Event.Respond { tid; _ } -> Hashtbl.replace last_response tid i
      | Event.Invoke _ | Event.Commit _ | Event.Abort _ -> ())
    h;
  fun a b ->
    (not (Tid.equal a b))
    &&
    match Hashtbl.find_opt commits a, Hashtbl.find_opt last_response b with
    | Some ci, Some ri -> ri > ci
    | (Some _ | None), _ -> false

let serial h order =
  List.concat_map (fun a -> project_tid h a) order

let equivalent h k =
  let ts = Tid.Set.union (transactions h) (transactions k) in
  Tid.Set.for_all
    (fun a -> List.equal Event.equal (project_tid h a) (project_tid k a))
    ts

let commit_order h =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      match e with
      | Event.Commit { tid; _ } ->
          if Hashtbl.mem seen tid then None
          else begin
            Hashtbl.add seen tid ();
            Some tid
          end
      | Event.Invoke _ | Event.Respond _ | Event.Abort _ -> None)
    h

let is_serial h =
  (* Once a transaction's events stop, they never resume interleaved with
     another transaction's: the sequence of tids, with adjacent duplicates
     collapsed, has no repeats. *)
  let rec distinct_runs seen = function
    | [] -> true
    | tid :: rest ->
        if List.exists (Tid.equal tid) seen then false
        else
          let rest = List.to_seq rest |> Seq.drop_while (Tid.equal tid) |> List.of_seq in
          distinct_runs (tid :: seen) rest
  in
  distinct_runs [] (List.map Event.tid h)

let pp ppf h =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Event.pp) h

let to_string h = Fmt.str "%a" pp h

let exec a (op : Op.t) h =
  h @ [ Event.invoke ~obj:op.obj ~tid:a op.inv; Event.respond ~obj:op.obj ~tid:a op.res ]

let invoke a ~obj inv h = h @ [ Event.invoke ~obj ~tid:a inv ]
let respond a ~obj res h = h @ [ Event.respond ~obj ~tid:a res ]
let commit_at a x h = h @ [ Event.commit ~obj:x ~tid:a ]
let abort_at a x h = h @ [ Event.abort ~obj:x ~tid:a ]
let exec_seq a ops h = List.fold_left (fun h op -> exec a op h) h ops
