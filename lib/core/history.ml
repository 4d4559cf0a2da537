(* Events newest first, so an append is one cons; the definitions that
   read them in occurrence order go through [events]. *)
type t = Event.t list

let empty = []
let snoc h e = e :: h
let events = List.rev
let length = List.length
let append h k = k @ h

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
  List.rev (List.fold_left step [] (events h))

let is_well_formed h = well_formedness_errors h = []

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
    (events h)

let project_obj h x = List.filter (fun e -> String.equal (Event.obj e) x) h
let project_tid h a = List.filter (fun e -> Tid.equal (Event.tid e) a) h
let project_tids h s = List.filter (fun e -> Tid.Set.mem (Event.tid e) s) h

(* [a]'s newest invocation or response decides. *)
let pending_invocation h a =
  let rec newest = function
    | Event.Invoke { tid; obj; inv } :: _ when Tid.equal tid a -> Some (obj, inv)
    | Event.Respond { tid; _ } :: _ when Tid.equal tid a -> None
    | _ :: older -> newest older
    | [] -> None
  in
  newest h

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
  List.rev (List.fold_left step [] (events h))

let permanent h = project_tids h (committed h)

let precedes h =
  (* Each transaction's first commit and last response, by index. *)
  let commits = Hashtbl.create 8 and last_response = Hashtbl.create 8 in
  List.iteri
    (fun i e ->
      match e with
      | Event.Commit { tid; _ } ->
          if not (Hashtbl.mem commits tid) then Hashtbl.add commits tid i
      | Event.Respond { tid; _ } -> Hashtbl.replace last_response tid i
      | Event.Invoke _ | Event.Abort _ -> ())
    (events h);
  fun a b ->
    (not (Tid.equal a b))
    &&
    match Hashtbl.find_opt commits a, Hashtbl.find_opt last_response b with
    | Some ci, Some ri -> ri > ci
    | (Some _ | None), _ -> false

let serial h order = List.concat_map (project_tid h) (List.rev order)

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
    (events h)

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
  distinct_runs [] (List.map Event.tid (events h))

let pp ppf h =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Event.pp) (events h)

let to_string h = Fmt.str "%a" pp h

let exec a (op : Op.t) h =
  Event.respond ~obj:op.obj ~tid:a op.res :: Event.invoke ~obj:op.obj ~tid:a op.inv :: h

let invoke a ~obj inv h = Event.invoke ~obj ~tid:a inv :: h
let respond a ~obj res h = Event.respond ~obj ~tid:a res :: h
let commit_at a x h = Event.commit ~obj:x ~tid:a :: h
let abort_at a x h = Event.abort ~obj:x ~tid:a :: h
let exec_seq a ops h = List.fold_left (fun h op -> exec a op h) h ops

type step =
  | Exec of Tid.t * Op.t
  | Commit of Tid.t
  | Abort of Tid.t

(* [touched]: the objects each unfinished transaction executed at,
   newest first. *)
let of_steps ?(abort_unfinished = false) steps =
  let touched = Hashtbl.create 16 in
  let finish at h tid =
    let objs = Option.value (Hashtbl.find_opt touched tid) ~default:[] in
    Hashtbl.remove touched tid;
    List.fold_right (fun x h -> at tid x h) objs h
  in
  let step h = function
    | Exec (tid, op) ->
        let objs = Option.value (Hashtbl.find_opt touched tid) ~default:[] in
        if not (List.mem op.Op.obj objs) then Hashtbl.replace touched tid (op.Op.obj :: objs);
        exec tid op h
    | Commit tid -> finish commit_at h tid
    | Abort tid -> finish abort_at h tid
  in
  let h = List.fold_left step empty steps in
  if not abort_unfinished then h
  else
    List.fold_left (finish abort_at) h
      (List.sort Tid.compare (Hashtbl.fold (fun tid _ ts -> tid :: ts) touched []))
