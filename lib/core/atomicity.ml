type env = string -> Spec.t

let env_of_list specs x =
  match List.find_opt (fun s -> String.equal (Spec.name s) x) specs with
  | Some s -> s
  | None -> raise Not_found

let acceptable env h =
  List.for_all
    (fun x -> Spec.legal (env x) (History.opseq (History.project_obj h x)))
    (History.objects h)

let serializable_in env h order = acceptable env (History.serial h order)

let serializable env h =
  (* Depth-first search over orders, pruning any prefix whose serial
     history is already unacceptable: specifications are prefix-closed, so
     an unacceptable prefix cannot become acceptable by appending. *)
  let rec search acc remaining =
    if not (acceptable env (History.serial h (List.rev acc))) then None
    else if remaining = [] then Some (List.rev acc)
    else
      List.find_map
        (fun x -> search (x :: acc) (List.filter (fun y -> not (Tid.equal x y)) remaining))
        remaining
  in
  search [] (Tid.Set.elements (History.transactions h))

let atomic env h = Option.is_some (serializable env (History.permanent h))

type verdict =
  | Ok
  | Counterexample of Tid.t list
  | Ill_formed of string

let is_ok = function Ok -> true | Counterexample _ | Ill_formed _ -> false

let pp_verdict ppf = function
  | Ok -> Fmt.string ppf "ok"
  | Counterexample order ->
      Fmt.pf ppf "not serializable in order %a" Fmt.(list ~sep:(any "-") Tid.pp) order
  | Ill_formed why -> Fmt.pf ppf "not well-formed: %s" why

(* A transaction's last response and first commit, by event index: [fc]
   is [max_int] while it is active and -1 once it aborts. *)
type txn = {
  tid : Tid.t;
  mutable lr : int;
  mutable fc : int;
  mutable inv : Op.invocation;  (* its open invocation *)
}

let find tbl k make =
  match Hashtbl.find tbl k with
  | v -> v
  | exception Not_found ->
      let v = make () in
      Hashtbl.add tbl k v;
      v

(* One pass over the events: every transaction, and per object (in order
   of first appearance) its transactions with their operations there,
   newest first. *)
let index h =
  let txns = Hashtbl.create 64 and objects = Hashtbl.create 8 and order = ref [] in
  List.iteri
    (fun i e ->
      let tid = Event.tid e and x = Event.obj e in
      let t = find txns tid (fun () -> { tid; lr = -1; fc = max_int; inv = Op.invocation "" }) in
      let at = find objects x (fun () -> order := x :: !order; Hashtbl.create 16) in
      match e with
      | Event.Invoke { inv; _ } -> t.inv <- inv
      | Event.Respond { obj; res; _ } ->
          t.lr <- i;
          let _, ops = find at tid (fun () -> (t, ref [])) in
          ops := { Op.obj; inv = t.inv; res } :: !ops
      | Event.Commit _ -> if t.fc = max_int then t.fc <- i
      | Event.Abort _ -> t.fc <- -1)
    (History.events h);
  (txns, List.rev_map (fun x -> (x, Hashtbl.find objects x)) !order)

module Downsets = Hashtbl.Make (struct
  type t = int * int list

  let equal (k, inside) (k', inside') = k = k' && List.equal Int.equal inside inside'
  let hash (k, inside) = Hashtbl.hash (List.fold_left (fun h j -> (h * 65599) + j) k inside)
end)

(* [walk spec ms] walks the downsets of [precedes] over an object's
   members [ms], sorted by last response, a level at a time, keeping per
   downset the distinct state-sets its serializations reach and one path
   to each.  It answers the first path whose last member leaves no state
   (a shortest illegal serialization), or [None]: then every consistent
   order is legal, since a spec is prefix-closed.  As [precedes] is an
   interval order (THEORY.md), a downset is its member k with the latest
   lr and the members of k's window {j < k : fc(j) > lr(k)} it holds,
   newest first ((-1, []) is the empty one).  It grows by a window member
   or by a later member i, if no member left out commits before lr(i). *)
let walk (Spec.Packed { m = (module S); _ }) ms =
  let n = Array.length ms in
  let lr i = (fst ms.(i)).lr and fc i = (fst ms.(i)).fc in
  let window = Array.make n [] in
  for k = 1 to n - 1 do
    window.(k) <- List.filter (fun j -> fc j > lr k) ((k - 1) :: window.(k - 1))
  done;
  let rec insert j = function x :: l when x > j -> x :: insert j l | l -> j :: l in
  let successors (k, inside) f =
    let out = if k < 0 then [] else List.filter (fun j -> not (List.mem j inside)) window.(k) in
    List.iter (fun j -> f (k, insert j inside) j) out;
    let rec later i bound =
      if i < n && lr i < bound then begin
        f (i, List.filter (fun j -> fc j > lr i) (if k < 0 then [] else k :: inside)) i;
        later (i + 1) (min bound (fc i))
      end
    in
    later (k + 1) (List.fold_left (fun b j -> min b (fc j)) max_int out)
  in
  let exception Illegal of int list in
  let step next d i (sts, path) =
    match Spec.after_states (module S) sts (snd ms.(i)) with
    | [] -> raise (Illegal (List.rev (i :: path)))
    | sts' ->
        let known = Option.value (Downsets.find_opt next d) ~default:[] in
        if not (List.exists (fun (k, _) -> List.equal S.equal_state k sts') known) then
          Downsets.replace next d ((sts', i :: path) :: known)
  in
  let rec level cur =
    if Downsets.length cur > 0 then begin
      let next = Downsets.create (Downsets.length cur) in
      Downsets.iter
        (fun d entries -> successors d (fun d' i -> List.iter (step next d' i) entries))
        cur;
      level next
    end
  in
  let first = Downsets.create 1 in
  Downsets.add first (-1, []) [ ([ S.initial ], []) ];
  match level first with () -> None | exception Illegal path -> Some path

(* A consistent order of the committed transactions and those on [path],
   an illegal path of the object whose transactions are [at], in which
   the object's begin with [path]: each path member follows the
   committed transactions elsewhere that precede it, and the rest come
   last.  Both in commit order, which [precedes] never contradicts:
   fc(a) < lr(b) < fc(b). *)
let complete txns at path =
  let commits =
    Hashtbl.fold (fun _ t l -> if t.fc >= 0 && t.fc < max_int then t :: l else l) txns []
    |> List.sort (fun a b -> Int.compare a.fc b.fc)
  in
  let placed = Hashtbl.create 16 in
  let place order t =
    if Hashtbl.mem placed t.tid then order
    else begin
      Hashtbl.add placed t.tid ();
      t.tid :: order
    end
  in
  let rec before lr order = function
    | t :: rest when t.fc < lr ->
        before lr (if Hashtbl.mem at t.tid then order else place order t) rest
    | rest -> (order, rest)
  in
  let step (order, rest) t =
    let order, rest = before t.lr order rest in
    (place order t, rest)
  in
  List.rev (List.fold_left place (fst (List.fold_left step ([], commits) path)) commits)

(* Every total order of [committed ∪ active] consistent with [precedes h]
   must have each of its prefixes serialize, one object at a time
   (Theorem 2).  At object X only X's transactions matter, and an order
   of them consistent with [precedes] extends to a consistent order of
   all, so the walk runs over X's alone.  An active transaction never
   commits, so it precedes nothing: with [~online] the prefixes of the
   orders of every commit set are the paths of one walk.  [h] is
   well-formed: each entry point makes the one pass that checks it. *)
let check_formed env h ~online =
  let txns, objects = index h in
  let check_object (x, at) =
    let ms =
      Hashtbl.fold
        (fun _ (t, ops) l ->
          if t.fc >= 0 && (online || t.fc < max_int) then (t, List.rev !ops) :: l else l)
        at []
      |> Array.of_list
    in
    Array.sort (fun (a, _) (b, _) -> Int.compare a.lr b.lr) ms;
    Option.map
      (fun path -> complete txns at (List.map (fun i -> fst ms.(i)) path))
      (walk (env x) ms)
  in
  match List.find_map check_object objects with
  | None -> Ok
  | Some order -> Counterexample order

let check env h ~online =
  match History.well_formedness_errors h with
  | [] -> check_formed env h ~online
  | v :: _ -> Ill_formed (Fmt.str "%a" History.pp_violation v)

let dynamic_atomic env h = check env h ~online:false
let online_dynamic_atomic env h = check env h ~online:true

let is_dynamic_atomic env h = is_ok (dynamic_atomic env h)
let is_online_dynamic_atomic env h = is_ok (online_dynamic_atomic env h)
