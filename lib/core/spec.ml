module type S = sig
  type state

  val name : string
  val initial : state
  val equal_state : state -> state -> bool
  val compare_state : state -> state -> int
  val pp_state : Format.formatter -> state -> unit
  val respond : state -> Op.invocation -> (Value.t * state) list
  val generators : Op.t list
end

type t = Packed : (module S with type state = 's) -> t

let pack m = Packed m

let name (Packed (module S)) = S.name
let generators (Packed (module S)) = S.generators

let rename (Packed (module S)) new_name =
  let module R = struct
    include S

    let name = new_name
    let generators = List.map (fun (op : Op.t) -> { op with obj = new_name }) S.generators
  end in
  Packed (module R : S with type state = R.state)

(* The states [op]'s response leads to, onto [acc].  The recovery managers
   step state-sets on every invocation, so this and [successors] are
   first-order loops that allocate only the result cells. *)
let rec matching (op : Op.t) acc = function
  | [] -> acc
  | (r, st') :: rest -> matching op (if Value.equal r op.res then st' :: acc else acc) rest

let apply (type s) (module S : S with type state = s) (st : s) (op : Op.t) : s list =
  matching op [] (S.respond st op.inv)

(* A state-set is a sorted, duplicate-free list: stepping one through an
   operation keeps it so (dedup via sort). *)
let rec successors respond (op : Op.t) acc = function
  | [] -> acc
  | st :: rest -> successors respond op (matching op acc (respond st op.inv)) rest

(* [List.sort_uniq] builds its closures before looking at the length, so
   the deterministic case (at most one state) skips it. *)
let dedup_states (type s) (module S : S with type state = s) = function
  | ([] | [ _ ]) as sts -> sts
  | sts -> List.sort_uniq S.compare_state sts

let step_states (type s) (module S : S with type state = s) (states : s list) op =
  dedup_states (module S) (successors S.respond op [] states)

let after_states (type s) (module S : S with type state = s) (states : s list) ops =
  List.fold_left
    (fun sts op -> step_states (module S) sts op)
    (dedup_states (module S) states)
    ops

let legal (Packed (module S)) ops = after_states (module S) [ S.initial ] ops <> []

let responses (Packed (module S)) ops inv =
  let reached = after_states (module S) [ S.initial ] ops in
  List.concat_map (fun st -> List.map fst (S.respond st inv)) reached
  |> List.sort_uniq Value.compare
