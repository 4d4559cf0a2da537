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

(* The object name sits beside the module, so a renamed spec shares the
   type's module and its generator list: renaming costs one block. *)
type t = Packed : { name : string; m : (module S with type state = 's) } -> t

let pack (type s) ((module S : S with type state = s) as m) = Packed { name = S.name; m }

let name (Packed { name; _ }) = name

let generators (Packed { name; m = (module S) }) =
  if String.equal name S.name then S.generators
  else List.map (fun (op : Op.t) -> { op with obj = name }) S.generators

let rename (Packed { m; _ }) name = Packed { name; m }

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

let legal (Packed { m = (module S); _ }) ops = after_states (module S) [ S.initial ] ops <> []

let responses (Packed { m = (module S); _ }) ops inv =
  let reached = after_states (module S) [ S.initial ] ops in
  List.concat_map (fun st -> List.map fst (S.respond st inv)) reached
  |> List.sort_uniq Value.compare
