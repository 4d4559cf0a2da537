(* Enumeration of the total orders consistent with a partial order, as
   the library's dynamic-atomicity checkers did it before they walked
   downsets: the enumerating oracle of [Atomicity_reference]. *)

open Tm_core

(* [linear_extensions elts before] is every permutation [o] of [elts]
   such that whenever [before a b], [a] appears before [b] in [o].
   [before] need not be transitive; only the given pairs are enforced.
   Order of results is deterministic. *)
let linear_extensions elts before =
  (* Standard recursive enumeration: at each step pick any remaining
     element with no remaining predecessor. *)
  let rec extend acc remaining =
    if remaining = [] then [ List.rev acc ]
    else
      let ready =
        List.filter
          (fun x -> not (List.exists (fun y -> (not (Tid.equal x y)) && before y x) remaining))
          remaining
      in
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> not (Tid.equal x y)) remaining in
          extend (x :: acc) rest)
        ready
  in
  extend [] elts

(* All permutations (linear extensions of the empty relation). *)
let permutations elts = linear_extensions elts (fun _ _ -> false)

(* Does total order [order] respect every [before] pair among its
   elements? *)
let consistent order before =
  let rec check = function
    | [] -> true
    | x :: rest -> List.for_all (fun y -> not (before y x)) rest && check rest
  in
  check order

(* All subsets of [elts] (the commit sets). *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun sub -> x :: sub) s
