(* [Explore.Make(S).contained] as it was before it answered [u ⊆ t] at
   once: the joint breadth-first search over pairs of state-sets, always
   run to its bound.  The oracle of the containment property in
   test_spec.ml. *)

open Tm_core

module Make (S : Spec.S) = struct
  module E = Explore.Make (S)

  module Pair_map = Map.Make (struct
    type t = E.States.t * E.States.t

    let compare (u1, t1) (u2, t2) =
      let c = E.States.compare u1 u2 in
      if c <> 0 then c else E.States.compare t1 t2
  end)

  let contained ~depth ~alphabet u t =
    let exception Counterexample of Op.t list in
    let rec search seen frontier level =
      if frontier = [] || level > depth then ()
      else begin
        let next = ref [] in
        let seen = ref seen in
        let expand ((u, t), rev_word) =
          let try_op op =
            let u' = E.step u op in
            if not (E.States.is_empty u') then begin
              let t' = E.step t op in
              let w = op :: rev_word in
              if E.States.is_empty t' then raise (Counterexample (List.rev w));
              if not (Pair_map.mem (u', t') !seen) then begin
                seen := Pair_map.add (u', t') () !seen;
                next := ((u', t'), w) :: !next
              end
            end
          in
          List.iter try_op alphabet
        in
        List.iter expand frontier;
        search !seen !next (level + 1)
      end
    in
    if E.States.is_empty u then None
    else if E.States.is_empty t then Some []
    else
      match search (Pair_map.singleton (u, t) ()) [ ((u, t), []) ] 1 with
      | () -> None
      | exception Counterexample w -> Some w
end
