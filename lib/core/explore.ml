module Make (S : Spec.S) = struct
  module States = Set.Make (struct
    type t = S.state

    let compare = S.compare_state
  end)

  let initial_set = States.singleton S.initial

  let add_matching (op : Op.t) r st' acc = if Value.equal r op.res then States.add st' acc else acc

  let step sts (op : Op.t) =
    States.fold (fun st acc -> S.respond st op.inv add_matching op acc) sts States.empty

  let after sts ops = List.fold_left step sts ops
  let legal ops = not (States.is_empty (after initial_set ops))

  module Set_map = Map.Make (States)

  let reachable ~depth ~alphabet =
    (* Breadth-first search over the subset automaton, keeping the first
       (hence shortest) word that reaches each distinct state-set. *)
    let seen = ref (Set_map.singleton initial_set []) in
    let frontier = ref [ (initial_set, []) ] in
    let level = ref 0 in
    while !frontier <> [] && !level < depth do
      incr level;
      let next = ref [] in
      let expand (sts, rev_word) =
        let try_op op =
          let sts' = step sts op in
          if (not (States.is_empty sts')) && not (Set_map.mem sts' !seen) then begin
            let w = op :: rev_word in
            seen := Set_map.add sts' w !seen;
            next := (sts', w) :: !next
          end
        in
        List.iter try_op alphabet
      in
      List.iter expand !frontier;
      frontier := !next
    done;
    Set_map.fold (fun sts rev_word acc -> (List.rev rev_word, sts) :: acc) !seen []
    |> List.sort (fun (w1, _) (w2, _) -> Int.compare (List.length w1) (List.length w2))

  module Pair_map = Map.Make (struct
    type t = States.t * States.t

    let compare (u1, t1) (u2, t2) =
      let c = States.compare u1 u2 in
      if c <> 0 then c else States.compare t1 t2
  end)

  let contained ~depth ~alphabet u t =
    (* Joint BFS over (U, T) pairs of state-sets: a word is executable from
       a set iff the stepped set stays non-empty, so containment fails
       exactly when some reachable pair has U' non-empty and T' empty. *)
    let exception Counterexample of Op.t list in
    let rec search seen frontier level =
      if frontier = [] || level > depth then ()
      else begin
        let next = ref [] in
        let seen = ref seen in
        let expand ((u, t), rev_word) =
          let try_op op =
            let u' = step u op in
            if not (States.is_empty u') then begin
              let t' = step t op in
              let w = op :: rev_word in
              if States.is_empty t' then raise (Counterexample (List.rev w));
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
    if States.is_empty u then None
    else if States.is_empty t then Some []
    else if States.subset u t then None
    else
      match search (Pair_map.singleton (u, t) ()) [ ((u, t), []) ] 1 with
      | () -> None
      | exception Counterexample w -> Some w
end
