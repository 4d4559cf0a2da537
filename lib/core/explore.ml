(* State-sets are {!Spec}'s sorted, duplicate-free lists, so
   [List.compare S.compare_state] orders them exactly as [Set.compare]
   orders the same sets: the search order, and with it every
   representative word and witness, is that of a [Set]-based search. *)

let reachable (type s) (module S : Spec.S with type state = s) ~depth ~alphabet =
  let module Seen = Map.Make (struct
    type t = s list

    let compare = List.compare S.compare_state
  end) in
  (* Breadth-first search over the subset automaton, keeping the first
     (hence shortest) word that reaches each distinct state-set. *)
  let initial = [ S.initial ] in
  let seen = ref (Seen.singleton initial []) in
  let frontier = ref [ (initial, []) ] in
  let level = ref 0 in
  while !frontier <> [] && !level < depth do
    incr level;
    let next = ref [] in
    let expand (sts, rev_word) =
      let try_op op =
        let sts' = Spec.step_states (module S) sts op in
        if sts' <> [] && not (Seen.mem sts' !seen) then begin
          let w = op :: rev_word in
          seen := Seen.add sts' w !seen;
          next := (sts', w) :: !next
        end
      in
      List.iter try_op alphabet
    in
    List.iter expand !frontier;
    frontier := !next
  done;
  Seen.fold (fun sts rev_word acc -> (List.rev rev_word, sts) :: acc) !seen []
  |> List.sort (fun (w1, _) (w2, _) -> Int.compare (List.length w1) (List.length w2))

(* [u ⊆ t] for sorted, duplicate-free lists. *)
let rec subset compare u t =
  match (u, t) with
  | [], _ -> true
  | _, [] -> false
  | x :: u', y :: t' ->
      let c = compare x y in
      if c = 0 then subset compare u' t' else c > 0 && subset compare u t'

let contained (type s) (module S : Spec.S with type state = s) ~depth ~alphabet u t =
  let module Seen = Set.Make (struct
    type t = s list * s list

    let compare (u1, t1) (u2, t2) =
      let c = List.compare S.compare_state u1 u2 in
      if c <> 0 then c else List.compare S.compare_state t1 t2
  end) in
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
          let u' = Spec.step_states (module S) u op in
          if u' <> [] then begin
            let t' = Spec.step_states (module S) t op in
            let w = op :: rev_word in
            if t' = [] then raise (Counterexample (List.rev w));
            if not (Seen.mem (u', t') !seen) then begin
              seen := Seen.add (u', t') !seen;
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
  if u = [] then None
  else if t = [] then Some []
  else if subset S.compare_state u t then None
  else
    match search (Seen.singleton (u, t)) [ ((u, t), []) ] 1 with
    | () -> None
    | exception Counterexample w -> Some w
