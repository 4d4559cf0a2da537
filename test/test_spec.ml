(* Serial specifications and the bounded explorer: legality, response
   enumeration, prefix closure, reachability, containment. *)

open Tm_core

let dep = Helpers.dep
let wok = Helpers.wok
let wno = Helpers.wno
let bal = Helpers.bal

let test_legal_paper_sequences () =
  (* The two sequences of Section 3.2. *)
  Helpers.check_bool "legal" true
    (Spec.legal Helpers.BA.spec [ dep 5; wok 3; bal 2; wno 3 ]);
  Helpers.check_bool "illegal" false
    (Spec.legal Helpers.BA.spec [ dep 5; wok 3; bal 2; wok 3 ])

let test_prefix_closed () =
  let seq = [ dep 5; wok 3; bal 2; wno 3 ] in
  let rec prefixes = function
    | [] -> [ [] ]
    | x :: rest -> [] :: List.map (fun p -> x :: p) (prefixes rest)
  in
  List.iter
    (fun p -> Helpers.check_bool "prefix legal" true (Spec.legal Helpers.BA.spec p))
    (prefixes seq)

let test_responses () =
  Alcotest.check (Alcotest.list Helpers.value) "withdraw ok when funded" [ Value.ok ]
    (Spec.responses Helpers.BA.spec [ dep 5 ] (Op.invocation ~args:[ Value.int 3 ] "withdraw"));
  Alcotest.check (Alcotest.list Helpers.value) "withdraw no when broke" [ Value.no ]
    (Spec.responses Helpers.BA.spec [] (Op.invocation ~args:[ Value.int 3 ] "withdraw"));
  Alcotest.check (Alcotest.list Helpers.value) "balance pinned" [ Value.int 5 ]
    (Spec.responses Helpers.BA.spec [ dep 5 ] (Op.invocation "balance"));
  Alcotest.check (Alcotest.list Helpers.value) "unknown op" []
    (Spec.responses Helpers.BA.spec [] (Op.invocation "frobnicate"))

let test_nondeterministic_responses () =
  let module SQ = Tm_adt.Semiqueue in
  let rs =
    Spec.responses SQ.spec [ SQ.enq 1; SQ.enq 2 ] (Op.invocation "deq")
  in
  Alcotest.check (Alcotest.list Helpers.value) "deq offers both items"
    [ Value.int 1; Value.int 2 ] rs

let test_partial_operation () =
  let module FQ = Tm_adt.Fifo_queue in
  Alcotest.check (Alcotest.list Helpers.value) "deq on empty has no response" []
    (Spec.responses FQ.spec [] (Op.invocation "deq"));
  Helpers.check_bool "deq on empty illegal" false (Spec.legal FQ.spec [ FQ.deq 1 ])

let test_rename () =
  let renamed = Spec.rename Helpers.BA.spec "BA7" in
  Alcotest.(check string) "name" "BA7" (Spec.name renamed);
  Helpers.check_bool "generators retagged" true
    (List.for_all (fun (o : Op.t) -> String.equal o.obj "BA7") (Spec.generators renamed));
  Helpers.check_bool "same language" true (Spec.legal renamed [ dep 5; wok 3 ])

(* The bank account with 100 deposit generators instead of 10. *)
let many_generators =
  let module Many = struct
    include Tm_adt.Bank_account.S

    let generators =
      List.init 100 (fun i -> Op.make ~obj:name ~args:[ Value.int (i + 1) ] "deposit" Value.ok)
  end in
  Spec.pack (module Many)

(* A rename puts the name beside the type's module: its cost does not
   grow with the generators, which it no longer copies (a rename that
   re-tagged them allocated 92 words for the account's 10 and 722 for
   100). *)
let test_rename_constant_cost () =
  let name = "BA7" in
  let words spec =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Spec.rename spec name));
    Gc.minor_words () -. before
  in
  let ten = words Helpers.BA.spec and hundred = words many_generators in
  if ten <> hundred || ten > 3. then
    Alcotest.failf "a rename allocated %.0f words over 10 generators, %.0f over 100 (max 3, equal)"
      ten hundred

(* [generators] re-tags what [rename] no longer copies, for every type,
   a renamed rename and a type with many generators. *)
let test_rename_retags_generators () =
  List.iter
    (fun spec ->
      List.iter
        (fun renamed ->
          Alcotest.(check string) "name" "X" (Spec.name renamed);
          List.iter
            (fun (o : Op.t) -> Alcotest.(check string) "generator tag" "X" o.obj)
            (Spec.generators renamed);
          Helpers.check_int "generator count"
            (List.length (Spec.generators spec))
            (List.length (Spec.generators renamed)))
        [ Spec.rename spec "X"; Spec.rename (Spec.rename spec "Y") "X" ])
    (many_generators :: List.map (fun (e : Tm_adt.Registry.entry) -> e.spec) Tm_adt.Registry.all)

module E = Explore.Make (Tm_adt.Bank_account.S)

let test_reachable () =
  let alphabet = [ dep 1 ] in
  let reached = E.reachable ~depth:3 ~alphabet in
  (* balances 0,1,2,3 *)
  Helpers.check_int "4 state-sets" 4 (List.length reached);
  let words = List.map fst reached in
  Helpers.check_bool "empty word first" true (List.hd words = []);
  Helpers.check_bool "shortest representatives" true
    (List.for_all (fun w -> List.length w <= 3) words)

let test_reachable_dedups_state_sets () =
  (* deposit(1);deposit(1) and deposit(2) reach the same balance: one
     state-set, one representative. *)
  let alphabet = [ dep 1; dep 2 ] in
  let reached = E.reachable ~depth:2 ~alphabet in
  (* balances 0,1,2,3,4 *)
  Helpers.check_int "5 distinct sets" 5 (List.length reached)

let test_contained_positive () =
  (* Balance 2 via different routes: same state, mutually contained. *)
  let u = E.after E.initial_set [ dep 2 ] in
  let t = E.after E.initial_set [ dep 1; dep 1 ] in
  Alcotest.(check (option Helpers.ops)) "contained" None
    (E.contained ~depth:5 ~alphabet:(Spec.generators Helpers.BA.spec) u t)

let test_contained_negative_with_witness () =
  (* From balance 1 one can withdraw 1; from balance 0 one cannot. *)
  let u = E.after E.initial_set [ dep 1 ] in
  let t = E.initial_set in
  match E.contained ~depth:5 ~alphabet:(Spec.generators Helpers.BA.spec) u t with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Helpers.check_bool "witness legal from u" true
        (Spec.legal Helpers.BA.spec ([ dep 1 ] @ w));
      Helpers.check_bool "witness illegal from t" false (Spec.legal Helpers.BA.spec w)

let test_contained_empty_cases () =
  let alphabet = Spec.generators Helpers.BA.spec in
  let empty = E.after E.initial_set [ wok 1 ] (* illegal: empty set *) in
  Alcotest.(check (option Helpers.ops)) "empty contained in anything" None
    (E.contained ~depth:3 ~alphabet empty E.initial_set);
  Alcotest.(check (option Helpers.ops)) "nonempty not contained in empty" (Some [])
    (E.contained ~depth:3 ~alphabet E.initial_set empty)

(* Property: for every legal sequence, stepping the state-set never goes
   empty, and every response offered by [Spec.responses] extends legally. *)
let prop_responses_extend_legally =
  Helpers.qcheck "responses extend legally" (Helpers.legal_seq_gen Helpers.BA.spec 6)
    (fun ops ->
      List.for_all
        (fun (inv : Op.invocation) ->
          List.for_all
            (fun r -> Spec.legal Helpers.BA.spec (ops @ [ { Op.obj = "BA"; inv; res = r } ]))
            (Spec.responses Helpers.BA.spec ops inv))
        [ Op.invocation ~args:[ Value.int 1 ] "deposit";
          Op.invocation ~args:[ Value.int 2 ] "withdraw";
          Op.invocation "balance" ])

(* Each shipped spec's fold against its list-returning reference
   ([Spec_reference]).  A random sequence of at most four generators,
   cut where it stops being legal, reaches a state-set; from every state
   it passes through, and for every generator, the fold's pairs (sorted)
   are the reference's, and so are the states the fold reaches by the
   generator ([Spec_reference.fold_apply]).  From the
   reached state-set, [Spec.step_states], [Spec.state_responses] and
   [Spec.responses] answer as they did over the lists. *)
let prop_fold_matches_reference (Spec_reference.Ref { m = (module S); respond }) =
  let gens = Array.of_list S.generators in
  let gen = QCheck2.Gen.(list_size (int_bound 4) (int_bound (Array.length gens - 1))) in
  let compare_pair (r, s) (r', s') =
    match Value.compare r r' with 0 -> S.compare_state s s' | c -> c
  in
  let sorted_pairs l = List.sort compare_pair l in
  let sorted_states l = List.sort S.compare_state l in
  let from_state st =
    Array.for_all
      (fun (op : Op.t) ->
        sorted_pairs (Spec_reference.pairs (module S) st op.inv) = sorted_pairs (respond st op.inv)
        && sorted_states (Spec_reference.fold_apply (module S) st op)
           = sorted_states (Spec_reference.apply respond st op))
      gens
  in
  let from_state_set sts = List.for_all from_state sts in
  let from_set ops sts =
    Array.for_all
      (fun (op : Op.t) ->
        Spec.step_states (module S) sts op
        = Spec_reference.step_states S.compare_state respond sts op
        && Spec.state_responses (module S) sts op.inv
           = Spec_reference.responses respond sts op.inv
        && Spec.responses (Spec.pack (module S)) ops op.inv
           = Spec_reference.responses respond sts op.inv)
      gens
  in
  Helpers.qcheck ~count:100
    (Fmt.str "%s: spec fold = list reference" S.name)
    gen
    (fun picks ->
      let rec walk ops sts = function
        | [] -> (ops, sts)
        | i :: rest -> (
            let op = gens.(i) in
            match Spec_reference.step_states S.compare_state respond sts op with
            | [] -> (ops, sts)
            | next -> if from_state_set sts then walk (ops @ [ op ]) next rest else (ops, []))
      in
      match walk [] [ S.initial ] picks with
      | _, [] -> false
      | ops, sts -> from_state_set sts && from_set ops sts)

(* The one-response fold against the list it stands in for, on every
   registry type: a random sequence of at most six generators, each
   skipped where it is not legal, reaches a state-set, and for every
   generator's invocation [Spec.state_response] answers the sole
   element of [Spec.state_responses], [Spec.no_response] for [[]] and
   [Spec.several_responses] for two or more.  The semiqueue's dequeue
   answers several once two distinct items are in. *)
let prop_one_response_matches_list (e : Tm_adt.Registry.entry) =
  let (Spec.Packed { m = (module S); _ }) = e.spec in
  let gens = Array.of_list S.generators in
  let invs =
    List.sort_uniq Op.compare_invocation (List.map (fun (op : Op.t) -> op.inv) S.generators)
  in
  let gen = QCheck2.Gen.(list_size (int_bound 6) (int_bound (Array.length gens - 1))) in
  let agrees sts inv =
    let r = Spec.state_response (module S) sts inv in
    match Spec.state_responses (module S) sts inv with
    | [] -> r == Spec.no_response
    | [ v ] -> r != Spec.no_response && r != Spec.several_responses && Value.equal r v
    | _ :: _ :: _ -> r == Spec.several_responses
  in
  Helpers.qcheck ~count:100 (Fmt.str "%s: one-response fold = response list" e.name) gen
    (fun picks ->
      let sts =
        List.fold_left
          (fun sts i ->
            match Spec.step_states (module S) sts gens.(i) with [] -> sts | next -> next)
          [ S.initial ] picks
      in
      List.for_all (agrees sts) invs
      || QCheck2.Test.fail_reportf "%s after %a" e.name
           Fmt.(list ~sep:sp Op.pp)
           (List.map (fun i -> gens.(i)) picks))

(* The subset shortcut of [Explore.contained] against the search it
   skips ([Explore_reference]), on every registry type: from two random
   state-sets reachable in at most three generators, the pair (u, u),
   (u, v), (u, u ∪ v) or (u ∪ v, u) is contained to depth 3 by both or
   by neither, with the same witness.  Reachable sets are singletons for
   every shipped type, so the unions give the strict subsets. *)
let prop_contained_matches_search (e : Tm_adt.Registry.entry) =
  let (Spec.Packed { m = (module S); _ }) = e.spec in
  let module E = Explore.Make (S) in
  let module R = Explore_reference.Make (S) in
  let alphabet = S.generators in
  let sets = Array.of_list (List.map snd (E.reachable ~depth:3 ~alphabet)) in
  let pick = QCheck2.Gen.int_bound (Array.length sets - 1) in
  Helpers.qcheck ~count:200 (Fmt.str "%s: contained = unshortened search" e.name)
    QCheck2.Gen.(triple pick pick (int_bound 3))
    (fun (i, j, k) ->
      let uv = E.States.union sets.(i) sets.(j) in
      let u, t =
        match k with
        | 0 -> (sets.(i), sets.(i))
        | 1 -> (sets.(i), sets.(j))
        | 2 -> (sets.(i), uv)
        | _ -> (uv, sets.(i))
      in
      Option.equal (List.equal Op.equal)
        (E.contained ~depth:3 ~alphabet u t)
        (R.contained ~depth:3 ~alphabet u t))

let test_one_response_marks () =
  let module SQ = Tm_adt.Semiqueue in
  let (Spec.Packed { m = (module S); _ }) = SQ.spec in
  let deq = Op.invocation "deq" in
  let after ops = Spec.after_states (module S) [ S.initial ] ops in
  Helpers.check_bool "empty: none" true
    (Spec.state_response (module S) (after []) deq == Spec.no_response);
  Alcotest.check Helpers.value "one item: that item" (Value.int 1)
    (Spec.state_response (module S) (after [ SQ.enq 1; SQ.enq 1 ]) deq);
  Helpers.check_bool "two items: several" true
    (Spec.state_response (module S) (after [ SQ.enq 1; SQ.enq 2 ]) deq == Spec.several_responses);
  Alcotest.check (Alcotest.list Helpers.value) "two items: both listed" [ Value.int 1; Value.int 2 ]
    (Spec.state_responses (module S) (after [ SQ.enq 2; SQ.enq 1 ]) deq)

let test_reference_covers_registry () =
  Alcotest.(check (list string))
    "one reference per registry type"
    (List.sort String.compare Tm_adt.Registry.names)
    (List.sort String.compare (List.map Spec_reference.name Spec_reference.all))

let suite =
  [
    Alcotest.test_case "paper §3.2 sequences" `Quick test_legal_paper_sequences;
    Alcotest.test_case "prefix closure" `Quick test_prefix_closed;
    Alcotest.test_case "responses" `Quick test_responses;
    Alcotest.test_case "non-deterministic responses" `Quick test_nondeterministic_responses;
    Alcotest.test_case "partial operation" `Quick test_partial_operation;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "rename allocation pin" `Quick test_rename_constant_cost;
    Alcotest.test_case "renamed generators tagged" `Quick test_rename_retags_generators;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "reachable dedups" `Quick test_reachable_dedups_state_sets;
    Alcotest.test_case "containment positive" `Quick test_contained_positive;
    Alcotest.test_case "containment witness" `Quick test_contained_negative_with_witness;
    Alcotest.test_case "containment empty cases" `Quick test_contained_empty_cases;
    prop_responses_extend_legally;
    Alcotest.test_case "spec references cover the registry" `Quick test_reference_covers_registry;
  ]
  @ List.map prop_fold_matches_reference Spec_reference.all
  @ (Alcotest.test_case "one-response fold marks" `Quick test_one_response_marks
    :: List.map prop_one_response_matches_list Tm_adt.Registry.all)
  @ List.map prop_contained_matches_search Tm_adt.Registry.all
