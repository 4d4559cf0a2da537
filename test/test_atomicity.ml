(* Atomicity, serializability, dynamic atomicity and online dynamic
   atomicity (Sections 3.3, 3.4, 7). *)

open Tm_core

let dep = Helpers.dep
let wok = Helpers.wok
let wno = Helpers.wno
let bal = Helpers.bal
let env = Helpers.ba_env

let test_paper_example_atomic () =
  let h = Helpers.paper_example_history in
  Helpers.check_bool "atomic" true (Atomicity.atomic env h);
  Helpers.check_bool "dynamic atomic" true (Atomicity.is_dynamic_atomic env h);
  Alcotest.(check (option Helpers.tids)) "serializes in A-B-C"
    (Some [ Tid.a; Tid.b; Tid.c ])
    (Atomicity.serializable env (History.permanent h))

let test_paper_example_perturbed () =
  (* Section 3.4: if B's last response occurred before A's commit, (A,B)
     drops out of precedes, the order B-A-C becomes admissible, and the
     history is no longer dynamic atomic (though it is still atomic). *)
  let h =
    History.empty
    |> History.exec Tid.a (dep 3)
    |> History.exec Tid.b (wok 2)
    |> History.exec Tid.a (bal 3)
    |> History.exec Tid.b (bal 1)
    |> History.commit_at Tid.a "BA"
    |> History.commit_at Tid.b "BA"
    |> History.exec Tid.c (wno 2)
    |> History.commit_at Tid.c "BA"
  in
  Helpers.check_bool "still atomic" true (Atomicity.atomic env h);
  (match Atomicity.dynamic_atomic env h with
  | Atomicity.Ok -> Alcotest.fail "expected a counterexample order"
  | Atomicity.Counterexample order ->
      Helpers.check_bool "B before A in the bad order" true
        (match order with b :: _ -> Tid.equal b Tid.b | [] -> false));
  Helpers.check_bool "not dynamic atomic" false (Atomicity.is_dynamic_atomic env h)

let test_not_atomic () =
  (* A committed balance reading 1 fits no serial order against a lone
     committed deposit of 3 (neither 0 nor 3 is 1). *)
  let h =
    History.empty
    |> History.exec Tid.a (dep 3)
    |> History.exec Tid.b (bal 1)
    |> History.commit_at Tid.a "BA"
    |> History.commit_at Tid.b "BA"
  in
  Helpers.check_bool "not atomic" false (Atomicity.atomic env h)

let test_aborted_ignored () =
  (* An aborted transaction's nonsense does not affect atomicity. *)
  let h =
    History.empty
    |> History.exec Tid.a (dep 3)
    |> History.exec Tid.b (wok 100)  (* illegal against any serial order *)
    |> History.abort_at Tid.b "BA"
    |> History.commit_at Tid.a "BA"
  in
  Helpers.check_bool "atomic (B aborted)" true (Atomicity.atomic env h)

let test_serializable_in () =
  let h =
    History.empty
    |> History.exec Tid.a (dep 2)
    |> History.exec Tid.b (wok 2)
    |> History.commit_at Tid.a "BA"
    |> History.commit_at Tid.b "BA"
  in
  Helpers.check_bool "A-B works" true (Atomicity.serializable_in env h [ Tid.a; Tid.b ]);
  Helpers.check_bool "B-A fails" false (Atomicity.serializable_in env h [ Tid.b; Tid.a ])

let test_acceptable_multi_object () =
  let ba0 = Spec.rename Helpers.BA.spec "BA0" and ba1 = Spec.rename Helpers.BA.spec "BA1" in
  let env = Atomicity.env_of_list [ ba0; ba1 ] in
  let op0 = Op.make ~obj:"BA0" ~args:[ Value.int 1 ] "deposit" Value.ok in
  let op1 = Op.make ~obj:"BA1" ~args:[ Value.int 1 ] "withdraw" Value.no in
  let h =
    History.empty |> History.exec Tid.a op0 |> History.exec Tid.a op1
    |> History.commit_at Tid.a "BA0" |> History.commit_at Tid.a "BA1"
  in
  Helpers.check_bool "acceptable across objects" true (Atomicity.acceptable env h);
  let bad = Op.make ~obj:"BA1" ~args:[ Value.int 1 ] "withdraw" Value.ok in
  let h' =
    History.empty |> History.exec Tid.a bad |> History.commit_at Tid.a "BA1"
  in
  Helpers.check_bool "illegal at BA1" false (Atomicity.acceptable env h')

let test_online_dynamic_atomic () =
  (* Online DA quantifies over commit sets: an active transaction that
     *would* break serializability if committed is caught even before any
     commit event.  B executed withdraw-ok concurrently with A's
     withdraw-ok from balance 1 — at most one can commit. *)
  let funded = History.empty |> History.exec Tid.d (dep 1) |> History.commit_at Tid.d "BA" in
  let h = funded |> History.exec Tid.a (wok 1) |> History.exec Tid.b (wok 1) in
  (match Atomicity.online_dynamic_atomic env h with
  | Atomicity.Ok -> Alcotest.fail "expected counterexample"
  | Atomicity.Counterexample _ -> ());
  (* dynamic atomicity alone does not catch it: permanent(H) is just D. *)
  Helpers.check_bool "plain DA blind to active" true (Atomicity.is_dynamic_atomic env h)

let test_online_implies_dynamic () =
  let h = Helpers.paper_example_history in
  Helpers.check_bool "online DA" true (Atomicity.is_online_dynamic_atomic env h)

let test_empty_history () =
  Helpers.check_bool "empty atomic" true (Atomicity.atomic env History.empty);
  Helpers.check_bool "empty DA" true (Atomicity.is_dynamic_atomic env History.empty);
  Helpers.check_bool "empty online DA" true
    (Atomicity.is_online_dynamic_atomic env History.empty)

(* Orders: linear extensions respect the partial order and cover all
   permutations when unconstrained. *)
let test_linear_extensions () =
  let ts = [ Tid.a; Tid.b; Tid.c ] in
  Helpers.check_int "3! permutations" 6 (List.length (Orders.permutations ts));
  let before x y = Tid.equal x Tid.a && Tid.equal y Tid.c in
  let exts = Orders.linear_extensions ts before in
  Helpers.check_int "A before C: 3 extensions" 3 (List.length exts);
  Helpers.check_bool "all consistent" true
    (List.for_all (fun o -> Orders.consistent o before) exts)

let test_subsets () =
  Helpers.check_int "2^3 subsets" 8 (List.length (Orders.subsets [ Tid.a; Tid.b; Tid.c ]))

(* [order] is a counterexample to dynamic atomicity of [h] over the
   transactions [ts]: each of them once, consistent with [precedes], and
   not serializable. *)
let refutes env h ts order =
  List.length order = Tid.Set.cardinal ts
  && Tid.Set.equal (Tid.Set.of_list order) ts
  && Orders.consistent order (History.precedes h)
  && not (Atomicity.serializable_in env (History.project_tids h ts) order)

(* The downset walk against the enumerating oracle
   ([Atomicity_reference]) on random implementation-model walks: every
   registry type under UIP and DU with its NRBC, its NFC or no
   conflicts, four transactions of up to three operations over 30 steps.
   Both checkers agree with the oracle, every counterexample refutes the
   history it was checked on, and each checker gives both verdicts. *)
let prop_walk_matches_enumeration =
  let module Registry = Tm_adt.Registry in
  let entries = Array.of_list Registry.all in
  let views = [| View.uip; View.du |] in
  let conflicts =
    [| (fun (e : Registry.entry) -> e.nrbc); (fun e -> e.nfc); (fun _ -> Conflict.none) |]
  in
  let seen = Array.make 4 false in
  let gen =
    QCheck2.Gen.(
      quad (int_bound (Array.length entries - 1)) (int_bound 1) (int_bound 2) (int_bound 1_000_000))
  in
  let agrees ~slot walk oracle ~refuted =
    match walk, oracle with
    | Atomicity.Ok, Atomicity.Ok -> seen.(slot) <- true; true
    | Atomicity.Counterexample order, Atomicity.Counterexample _ ->
        seen.(slot + 1) <- true;
        refuted order
    | _ -> false
  in
  Helpers.qcheck ~count:2000 "walk = enumerating oracle (registry model walks)" gen
    ~after:(fun () ->
      Alcotest.(check (array bool))
        "both verdicts of both checkers" [| true; true; true; true |] seen)
    (fun (e, v, c, seed) ->
      let e = entries.(e) in
      let i = Impl_model.make ~spec:e.spec ~view:views.(v) ~conflict:(conflicts.(c) e) in
      let rng = Random.State.make [| seed |] in
      let txns = [ Tid.a; Tid.b; Tid.c; Tid.d ] in
      let h = Impl_model.random i ~txns ~ops_per_txn:3 ~steps:30 ~rng in
      let env = Atomicity.env_of_list [ e.spec ] in
      let committed = History.committed h in
      let active = History.active h in
      (agrees ~slot:0 (Atomicity.dynamic_atomic env h) (Atomicity_reference.dynamic_atomic env h)
         ~refuted:(fun order -> refutes env h committed order)
      && agrees ~slot:2 (Atomicity.online_dynamic_atomic env h)
           (Atomicity_reference.online_dynamic_atomic env h) ~refuted:(fun order ->
             let ts = Tid.Set.of_list order in
             Tid.Set.subset committed ts
             && Tid.Set.subset ts (Tid.Set.union committed active)
             && refutes env h ts order))
      || QCheck2.Test.fail_reportf "%s:@.%a" e.name History.pp h)

let suite =
  [
    Alcotest.test_case "paper §3.3 example" `Quick test_paper_example_atomic;
    Alcotest.test_case "paper §3.4 perturbation" `Quick test_paper_example_perturbed;
    Alcotest.test_case "non-atomic history" `Quick test_not_atomic;
    Alcotest.test_case "aborted ignored" `Quick test_aborted_ignored;
    Alcotest.test_case "serializable_in" `Quick test_serializable_in;
    Alcotest.test_case "multi-object acceptability" `Quick test_acceptable_multi_object;
    Alcotest.test_case "online dynamic atomicity" `Quick test_online_dynamic_atomic;
    Alcotest.test_case "online implies dynamic" `Quick test_online_implies_dynamic;
    Alcotest.test_case "empty history" `Quick test_empty_history;
    prop_walk_matches_enumeration;
    Alcotest.test_case "linear extensions" `Quick test_linear_extensions;
    Alcotest.test_case "subsets" `Quick test_subsets;
  ]
