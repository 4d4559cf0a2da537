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
  | Atomicity.Ok | Atomicity.Ill_formed _ -> Alcotest.fail "expected a counterexample order"
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
  | Atomicity.Ok | Atomicity.Ill_formed _ -> Alcotest.fail "expected counterexample"
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

(* On a well-formed history [precedes] restricted to the committed and
   active transactions is transitive: if a precedes b and b precedes c
   then fc(a) < lr(b) < fc(b) < lr(c), where fc is a transaction's first
   commit and lr its last response, since a transaction responds to
   nothing after its first commit.  The checker's interval-order walk
   rests on this.  Six transactions of up to three operations over 60
   steps, every registry type under UIP and DU with no conflicts (the
   most interleaving); the property must see some chains. *)
let prop_precedes_transitive =
  let module Registry = Tm_adt.Registry in
  let entries = Array.of_list Registry.all in
  let views = [| View.uip; View.du |] in
  let chains = ref 0 in
  Helpers.qcheck ~count:300 "precedes is transitive (registry model walks)"
    QCheck2.Gen.(triple (int_bound (Array.length entries - 1)) (int_bound 1) (int_bound 1_000_000))
    ~after:(fun () -> Helpers.check_bool "chains seen" true (!chains > 0))
    (fun (e, v, seed) ->
      let e = entries.(e) in
      let i = Impl_model.make ~spec:e.spec ~view:views.(v) ~conflict:Conflict.none in
      let rng = Random.State.make [| seed |] in
      let txns = List.init 6 Tid.of_int in
      let h = Impl_model.random i ~txns ~ops_per_txn:3 ~steps:60 ~rng in
      Helpers.precedes_transitive ~chains h
      || QCheck2.Test.fail_reportf "%s:@.%a" e.name History.pp h)

(* The length, in transactions of that object, of the shortest prefix
   of [order] that does not serialize at the first object where [order]
   fails.  A checker's counterexample begins, at the object it walked,
   with the illegal path it found. *)
let illegal_prefix env h order =
  List.find_map
    (fun x ->
      let hx = History.project_obj h x in
      let ts = List.filter (fun t -> History.opseq (History.project_tid hx t) <> []) order in
      let rec shortest n =
        if n > List.length ts then None
        else if Atomicity.serializable_in env hx (List.filteri (fun i _ -> i < n) ts) then
          shortest (n + 1)
        else Some n
      in
      shortest 1)
    (History.objects h)

(* The interval-order walk against the closure walk it replaced
   ([Atomicity_walk_reference]) on histories too big to enumerate:
   implementation-model walks of eight transactions over 80 steps, and
   traced fiber runs of the bank hot spot (sound, and unsound: UIP with
   the bank's NFC), the inventory, transfers and unsound UIP+NFC
   accounts, whose counterexamples span objects.  Both variants give the
   same verdict; every counterexample refutes the history and begins,
   at the object it fails, with an illegal prefix as short as the
   closure walk's.  Each variant must give both verdicts on each source. *)
let prop_walk_matches_closure_walk =
  let module Registry = Tm_adt.Registry in
  let module BA = Tm_adt.Bank_account in
  let module Experiment = Tm_sim.Experiment in
  let module Atomic_object = Tm_engine.Atomic_object in
  let entries = Array.of_list Registry.all in
  let views = [| View.uip; View.du |] in
  let conflicts =
    [| (fun (e : Registry.entry) -> e.nrbc); (fun e -> e.nfc); (fun _ -> Conflict.none) |]
  in
  let uip = Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic in
  let runs =
    [|
      (Experiment.bank_hotspot, uip);
      (Experiment.bank_hotspot, Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic);
      ( {
          Experiment.bank_hotspot with
          build =
            (fun _ ->
              [
                Atomic_object.create ~spec:BA.spec ~conflict:BA.nfc_conflict
                  ~recovery:Tm_engine.Recovery.UIP ();
              ]);
        },
        uip );
      (Experiment.inventory, uip);
      (Experiment.transfer ~accounts:3 (), uip);
      ( {
          (Experiment.bank_accounts ~accounts:3 ()) with
          build =
            (fun _ ->
              List.init 3 (fun i ->
                  Atomic_object.create
                    ~spec:(Spec.rename BA.spec (Fmt.str "BA%d" i))
                    ~conflict:BA.nfc_conflict ~recovery:Tm_engine.Recovery.UIP ()));
        },
        uip );
    |]
  in
  let model (e, v, c, seed) =
    let e = entries.(e) in
    let i = Impl_model.make ~spec:e.spec ~view:views.(v) ~conflict:(conflicts.(c) e) in
    let rng = Random.State.make [| seed |] in
    let h = Impl_model.random i ~txns:(List.init 8 Tid.of_int) ~ops_per_txn:3 ~steps:80 ~rng in
    (0, Atomicity.env_of_list [ e.spec ], h)
  in
  let traced (r, concurrency, seed) =
    let scenario, setup = runs.(r) in
    let cfg = Experiment.config ~concurrency ~total_txns:16 ~seed () in
    let row =
      Experiment.run_custom ~record_trace:true ~name:scenario.Experiment.name ~label:"traced"
        ~workload:scenario.workload ~build:(fun () -> scenario.build setup) cfg
    in
    let env = Atomicity.env_of_list (List.map Atomic_object.spec (scenario.build setup)) in
    (1, env, Tm_obs.Trace.to_history (Option.get row.Experiment.trace))
  in
  (* A seed's history does not shrink with the seed, and each traced
     run costs a fiber experiment: a failure is reported unshrunk. *)
  let gen =
    QCheck2.Gen.(
      no_shrink
        (oneof
           [
             map model
               (quad (int_bound (Array.length entries - 1)) (int_bound 1) (int_bound 2)
                  (int_bound 1_000_000));
             map traced
               (triple (int_bound (Array.length runs - 1)) (int_range 2 6) (int_bound 10_000));
           ]))
  in
  (* [seen.(source).(variant * 2 + refuted)] *)
  let seen = Array.make_matrix 2 4 false in
  let agrees ~source ~variant env h walk closure ~refuted =
    match walk, closure with
    | Atomicity.Ok, Atomicity.Ok ->
        seen.(source).(variant * 2) <- true;
        true
    | Atomicity.Counterexample order, Atomicity.Counterexample order' ->
        seen.(source).((variant * 2) + 1) <- true;
        refuted order && illegal_prefix env h order = illegal_prefix env h order'
    | _ -> false
  in
  Helpers.qcheck ~count:300 "interval walk = closure walk (model walks, traced runs)" gen
    ~after:(fun () ->
      Alcotest.(check (array (array bool)))
        "both verdicts of both variants on both sources"
        (Array.make_matrix 2 4 true) seen)
    (fun (source, env, h) ->
      let committed = History.committed h in
      let active = History.active h in
      (agrees ~source ~variant:0 env h (Atomicity.dynamic_atomic env h)
         (Atomicity_walk_reference.dynamic_atomic env h) ~refuted:(fun order ->
           refutes env h committed order)
      && agrees ~source ~variant:1 env h (Atomicity.online_dynamic_atomic env h)
           (Atomicity_walk_reference.online_dynamic_atomic env h) ~refuted:(fun order ->
             let ts = Tid.Set.of_list order in
             Tid.Set.subset committed ts
             && Tid.Set.subset ts (Tid.Set.union committed active)
             && refutes env h ts order))
      || QCheck2.Test.fail_reportf "%a" History.pp h)

let test_ill_formed_rejected () =
  let h = History.empty |> History.respond Tid.a ~obj:"BA" Value.ok in
  let ill_formed f = match f env h with Atomicity.Ill_formed _ -> true | _ -> false in
  Helpers.check_bool "dynamic_atomic: ill-formed" true (ill_formed Atomicity.dynamic_atomic);
  Helpers.check_bool "online_dynamic_atomic: ill-formed" true
    (ill_formed Atomicity.online_dynamic_atomic)

(* [n] transactions of four interleaved clients over three accounts:
   in each round of four, every client deposits 2 to its account, then
   every client withdraws 1 from it, then all four commit.  Each
   transaction is concurrent with its round only. *)
let synthetic_history n =
  let accounts = Array.init 3 (fun i -> Fmt.str "BA%d" i) in
  let op t name amount = Op.make ~obj:accounts.(t mod 3) ~args:[ Value.int amount ] name Value.ok in
  let round r =
    let ts = List.filter (fun t -> t < n) (List.init 4 (fun c -> (4 * r) + c)) in
    List.map (fun t -> History.Exec (Tid.of_int t, op t "deposit" 2)) ts
    @ List.map (fun t -> History.Exec (Tid.of_int t, op t "withdraw" 1)) ts
    @ List.map (fun t -> History.Commit (Tid.of_int t)) ts
  in
  History.of_steps (List.concat_map round (List.init ((n + 3) / 4) Fun.id))

(* The check's allocation grows linearly with the transactions, with
   bounded concurrency: doubling them at most 2.3x its minor words.  A
   quadratic [precedes] matrix or a downset copied at every step fails
   it. *)
let test_check_allocates_linearly () =
  let env =
    Atomicity.env_of_list (List.init 3 (fun i -> Spec.rename Helpers.BA.spec (Fmt.str "BA%d" i)))
  in
  let words n =
    let h = synthetic_history n in
    let before = Gc.minor_words () in
    let v = Atomicity.dynamic_atomic env h in
    let w = Gc.minor_words () -. before in
    Helpers.check_bool (Fmt.str "%d transactions dynamic atomic" n) true (Atomicity.is_ok v);
    w
  in
  let ratio = words 4000 /. words 2000 in
  Helpers.check_bool (Fmt.str "minor words ratio %.2f <= 2.3" ratio) true (ratio <= 2.3)

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
    prop_precedes_transitive;
    prop_walk_matches_closure_walk;
    Alcotest.test_case "ill-formed history rejected" `Quick test_ill_formed_rejected;
    Alcotest.test_case "check allocates linearly" `Quick test_check_allocates_linearly;
    Alcotest.test_case "linear extensions" `Quick test_linear_extensions;
    Alcotest.test_case "subsets" `Quick test_subsets;
  ]
