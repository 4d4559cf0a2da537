(* The crash-injection torture harness itself: unit tests for the
   log→history reconstruction and hand-built tortures, plus the QCheck
   property the harness exists for — random concurrent workloads with
   random mid-run fuzzy checkpoint placement survive a crash at *every*
   WAL append point with all three recovery invariants intact. *)

open Tm_core
module Wal = Tm_engine.Wal
module Crash = Tm_engine.Crash
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module DD = Tm_engine.Durable_database
module Experiment = Tm_sim.Experiment
module Scheduler = Tm_sim.Scheduler
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"

let rebuild_ba () =
  [
    Atomic_object.create ~spec:(BA.spec_with_initial 100) ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ();
  ]

(* --- history_of_records --- *)

let test_history_committed_txn () =
  let recs =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 5);
      Wal.Commit Tid.a;
    ]
  in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_bool "a committed" true (Tid.Set.mem Tid.a (History.committed h));
  Helpers.check_bool "no active txns" true (Tid.Set.is_empty (History.active h))

let test_history_loser_aborted () =
  let recs = [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5) ] in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_bool "loser aborted" true (Tid.Set.mem Tid.a (History.aborted h));
  Helpers.check_bool "no active txns" true (Tid.Set.is_empty (History.active h))

let test_history_checkpoint_base () =
  (* The checkpoint's committed base appears as one synthetic committed
     transaction whose tid is fresh (above the log's high-water mark);
     its live snapshot seeds the in-flight transactions. *)
  let head =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.deposit 2);
    ]
  in
  let recs = head @ [ Wal.Checkpoint (Wal.fuzzy_checkpoint head) ] in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_int "base txn + live txn" 2 (Tid.Set.cardinal (History.transactions h));
  Helpers.check_bool "b's snapshot ops present, b aborted as loser" true
    (Tid.Set.mem Tid.b (History.aborted h));
  Helpers.check_bool "base txn is not b or a" true
    (Tid.Set.exists (fun t -> not (Tid.equal t Tid.a || Tid.equal t Tid.b))
       (History.committed h))

(* --- torture on a hand-driven database --- *)

let test_torture_clean_run () =
  let report =
    Crash.run ~rebuild:rebuild_ba
      ~drive:(fun db ->
        let a = DD.begin_txn db in
        ignore (DD.invoke db a ~obj:"BA" (deposit_inv 5));
        Helpers.check_bool "a commits" true (DD.try_commit db a = Ok ());
        let b = DD.begin_txn db in
        ignore (DD.invoke db b ~obj:"BA" (deposit_inv 3));
        DD.checkpoint db;  (* fuzzy: b in flight *)
        ignore (DD.invoke db b ~obj:"BA" (deposit_inv 4));
        Helpers.check_bool "b commits" true (DD.try_commit db b = Ok ());
        let c = DD.begin_txn db in
        ignore (DD.invoke db c ~obj:"BA" (deposit_inv 9)))
      ()
  in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "every cut atomicity-checked" true
    (report.Crash.atomicity_checked = report.Crash.cuts)

let test_torture_detects_corrupt_log () =
  (* Sanity that the harness can fail: a log whose commit record arrives
     with an illegal operation sequence must be flagged. *)
  let wal = Wal.create () in
  List.iter (Wal.append wal)
    [
      Wal.Begin Tid.a;
      (* overdraws the initial balance: never executable, so replaying it
         as committed is illegal *)
      Wal.Operation (Tid.a, BA.withdraw_ok 10_000);
      Wal.Commit Tid.a;
    ];
  let report = Crash.torture ~rebuild:rebuild_ba wal in
  Helpers.check_bool "violation detected" false (Crash.ok report)

(* --- byte-granularity torture and corruption sweep --- *)

let driven_wal () =
  let wal = Wal.create () in
  let db = DD.create ~wal (rebuild_ba ()) in
  let a = DD.begin_txn db in
  ignore (DD.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "a commits" true (DD.try_commit db a = Ok ());
  let b = DD.begin_txn db in
  ignore (DD.invoke db b ~obj:"BA" (deposit_inv 3));
  DD.checkpoint db;
  ignore (DD.invoke db b ~obj:"BA" (deposit_inv 4));
  Helpers.check_bool "b commits" true (DD.try_commit db b = Ok ());
  let c = DD.begin_txn db in
  ignore (DD.invoke db c ~obj:"BA" (deposit_inv 9));
  wal

let test_torture_bytes_clean () =
  let wal = driven_wal () in
  let report = Crash.torture_bytes ~rebuild:rebuild_ba wal in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  (* Byte cuts strictly outnumber record cuts: most land inside frames. *)
  Helpers.check_bool "more cuts than records" true
    (report.Crash.cuts > Wal.length wal + 1)

let test_corruption_sweep_contained () =
  let wal = driven_wal () in
  let sweep = Crash.corruption_sweep wal in
  Helpers.check_bool
    (Fmt.str "nothing silent: %a" Crash.pp_sweep_report sweep)
    true (Crash.sweep_ok sweep);
  Helpers.check_bool "interior corruption was detected" true
    (sweep.Crash.interior_detected > 0);
  Helpers.check_bool "tail flips were contained" true (sweep.Crash.tail_losses > 0)

(* --- truncation torture: crash-atomic compaction byte sweep --- *)

let test_torture_truncation_clean () =
  let wal = driven_wal () in
  let report = Crash.torture_truncation ~rebuild:rebuild_ba wal in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "the sweep exercised crash states" true
    (report.Crash.cuts > 0)

let test_torture_truncation_no_checkpoint () =
  (* Nothing to compact: the sweep is vacuous, not wrong. *)
  let wal = Wal.create () in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5); Wal.Commit Tid.a ];
  let report = Crash.torture_truncation ~rebuild:rebuild_ba wal in
  Helpers.check_int "no crash states" 0 report.Crash.cuts;
  Helpers.check_bool "clean" true (Crash.ok report)

(* --- recovery refuses to drop committed work --- *)

let test_recover_refuses_unrebuilt_object () =
  (* The log commits operations on an object [rebuild] does not supply:
     restoring the rest and dropping those would lose committed work. *)
  let ghost = Op.make ~obj:"GHOST" ~args:[ Value.int 1 ] "deposit" Value.ok in
  let wal = Wal.create () in
  List.iter (Wal.append wal)
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 5);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, ghost);
      Wal.Commit Tid.b;
    ];
  (match DD.recover ~wal ~rebuild:rebuild_ba () with
  | Ok _ -> Alcotest.fail "recovery dropped GHOST's committed operation"
  | Error e -> Alcotest.(check string) "error names the object" "GHOST" e.Recovery.obj);
  let rebuild () =
    rebuild_ba ()
    @ [
        Atomic_object.create
          ~spec:(Spec.rename (BA.spec_with_initial 0) "GHOST")
          ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ();
      ]
  in
  match DD.recover ~wal ~rebuild () with
  | Ok (_, losers) -> Helpers.check_bool "no losers" true (Tid.Set.is_empty losers)
  | Error e -> Alcotest.failf "recovery with GHOST rebuilt failed: %a" Recovery.pp_error e

(* --- batch-prefix torture of a group-committed run --- *)

let test_torture_batched_group_commit () =
  (* Drive a workload with the durability barrier batched every 3
     commits, then prove every byte cut recovers a prefix of the commit
     order and never loses a commit acknowledged at a flush frontier. *)
  let scenario = Experiment.transfer () in
  let setup = Experiment.setup Recovery.UIP Experiment.Semantic in
  let dw = Tm_engine.Disk_wal.create (Tm_engine.Storage.memory ()) in
  let cfg = Scheduler.config ~concurrency:3 ~total_txns:6 ~seed:5 () in
  let _row, wal =
    Experiment.run_durable ~wal:(Tm_engine.Disk_wal.wal dw) ~checkpoint_every:2
      ~group_commit:3 scenario setup cfg
  in
  let rebuild () = scenario.Experiment.build setup in
  let report = Crash.torture_bytes ~rebuild wal in
  Helpers.check_bool
    (Fmt.str "byte cuts clean on a batched run: %a" Crash.pp_report report)
    true (Crash.ok report);
  let batch = Crash.torture_batched ~group_every:3 wal in
  Helpers.check_bool
    (Fmt.str "batch-prefix clean: %a" Crash.pp_batch_report batch)
    true (Crash.batch_ok batch);
  Helpers.check_bool "cuts cover the encoded log" true (batch.Crash.byte_cuts > 0);
  Helpers.check_bool "the run performed durability barriers" true
    (batch.Crash.frontiers >= 1);
  Helpers.check_bool "commits were acknowledged" true (batch.Crash.acked_max > 0)

(* --- the property --- *)

(* Scenario pool for the property: single- and multi-object, plus the
   mixed-recovery build (UIP and DU objects in one system). *)
let prop_scenarios =
  [|
    Experiment.bank_hotspot;
    Experiment.inventory;
    Experiment.transfer ();
    Experiment.transfer_mixed_recovery ();
  |]

let prop_setups =
  [|
    Experiment.setup Recovery.UIP Experiment.Semantic;
    Experiment.setup Recovery.DU Experiment.Semantic;
    Experiment.setup ~occ:true Recovery.DU Experiment.Semantic;
  |]

let prop_crash_invariants =
  Helpers.qcheck ~count:60 "crash at every append point preserves recovery invariants"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3) (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Scheduler.config ~concurrency:3 ~total_txns:5 ~seed () in
      let _row, wal = Experiment.run_durable ~checkpoint_every scenario setup cfg in
      let rebuild () = scenario.Experiment.build setup in
      let report = Crash.torture ~rebuild wal in
      if Crash.ok report then true
      else
        QCheck2.Test.fail_reportf "%s/%s seed %d cp %d: %a"
          scenario.Experiment.name (Experiment.label setup) seed checkpoint_every
          Crash.pp_report report)

let committed_by_object db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Tm_engine.Database.objects (DD.database db))

(* [Wal.replay] is the reference fold that restart is checked against.
   Over the same scenario pool and random crash cuts, the restart path
   ([Wal.plan], then [Durable_database.recover]) must give every object
   exactly the reference's committed operations on that object, resolve
   the same losers, and allocate post-crash tids above every tid the log
   mentions. *)
let prop_recover_matches_replay =
  Helpers.qcheck ~count:40 "recovery = reference replay"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3)
        (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Scheduler.config ~concurrency:3 ~total_txns:5 ~seed () in
      let _row, wal = Experiment.run_durable ~checkpoint_every scenario setup cfg in
      let rebuild () = scenario.Experiment.build setup in
      (* crash at a seed-derived record cut so losers are common *)
      let cut = seed mod (Wal.length wal + 1) in
      let log = Wal.prefix wal cut in
      let recs = Wal.records log in
      let committed, losers = Wal.replay recs in
      let on name =
        List.filter (fun (op : Op.t) -> String.equal op.Op.obj name) committed
      in
      let max_tid = Option.fold ~none:(-1) ~some:Tid.to_int (Wal.max_tid recs) in
      let fail what =
        QCheck2.Test.fail_reportf "%s/%s seed %d cut %d: %s" scenario.Experiment.name
          (Experiment.label setup) seed cut what
      in
      let plan = Wal.plan ~workers:1 recs in
      Hashtbl.iter
        (fun name ops ->
          if not (List.equal Op.equal ops (on name)) then
            fail (Fmt.str "plan buckets %s differently from replay" name))
        plan.Wal.plan_objects;
      if plan.Wal.plan_ops <> List.length committed then fail "plan lost committed ops";
      if not (Tid.Set.equal plan.Wal.plan_loser_tids losers) then
        fail "plan losers differ";
      if plan.Wal.plan_next_tid <> max_tid + 1 then fail "plan tid high-water mark";
      match DD.recover ~wal:log ~rebuild () with
      | Error e -> fail (Fmt.str "recover failed: %a" Recovery.pp_error e)
      | Ok (db, got_losers) ->
          List.iter
            (fun (name, ops) ->
              if not (List.equal Op.equal ops (on name)) then
                fail (Fmt.str "%s restored other ops than replay commits" name))
            (committed_by_object db);
          if not (Tid.Set.equal got_losers losers) then fail "recovered losers differ";
          if Tid.to_int (DD.begin_txn db) <= max_tid then fail "tid reissued";
          true)

let suite =
  [
    Alcotest.test_case "history: committed txn" `Quick test_history_committed_txn;
    Alcotest.test_case "history: loser aborted" `Quick test_history_loser_aborted;
    Alcotest.test_case "history: checkpoint base" `Quick test_history_checkpoint_base;
    Alcotest.test_case "torture: clean run" `Quick test_torture_clean_run;
    Alcotest.test_case "torture: detects corrupt log" `Quick
      test_torture_detects_corrupt_log;
    Alcotest.test_case "torture: byte-granularity cuts" `Quick
      test_torture_bytes_clean;
    Alcotest.test_case "corruption sweep contained" `Quick
      test_corruption_sweep_contained;
    Alcotest.test_case "truncation torture: clean sweep" `Quick
      test_torture_truncation_clean;
    Alcotest.test_case "truncation torture: vacuous without checkpoint" `Quick
      test_torture_truncation_no_checkpoint;
    Alcotest.test_case "recover refuses unrebuilt objects" `Quick
      test_recover_refuses_unrebuilt_object;
    Alcotest.test_case "batch-prefix torture of group-committed run" `Quick
      test_torture_batched_group_commit;
    prop_crash_invariants;
    prop_recover_matches_replay;
  ]
