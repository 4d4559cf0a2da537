(* The crash-state enumerator itself: unit tests for the log→history
   reconstruction, every generator on hand-driven logs, the battery on
   hand-built states, the state counts each generator yields, plus the
   QCheck property the enumerator exists for — random concurrent
   workloads with random mid-run fuzzy checkpoint placement survive a
   crash at *every* WAL append point with the battery intact. *)

open Tm_core
module Wal = Tm_engine.Wal
module Crash = Tm_engine.Crash
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Shard = Tm_engine.Shard
module SD = Tm_engine.Sharded_database
module Disk_wal = Tm_engine.Disk_wal
module Storage = Tm_engine.Storage
module Op_log = Tm_engine.Op_log
module Experiment = Tm_sim.Experiment
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
  let recs = head @ [ Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records head)) ] in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_int "base txn + live txn" 2 (Tid.Set.cardinal (History.transactions h));
  Helpers.check_bool "b's snapshot ops present, b aborted as loser" true
    (Tid.Set.mem Tid.b (History.aborted h));
  Helpers.check_bool "base txn is not b or a" true
    (Tid.Set.exists (fun t -> not (Tid.equal t Tid.a || Tid.equal t Tid.b))
       (History.committed h))

(* --- generators over a hand-driven database --- *)

(* A one-shard recording of a hand-written drive. *)
let record ?(rebuild = rebuild_ba) drive = Crash.of_drive ~shards:1 ~rebuild drive

(* A recording of [recs] appended by hand to the one shard's log. *)
let appended recs =
  record (fun db -> List.iter (Wal.append (Shard.wal (SD.shards db).(0))) recs)

let sweep ?(rebuild = rebuild_ba) gen r = Crash.enumerate ~rebuild (gen r)

(* Two commits around a fuzzy checkpoint taken with b in flight, and c
   left in flight at the end. *)
let driven () =
  record (fun db ->
      let a = SD.begin_txn db in
      ignore (SD.invoke db a ~obj:"BA" (deposit_inv 5));
      Helpers.check_bool "a commits" true (SD.try_commit db a = Ok ());
      let b = SD.begin_txn db in
      ignore (SD.invoke db b ~obj:"BA" (deposit_inv 3));
      Helpers.check_bool "checkpoint" true (SD.checkpoint db);
      ignore (SD.invoke db b ~obj:"BA" (deposit_inv 4));
      Helpers.check_bool "b commits" true (SD.try_commit db b = Ok ());
      let c = SD.begin_txn db in
      ignore (SD.invoke db c ~obj:"BA" (deposit_inv 9)))

let test_torture_clean_run () =
  let report = sweep Crash.append_points (driven ()) in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "every cut atomicity-checked" true
    (report.Crash.atomicity_checked = report.Crash.states)

let test_torture_detects_corrupt_log () =
  (* Sanity that the harness can fail: a log whose commit record arrives
     with an illegal operation sequence must be flagged. *)
  let r =
    appended
      [
        Wal.Begin Tid.a;
        (* overdraws the initial balance: never executable, so replaying it
           as committed is illegal *)
        Wal.Operation (Tid.a, BA.withdraw_ok 10_000);
        Wal.Commit Tid.a;
      ]
  in
  let report = sweep Crash.append_points r in
  Helpers.check_bool "violation detected" false (Crash.ok report)

(* --- byte-granularity torture and corruption sweep --- *)

let test_torture_bytes_clean () =
  let r = driven () in
  let report = sweep Crash.byte_cuts r in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  (* Byte cuts strictly outnumber record cuts: most land inside frames. *)
  Helpers.check_bool "more cuts than records" true
    (report.Crash.states > List.length (Crash.logs r).(0) + 1)

let test_corruption_sweep_contained () =
  let sweep = Crash.corruption_sweep (driven ()) in
  Helpers.check_bool
    (Fmt.str "nothing silent: %a" Crash.pp_report sweep)
    true (Crash.ok sweep);
  Helpers.check_bool "interior corruption was detected" true
    (List.assoc "interior" sweep.Crash.tally > 0);
  Helpers.check_bool "tail flips were contained" true
    (List.assoc "tail-loss" sweep.Crash.tally > 0)

(* --- truncation torture: crash-atomic compaction byte sweep --- *)

let truncation = Crash.rewrite ~from:Wal.Codec.write_version

let test_torture_truncation_clean () =
  let report = sweep truncation (driven ()) in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "the sweep exercised crash states" true
    (report.Crash.states > 0)

let test_torture_truncation_no_checkpoint () =
  (* Nothing to compact: the sweep is vacuous, not wrong. *)
  let r = appended [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5); Wal.Commit Tid.a ] in
  let report = sweep truncation r in
  Helpers.check_int "no crash states" 0 report.Crash.states;
  Helpers.check_bool "clean" true (Crash.ok report)

(* An upgrade whose image outgrows the v1 log it replaces: with no
   checkpoint nothing is dropped, and the install reaches past the old
   log's end, where the journal begins.  A v3 frame's header is 2 bytes
   wider than a v1 frame's, and a tid of 2^58 takes 9 bytes as a varint
   against 8 fixed, so the Begin and Abort frames of such tids outgrow
   what the two operations' varints save.  Every byte state must still
   reload and recover the pre-upgrade state. *)
let test_torture_upgrade_growing_image () =
  let big i = Tid.of_int ((1 lsl 58) + i) in
  let a = big 0 and b = big 1 in
  let aborted =
    List.concat (List.init 10 (fun i -> [ Wal.Begin (big (2 + i)); Wal.Abort (big (2 + i)) ]))
  in
  let recs =
    [ Wal.Begin a; Wal.Operation (a, BA.deposit 5); Wal.Commit a ]
    @ aborted
    @ [ Wal.Begin b; Wal.Operation (b, BA.deposit 3) ]
  in
  Helpers.check_bool "the v3 image is longer" true
    (String.length (Wal.Codec.encode_all recs)
    > String.length (Wal.Codec.encode_all ~version:Wal.Codec.v1 recs));
  let report = sweep (Crash.rewrite ~from:Wal.Codec.v1) (appended recs) in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "the sweep exercised crash states" true (report.Crash.states > 0)

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
  (match Shard.recover ~wal ~rebuild:rebuild_ba () with
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
  match Shard.recover ~wal ~rebuild () with
  | Ok (_, losers) -> Helpers.check_bool "no losers" true (Tid.Set.is_empty losers)
  | Error e -> Alcotest.failf "recovery with GHOST rebuilt failed: %a" Recovery.pp_error e

(* --- batch-prefix torture of a group-committed run --- *)

let test_torture_batched_group_commit () =
  (* Record a fiber run, each commit acknowledged once its force returns,
     then prove every byte cut recovers a prefix of the commit order and
     never loses a commit acknowledged at a barrier the cut reached. *)
  let scenario = Experiment.transfer () in
  let setup = Experiment.setup Recovery.UIP Experiment.Semantic in
  let cfg = Experiment.config ~concurrency:3 ~total_txns:6 ~seed:5 () in
  let rebuild () = scenario.Experiment.build setup in
  let r =
    record ~rebuild (fun sdb ->
        ignore (Experiment.drive ~checkpoint_every:2 scenario setup cfg sdb : Experiment.row))
  in
  (* One pass: the battery at every byte cut, batch-prefix and
     acked-durability with it. *)
  let batch = sweep ~rebuild Crash.byte_cuts r in
  Helpers.check_bool
    (Fmt.str "byte cuts and batch-prefix clean on a forced run: %a" Crash.pp_report
       batch)
    true (Crash.ok batch);
  Helpers.check_bool "cuts cover the encoded log" true (batch.Crash.states > 0);
  Helpers.check_bool "the run performed durability barriers" true
    (List.assoc "barriers" batch.Crash.tally >= 1);
  Helpers.check_bool "commits were acknowledged" true
    (List.assoc "acked" batch.Crash.tally > 0)

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

(* [scenario] under [setup] driven onto a one-shard engine over [wal]. *)
let drive_onto wal ~checkpoint_every scenario setup cfg =
  let sdb = SD.create ~wals:[| wal |] (scenario.Experiment.build setup) in
  ignore (Experiment.drive ~checkpoint_every scenario setup cfg sdb : Experiment.row)

let prop_crash_invariants =
  Helpers.qcheck ~count:60 "crash at every append point preserves recovery invariants"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3) (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Experiment.config ~concurrency:3 ~total_txns:5 ~seed () in
      let rebuild () = scenario.Experiment.build setup in
      let r =
        record ~rebuild (fun sdb ->
            ignore (Experiment.drive ~checkpoint_every scenario setup cfg sdb : Experiment.row))
      in
      let report = sweep ~rebuild Crash.append_points r in
      if Crash.ok report then true
      else
        QCheck2.Test.fail_reportf "%s/%s seed %d cp %d: %a"
          scenario.Experiment.name (Experiment.label setup) seed checkpoint_every
          Crash.pp_report report)

let committed_by_object db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Tm_engine.Database.objects (Shard.database db))

(* [Wal_replay_reference] is the oracle restart is checked against: the
   two-pass fold that [Wal]'s one fold replaced.  Over the same scenario
   pool and random crash cuts, every view of the library's fold
   ([Wal.replay], [Wal.max_tid], [Wal.checkpoint_of], [Wal.plan]) must
   answer as the oracle does, and the restart path
   ([Shard.recover]) must give every object exactly the
   oracle's committed operations on that object, resolve the same
   losers, and allocate post-crash tids above every tid the log
   mentions. *)
let prop_recover_matches_replay =
  Helpers.qcheck ~count:40 "recovery = reference replay"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3)
        (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Experiment.config ~concurrency:3 ~total_txns:5 ~seed () in
      let wal = Wal.create () in
      drive_onto wal ~checkpoint_every scenario setup cfg;
      let rebuild () = scenario.Experiment.build setup in
      (* crash at a seed-derived record cut so losers are common *)
      let cut = seed mod (Wal.length wal + 1) in
      let log = Helpers.log_prefix (Wal.records wal) cut in
      let recs = Wal.records log in
      let on committed name =
        List.filter (fun (op : Op.t) -> String.equal op.Op.obj name) committed
      in
      let high_water recs =
        Option.fold ~none:(-1) ~some:Tid.to_int (Wal_replay_reference.max_tid recs)
      in
      let fail what =
        QCheck2.Test.fail_reportf "%s/%s seed %d cut %d: %s" scenario.Experiment.name
          (Experiment.label setup) seed cut what
      in
      let views_agree what recs =
        let fail msg = fail (what ^ ": " ^ msg) in
        let committed, losers = Wal_replay_reference.replay recs in
        let lib_committed, lib_losers = Wal.replay recs in
        if not (List.equal Op.equal lib_committed committed) then
          fail "replay commits differently from the oracle";
        if not (Tid.Set.equal lib_losers losers) then fail "replay losers differ";
        if
          not (Option.equal Tid.equal (Wal.max_tid recs) (Wal_replay_reference.max_tid recs))
        then fail "max_tid differs";
        (* checkpoint bytes go to disk: compare them as records *)
        if
          not
            (Wal.equal_record
               (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records recs)))
               (Wal.Checkpoint (Wal_replay_reference.fuzzy_checkpoint ~next_tid:0 recs)))
        then fail "fuzzy checkpoint differs";
        let plan = Wal.plan ~workers:1 recs in
        Hashtbl.iter
          (fun name ops ->
            if not (List.equal Op.equal (Op_log.to_list ops) (on committed name)) then
              fail (Fmt.str "plan buckets %s differently from replay" name))
          plan.Wal.plan_objects;
        if plan.Wal.plan_ops <> List.length committed then fail "plan lost committed ops";
        if not (Tid.Set.equal plan.Wal.plan_loser_tids losers) then
          fail "plan losers differ";
        if plan.Wal.plan_next_tid <> high_water recs + 1 then
          fail "plan tid high-water mark"
      in
      views_agree "crashed log" recs;
      (* The fold must agree with the oracle on any record list, not only
         on one the engine writes.  Read after the complete run, every tid
         of the crashed log recurs after it finished — across a
         checkpoint whenever one precedes the cut. *)
      views_agree "full run, then crashed log" (Wal.records wal @ recs);
      let committed, losers = Wal_replay_reference.replay recs in
      match Shard.recover ~wal:log ~rebuild () with
      | Error e -> fail (Fmt.str "recover failed: %a" Recovery.pp_error e)
      | Ok (db, got_losers) ->
          List.iter
            (fun (name, ops) ->
              if not (List.equal Op.equal ops (on committed name)) then
                fail (Fmt.str "%s restored other ops than replay commits" name))
            (committed_by_object db);
          if not (Tid.Set.equal got_losers losers) then fail "recovered losers differ";
          if Tid.to_int (Shard.begin_txn db) <= high_water recs then fail "tid reissued";
          true)

let plans_equal = Helpers.plans_equal

(* A log keeps its replay state, not its records: the state stepped as
   records were appended (or decoded by a load) must read back exactly
   what the fold over the log's own records computes — plan, checkpoint
   snapshot, losers and next tid — on a sink-less log and on a disk log
   whose records live only in storage.  Every step of a run is checked:
   the scenario (with random fuzzy checkpoints), an optional truncation,
   a reload, and recovery with a checkpoint on the reloaded log. *)
let prop_log_state_matches_records =
  Helpers.qcheck ~count:40 "log state = fold over its records"
    QCheck2.Gen.(
      tup5 (int_range 0 10_000) (int_bound 3)
        (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1))
        (pair bool bool))
    (fun (seed, checkpoint_every, si, pi, (disk, truncate)) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let rebuild () = scenario.Experiment.build setup in
      let fail what =
        QCheck2.Test.fail_reportf "%s/%s seed %d %s: %s" scenario.Experiment.name
          (Experiment.label setup) seed
          (if disk then "disk" else "sink-less")
          what
      in
      let storage = Storage.memory () in
      let reload wal =
        if disk then
          match Disk_wal.load storage with
          | Ok dw -> Disk_wal.wal dw
          | Error c -> fail (Fmt.str "reload refused: %a" Wal.Codec.pp_corruption c)
        else Wal.of_records (Wal.records wal)
      in
      let snapshot wal = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal) in
      let check what wal =
        let fail msg = fail (what ^ ": " ^ msg) in
        let recs = Wal.records wal in
        if Wal.length wal <> List.length recs then fail "length is not the records read back";
        let plan = Wal.plan_of wal in
        if not (plans_equal plan (Wal.plan ~workers:1 recs)) then
          fail "plan of the state differs from the plan of the records";
        if
          not
            (Wal.equal_record (snapshot wal)
               (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records recs))))
        then fail "checkpoint of the state differs from the records'";
        let committed, losers = Wal.replay recs in
        if plan.plan_ops <> List.length committed then fail "plan lost committed ops";
        if not (Tid.Set.equal plan.plan_loser_tids losers) then fail "losers differ";
        let next = Option.fold ~none:0 ~some:(fun t -> Tid.to_int t + 1) (Wal.max_tid recs) in
        if plan.plan_next_tid <> next then fail "next tid differs";
        Tid.Set.iter
          (fun tid -> if not (Wal.in_flight wal tid) then fail "a loser is not in flight")
          losers;
        let reloaded = reload wal in
        if not (plans_equal plan (Wal.plan_of reloaded)) then
          fail "a reload gives another plan";
        if not (Wal.equal_record (snapshot wal) (snapshot reloaded)) then
          fail "a reload gives another checkpoint"
      in
      let wal = if disk then Disk_wal.wal (Disk_wal.create storage) else Wal.create () in
      let cfg = Experiment.config ~concurrency:3 ~total_txns:5 ~seed () in
      drive_onto wal ~checkpoint_every scenario setup cfg;
      check "run" wal;
      if truncate then begin
        ignore (Wal.truncate_to_checkpoint wal);
        check "truncated" wal
      end;
      let wal = reload wal in
      check "reloaded" wal;
      match Shard.recover ~wal ~rebuild () with
      | Error e -> fail (Fmt.str "recover failed: %a" Recovery.pp_error e)
      | Ok (db, _) ->
          Shard.checkpoint db;
          check "recovered and checkpointed" wal;
          true)

(* What a full decode of [image] restores, frame by frame through
   [Codec.decode_frame] (which builds every record), with the verdict the
   loader must give: [Error] on interior corruption, else the records of
   the intact prefix up to the first truncation intent and the offset
   where the log ends. *)
let reference_load image =
  let len = String.length image in
  (* [intent]: the offset of the first truncation intent, once seen; the
     frames after it are still checked, as damage there is interior or
     torn just the same, but not kept. *)
  let rec frames pos intent acc =
    let stop = Option.value intent ~default:pos in
    if pos = len then Ok (List.rev acc, stop)
    else
      match Wal.Codec.decode_frame image pos, intent with
      | Ok (Wal.Truncate_intent _, next), None -> frames next (Some pos) acc
      | Ok (r, next), None -> frames next None (r :: acc)
      | Ok (_, next), Some _ -> frames next intent acc
      | Error c, _ ->
          if Wal.Codec.valid_frame_after image (c.Wal.Codec.offset + 1) then Error c
          else Ok (List.rev acc, stop)
  in
  frames 0 None []

(* [Disk_wal.load] verifies the prefix its last checkpoint supersedes and
   decodes only from that checkpoint on.  Whatever the log, it must give
   the verdict, end offset, counters and replay state of a load that
   decodes and steps every frame: logs from the scenario pool with 0–3
   checkpoints per commit, some with a hand-built checkpoint whose
   [next_tid] lies below a tid before it, cut at a random byte, and some
   then given a torn compaction journal (rolled back) or one flipped
   byte. *)
let prop_load_matches_full_decode =
  Helpers.qcheck ~count:100 "load = full decode of every frame"
    QCheck2.Gen.(
      tup5 (int_range 0 10_000) (int_bound 3)
        (pair (int_bound (Array.length prop_scenarios - 1))
           (int_bound (Array.length prop_setups - 1)))
        (pair bool (int_bound 1_000_000))
        (pair (int_bound 2) (pair (int_bound 1_000_000) (int_range 1 255))))
    (fun (seed, checkpoint_every, (si, pi), (hand_cp, at), (damage, (cut, flip))) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Experiment.config ~concurrency:3 ~total_txns:5 ~seed () in
      let wal = Wal.create () in
      drive_onto wal ~checkpoint_every scenario setup cfg;
      let recs = Wal.records wal in
      let recs =
        if not hand_cp then recs
        else
          (* A checkpoint that forgot the allocator: only the tids of the
             records before it keep the high-water mark. *)
          let k = at mod (List.length recs + 1) in
          let before = List.filteri (fun i _ -> i < k) recs in
          let cp = Wal.checkpoint_of ~next_tid:0 (Wal.of_records before) in
          before
          @ (Wal.Checkpoint { cp with Wal.next_tid = 0 } :: List.filteri (fun i _ -> i >= k) recs)
      in
      let full = Wal.Codec.encode_all recs in
      let image = String.sub full 0 (cut mod (String.length full + 1)) in
      let image =
        match damage with
        | 1 ->
            (* A journal cut short: an intent that is not self-locating,
               so the compaction never committed, then part of the
               compacted image, which starts with a checkpoint the load
               must not start from. *)
            let journal =
              Wal.Codec.encode_all (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records recs)) :: recs)
            in
            let old_len = String.length image + 1 in
            image
            ^ Wal.Codec.encode (Wal.Truncate_intent { old_len; new_len = String.length journal })
            ^ String.sub journal 0 (at mod (String.length journal + 1))
        | 2 when image <> "" ->
            let b = Bytes.of_string image in
            let i = cut mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip));
            Bytes.to_string b
        | _ -> image
      in
      let fail what =
        QCheck2.Test.fail_reportf "%s/%s seed %d cp %d hand %b cut %d damage %d: %s"
          scenario.Experiment.name (Experiment.label setup) seed checkpoint_every hand_cp
          (String.length image) damage what
      in
      match Disk_wal.load (Storage.of_string image), reference_load image with
      | Error c, Error c' ->
          if c <> c' then
            fail
              (Fmt.str "refused at %a, a full decode at %a" Wal.Codec.pp_corruption c
                 Wal.Codec.pp_corruption c')
          else true
      | Ok _, Error c -> fail (Fmt.str "loaded what a full decode refuses: %a" Wal.Codec.pp_corruption c)
      | Error c, Ok _ -> fail (Fmt.str "refused what a full decode loads: %a" Wal.Codec.pp_corruption c)
      | Ok dw, Ok (recs, stop) ->
          let got = Disk_wal.wal dw and want = Wal.of_records recs in
          if Wal.length got <> Wal.length want then fail "length";
          if Wal.last_lsn got <> Wal.last_lsn want then fail "last_lsn";
          if Wal.flushed_lsn got <> Wal.flushed_lsn want then fail "flushed_lsn";
          if not (plans_equal (Wal.plan_of got) (Wal.plan_of want)) then fail "plan";
          let snapshot wal = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal) in
          if not (Wal.equal_record (snapshot got) (snapshot want)) then fail "checkpoint_of";
          (* The next append lands where the intact log ends. *)
          let r = Wal.Begin (Tid.of_int 4242) in
          Wal.append got r;
          if Storage.read_all (Disk_wal.storage dw) <> String.sub image 0 stop ^ Wal.Codec.encode r
          then fail (Fmt.str "the next append does not land at byte %d" stop);
          true)

(* --- the sharded generators and the battery's 2PC checks --- *)

let rebuild_sharded () =
  List.init 4 (fun i ->
      let spec = Spec.rename (BA.spec_with_initial 100) (Fmt.str "BA%d" i) in
      if i mod 2 = 0 then
        Atomic_object.create ~spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ()
      else Atomic_object.create ~spec ~conflict:BA.nfc_conflict ~recovery:Recovery.DU ())

(* An object homed on shard [s] of two. *)
let on_shard s =
  List.find
    (fun o -> SD.home_shard ~shards:2 o = s)
    (List.map Atomic_object.name (rebuild_sharded ()))

(* Local and cross-shard commits, a global checkpoint, an explicit abort
   and a transaction left in flight. *)
let drive_two_shards db =
  let a = on_shard 0 and b = on_shard 1 in
  let txn ops =
    let t = SD.begin_txn db in
    List.iter (fun (o, n) -> ignore (SD.invoke db t ~obj:o (deposit_inv n))) ops;
    t
  in
  Helpers.check_bool "local commit" true (SD.try_commit db (txn [ (a, 5) ]) = Ok ());
  Helpers.check_bool "cross commit" true
    (SD.try_commit db (txn [ (a, 3); (b, 4) ]) = Ok ());
  Helpers.check_bool "checkpoint" true (SD.checkpoint db);
  SD.abort db (txn [ (b, 2) ]);
  Helpers.check_bool "second cross commit" true
    (SD.try_commit db (txn [ (b, 6); (a, 1) ]) = Ok ());
  ignore (txn [ (a, 9) ])

let two_shard_recording () =
  Crash.of_drive ~shards:2 ~rebuild:rebuild_sharded drive_two_shards

let test_sharded_clean () =
  let r = two_shard_recording () in
  List.iter
    (fun (name, gen) ->
      let report = Crash.enumerate ~rebuild:rebuild_sharded (gen r) in
      Helpers.check_bool
        (Fmt.str "%s clean: %a" name Crash.pp_report report)
        true (Crash.ok report);
      Helpers.check_bool (name ^ " yields states") true (report.Crash.states > 0);
      Helpers.check_bool (name ^ " checks evidence") true
        (report.Crash.evidence_checked > 0))
    [ ("forced", Crash.forced_frontiers); ("bytes", Crash.byte_cuts) ]

(* Over several shards: truncation keeps a committed cross-shard
   transaction's operations in the checkpoint, not as records, and the
   battery must accept that; a log holding 2PC records has no v1 form
   to upgrade from; and the harvest finds a decided prepare in doubt. *)
let test_sharded_rewrites_and_in_doubt () =
  let r = two_shard_recording () in
  let truncate = Crash.enumerate ~rebuild:rebuild_sharded (truncation r) in
  Helpers.check_bool
    (Fmt.str "truncate clean: %a" Crash.pp_report truncate)
    true (Crash.ok truncate);
  Helpers.check_int "truncate states" 702 truncate.Crash.states;
  let upgrade =
    Crash.enumerate ~rebuild:rebuild_sharded (Crash.rewrite ~from:Wal.Codec.v1 r)
  in
  Helpers.check_int "no upgrade of 2PC logs" 0 upgrade.Crash.states;
  (* v2 frames carry shard ids and 2PC records, so every shard upgrades *)
  let upgrade_v2 =
    Crash.enumerate ~rebuild:rebuild_sharded (Crash.rewrite ~from:Wal.Codec.v2 r)
  in
  Helpers.check_bool
    (Fmt.str "upgrade-v2 clean: %a" Crash.pp_report upgrade_v2)
    true (Crash.ok upgrade_v2);
  Helpers.check_int "upgrade-v2 states" 702 upgrade_v2.Crash.states;
  Helpers.check_int "upgrade-v2 cross-shard txns" 2 upgrade_v2.Crash.cross_txns;
  (match Crash.in_doubt r with
  | None -> Alcotest.fail "no decided prepare left in doubt"
  | Some st ->
      Helpers.check_bool "a decided commit in doubt" true
        (List.exists
           (fun (r : Tm_engine.Two_phase.resolution) ->
             r.commit && r.evidence = Tm_engine.Two_phase.Decision_record)
           (Tm_engine.Two_phase.analyze (Array.map Wal.of_records st.Crash.logs))));
  Helpers.check_bool "nothing in doubt on one shard" true (Crash.in_doubt (driven ()) = None)

(* The 2PC resolutions read from the replay states equal the record
   walk's on every state of the 2-shard generators.  Cuts leave prepares
   in doubt, so those comparisons are not over empty lists; a rewrite
   keeps every record of its log or its checkpoint and tail, so it
   leaves none, but its states hold 2PC records before a checkpoint. *)
let test_sharded_analysis_matches_walk () =
  let r = two_shard_recording () in
  List.iter
    (fun (name, gen, in_doubt) ->
      let states = ref 0 and resolved = ref 0 in
      Seq.iter
        (fun (st : Crash.state) ->
          incr states;
          resolved := !resolved + Two_phase_reference.check st.Crash.label st.Crash.logs)
        (Crash.states (gen r));
      Helpers.check_bool (name ^ " yields states") true (!states > 0);
      Helpers.check_bool (name ^ " leaves prepares in doubt") in_doubt (!resolved > 0))
    [
      ("forced", Crash.forced_frontiers, true);
      ("bytes", Crash.byte_cuts, true);
      ("truncate", truncation, false);
    ]

let tid = Tid.of_int 1
let dep obj n = Op.make ~obj ~args:[ Value.int n ] "deposit" Value.ok

let flagged ~reference label logs =
  let report =
    Crash.enumerate ~rebuild:rebuild_sharded
      (Crash.given ~reference [ { Crash.label; logs } ])
  in
  List.map
    (fun (v : Crash.violation) ->
      Alcotest.(check string) "violation names its state" label v.Crash.label;
      v.Crash.invariant)
    report.Crash.violations

let test_battery_missing_participant_op () =
  (* The coordinator's Decision proves commit, yet participant shard 1
     kept its Prepare but not the Operation it voted on. *)
  let a = on_shard 0 and b = on_shard 1 in
  let reference =
    [|
      [
        Wal.Begin tid;
        Wal.Operation (tid, dep a 5);
        Wal.Prepare tid;
        Wal.Decision { tid; commit = true };
        Wal.Commit tid;
      ];
      [ Wal.Begin tid; Wal.Operation (tid, dep b 4); Wal.Prepare tid; Wal.Commit tid ];
    |]
  in
  let invariants =
    flagged ~reference "hand-built lost operation"
      [| reference.(0); [ Wal.Begin tid; Wal.Prepare tid ] |]
  in
  Helpers.check_bool "global-atomicity flagged" true
    (List.mem "global-atomicity" invariants)

let test_battery_overdraw_on_one_shard () =
  let a = on_shard 0 in
  let logs =
    [|
      [
        Wal.Begin tid;
        Wal.Operation (tid, Op.make ~obj:a ~args:[ Value.int 10_000 ] "withdraw" Value.ok);
        Wal.Commit tid;
      ];
      [];
    |]
  in
  let invariants = flagged ~reference:logs "hand-built overdraw" logs in
  Helpers.check_bool "replay-legality flagged" true
    (List.mem "replay-legality" invariants)

(* The number of crash states each generator yields, pinned: a refactor
   that silently drops states fails here, not only in a CI log line. *)
let test_state_counts_pinned () =
  let r = driven () in
  let count name expected report =
    Helpers.check_bool (Fmt.str "%s clean: %a" name Crash.pp_report report) true
      (Crash.ok report);
    Helpers.check_int (name ^ " states") expected report.Crash.states
  in
  count "append" 8 (sweep Crash.append_points r);
  count "bytes" 218 (sweep Crash.byte_cuts r);
  count "truncate" 305 (sweep truncation r);
  count "upgrade" 305 (sweep (Crash.rewrite ~from:Wal.Codec.v1) r);
  count "upgrade-v2" 305 (sweep (Crash.rewrite ~from:Wal.Codec.v2) r);
  count "flips" 217 (Crash.corruption_sweep r);
  let r = two_shard_recording () in
  let forced = Crash.enumerate ~rebuild:rebuild_sharded (Crash.forced_frontiers r) in
  let bytes = Crash.enumerate ~rebuild:rebuild_sharded (Crash.byte_cuts r) in
  count "2-shard forced" 10 forced;
  count "2-shard bytes" 513 bytes;
  Helpers.check_int "cross-shard txns" 2 bytes.Crash.cross_txns;
  Helpers.check_int "evidence checks" 28
    (forced.Crash.evidence_checked + bytes.Crash.evidence_checked)

(* --- escrow in the battery: a counter on one shard, an account on the
   other, and transfers between them, so some commits are 2PC --- *)

let stock_spec =
  let module Stock = Tm_adt.Bounded_counter.Make (struct
    let capacity = 20
    let initial = 10
    let name = "CTR"
  end) in
  Stock.spec

let till =
  let ctr = SD.home_shard ~shards:2 "CTR" in
  List.find
    (fun n -> SD.home_shard ~shards:2 n <> ctr)
    (List.init 8 (Fmt.str "BA%d"))

let rebuild_escrow () =
  [
    Atomic_object.create_escrow ~spec:stock_spec ~capacity:20;
    Atomic_object.create ~spec:(Spec.rename (BA.spec_with_initial 100) till)
      ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ();
  ]

(* A local restock, a sale and a restock across the shards, a global
   checkpoint, an aborted sale and a sale left in flight. *)
let drive_escrow db =
  let inv name n = Op.invocation ~args:[ Value.int n ] name in
  let txn ops =
    let t = SD.begin_txn db in
    List.iter
      (fun (obj, i) ->
        match SD.invoke db t ~obj i with
        | Atomic_object.Executed _ -> ()
        | o -> Alcotest.failf "%s: %a" obj Atomic_object.pp_outcome o)
      ops;
    t
  in
  let sell n = [ ("CTR", inv "decr" n); (till, inv "deposit" n) ] in
  let restock n = [ (till, inv "withdraw" n); ("CTR", inv "incr" n) ] in
  Helpers.check_bool "local restock" true
    (SD.try_commit db (txn [ ("CTR", inv "incr" 3) ]) = Ok ());
  Helpers.check_bool "cross sale" true (SD.try_commit db (txn (sell 4)) = Ok ());
  Helpers.check_bool "checkpoint" true (SD.checkpoint db);
  SD.abort db (txn (sell 2));
  Helpers.check_bool "cross restock" true (SD.try_commit db (txn (restock 5)) = Ok ());
  ignore (txn (sell 1))

let test_escrow_battery () =
  let r = Crash.of_drive ~shards:2 ~rebuild:rebuild_escrow drive_escrow in
  let count name expected gen =
    let report = Crash.enumerate ~rebuild:rebuild_escrow (gen r) in
    Helpers.check_bool (Fmt.str "%s clean: %a" name Crash.pp_report report) true
      (Crash.ok report);
    Helpers.check_int (name ^ " states") expected report.Crash.states;
    Helpers.check_int (name ^ " cross-shard txns") 2 report.Crash.cross_txns
  in
  count "escrow append" 25 Crash.append_points;
  count "escrow bytes" 576 Crash.byte_cuts

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
    Alcotest.test_case "torture: upgrade whose image outgrows the log" `Quick
      test_torture_upgrade_growing_image;
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
    prop_log_state_matches_records;
    prop_load_matches_full_decode;
    Alcotest.test_case "sharded generators: clean 2-shard drive" `Quick
      test_sharded_clean;
    Alcotest.test_case "sharded rewrites and in-doubt harvest" `Quick
      test_sharded_rewrites_and_in_doubt;
    Alcotest.test_case "2PC analysis: replay state = record walk" `Quick
      test_sharded_analysis_matches_walk;
    Alcotest.test_case "battery flags a lost participant operation" `Quick
      test_battery_missing_participant_op;
    Alcotest.test_case "battery flags an overdraw on one shard" `Quick
      test_battery_overdraw_on_one_shard;
    Alcotest.test_case "generator state counts pinned" `Quick test_state_counts_pinned;
    Alcotest.test_case "escrow counter across shards: battery clean" `Quick
      test_escrow_battery;
  ]
