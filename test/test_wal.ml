(* Crash recovery: the write-ahead log and the durable database.  The key
   property is crash-consistency at every instant — recovering from every
   prefix of a generated log yields exactly the transactions whose commit
   records made it to stable storage, replayed legally in commit order. *)

open Tm_core
module Wal = Tm_engine.Wal
module Shard = Tm_engine.Shard
module Atomic_object = Tm_engine.Atomic_object
module Recovery = Tm_engine.Recovery
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw_inv i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance_inv = Op.invocation "balance"

(* One bank account "BA" behind a durable database. *)
let one_account ?(recovery = Recovery.UIP) () =
  [ Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery () ]

let the_object db = List.hd (Tm_engine.Database.objects (Shard.database db))

(* Recovery now returns a result; tests on well-formed logs expect Ok. *)
let recover_exn = function
  | Ok x -> x
  | Error e -> Alcotest.failf "recovery failed: %a" Recovery.pp_error e

let test_replay_basic () =
  let recs =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 5);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.withdraw_ok 2);
    ]
  in
  let committed, losers = Wal.replay recs in
  Alcotest.check Helpers.ops "committed" [ BA.deposit 5 ] committed;
  Helpers.check_bool "B is a loser" true (Tid.Set.mem Tid.b losers);
  Helpers.check_bool "A is not" false (Tid.Set.mem Tid.a losers)

let test_replay_commit_order () =
  let recs =
    [
      Wal.Operation (Tid.b, BA.deposit 1);
      Wal.Operation (Tid.a, BA.deposit 2);
      Wal.Commit Tid.a;
      Wal.Commit Tid.b;
    ]
  in
  let committed, _ = Wal.replay recs in
  Alcotest.check Helpers.ops "commit order" [ BA.deposit 2; BA.deposit 1 ] committed

let test_replay_abort () =
  let recs =
    [ Wal.Operation (Tid.a, BA.deposit 1); Wal.Abort Tid.a ]
  in
  let committed, losers = Wal.replay recs in
  Alcotest.check Helpers.ops "nothing" [] committed;
  Helpers.check_bool "aborted is not a loser" true (Tid.Set.is_empty losers)

let cp ?(live = []) ?(next_tid = 0) committed =
  { Wal.committed; live; next_tid }

let test_replay_checkpoint () =
  let recs =
    [
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Checkpoint (cp [ BA.deposit 1 ]);
      Wal.Operation (Tid.b, BA.deposit 2);
      Wal.Commit Tid.b;
    ]
  in
  let committed, _ = Wal.replay recs in
  Alcotest.check Helpers.ops "checkpoint + tail" [ BA.deposit 1; BA.deposit 2 ] committed

(* Regression: a transaction in flight at checkpoint time, all of whose
   records precede the checkpoint, must still be reported as a loser —
   the old committed-ops-only checkpoint silently dropped it. *)
let test_checkpoint_keeps_pre_checkpoint_loser () =
  let head =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 3);
      Wal.Begin Tid.b;  (* bare Begin: no operations yet *)
    ]
  in
  let snapshot = Wal.checkpoint_of ~next_tid:0 (Helpers.log_of head) in
  let recs = head @ [ Wal.Checkpoint snapshot ] in
  let committed, losers = Wal.replay recs in
  Alcotest.check Helpers.ops "nothing committed" [] committed;
  Helpers.check_bool "pre-checkpoint in-flight txn is a loser" true
    (Tid.Set.mem Tid.a losers);
  Helpers.check_bool "bare-Begin txn is a loser" true (Tid.Set.mem Tid.b losers)

(* A transaction live at the checkpoint that commits afterwards replays
   its snapshot operations followed by the post-checkpoint ones. *)
let test_checkpoint_live_txn_commits_later () =
  let head = [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 3) ] in
  let recs =
    head
    @ [
        Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Helpers.log_of head));
        Wal.Operation (Tid.a, BA.deposit 4);
        Wal.Commit Tid.a;
      ]
  in
  let committed, losers = Wal.replay recs in
  Alcotest.check Helpers.ops "snapshot ops + tail ops" [ BA.deposit 3; BA.deposit 4 ]
    committed;
  Helpers.check_bool "no losers" true (Tid.Set.is_empty losers)

(* The fuzzy snapshot is faithful: replaying just the checkpoint record
   gives the same outcome as replaying the records it summarises. *)
let test_fuzzy_checkpoint_roundtrip () =
  let recs =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.withdraw_ok 1);
      Wal.Begin Tid.c;
      Wal.Abort Tid.c;
    ]
  in
  let snapshot = Wal.checkpoint_of ~next_tid:0 (Helpers.log_of recs) in
  let c1, l1 = Wal.replay recs in
  let c2, l2 = Wal.replay [ Wal.Checkpoint snapshot ] in
  Alcotest.check Helpers.ops "same committed" c1 c2;
  Helpers.check_bool "same losers" true (Tid.Set.equal l1 l2)

let test_truncate_to_checkpoint () =
  let wal = Wal.create () in
  let reg = Tm_obs.Metrics.create () in
  Wal.attach_metrics wal reg;
  List.iter (Wal.append wal)
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.deposit 2);
    ];
  Wal.append wal (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal));
  Wal.append wal (Wal.Operation (Tid.b, BA.deposit 4));
  Wal.append wal (Wal.Commit Tid.b);
  let before = Wal.replay (Wal.records wal) in
  let dropped = Wal.truncate_to_checkpoint wal in
  Helpers.check_int "records dropped" 5 dropped;
  Helpers.check_int "retained length" 3 (Wal.length wal);
  Helpers.check_int "truncated metric" 5
    (Tm_obs.Metrics.counter_value reg "tm_wal_truncated_records_total");
  let after = Wal.replay (Wal.records wal) in
  Alcotest.check Helpers.ops "replay unchanged" (fst before) (fst after);
  Helpers.check_bool "losers unchanged" true (Tid.Set.equal (snd before) (snd after));
  Helpers.check_int "nothing more to drop" 0 (Wal.truncate_to_checkpoint wal)

let test_max_tid () =
  Helpers.check_bool "empty log" true (Wal.max_tid [] = None);
  let t9 = Tid.of_int 9 in
  Helpers.check_bool "from records" true
    (Wal.max_tid [ Wal.Begin Tid.a; Wal.Begin t9; Wal.Commit Tid.b ] = Some t9);
  (* A checkpoint's high-water mark survives truncation of the records
     that justified it. *)
  Helpers.check_bool "from checkpoint next_tid" true
    (Wal.max_tid [ Wal.Checkpoint (cp ~next_tid:10 []) ] = Some t9);
  Helpers.check_bool "from checkpoint live snapshot" true
    (Wal.max_tid [ Wal.Checkpoint (cp ~live:[ (t9, []) ] []) ] = Some t9)

(* Regression: aborting a transaction that never reached the log must not
   append an Abort record for a tid the log does not know. *)
let test_abort_not_begun_not_logged () =
  let wal = Wal.create () in
  let db = Shard.create ~wal (one_account ()) in
  let t = Shard.begin_txn db in
  Shard.abort db t;  (* begun but never logged: nothing to undo *)
  Helpers.check_int "no record for unlogged txn" 0 (Wal.length wal);
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "a commits" true (Shard.try_commit db a = Ok ());
  let n = Wal.length wal in
  Shard.abort db (Shard.begin_txn db);
  Helpers.check_int "none beside another transaction's records" n (Wal.length wal)

(* Regression: recovery must seed tid allocation above every tid in the
   log, else a post-recovery transaction can reuse a crash loser's tid
   and replay merges their operations. *)
let test_no_tid_reuse_after_recovery () =
  let wal = Wal.create () in
  let db = Shard.create ~wal (one_account ()) in
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  (* crash with [a] in flight *)
  let db', losers = recover_exn (Shard.recover ~wal ~rebuild:one_account ()) in
  Helpers.check_bool "a lost" true (Tid.Set.mem a losers);
  let b = Shard.begin_txn db' in
  Helpers.check_bool "fresh tid after recovery" false (Tid.equal a b);
  ignore (Shard.invoke db' b ~obj:"BA" (deposit_inv 7));
  Helpers.check_bool "b commits" true (Shard.try_commit db' b = Ok ());
  (* second crash: the loser's operations must not ride b's commit *)
  let committed, losers2 = Wal.replay (Wal.records wal) in
  Alcotest.check Helpers.ops "only b's work is durable" [ BA.deposit 7 ] committed;
  Helpers.check_bool "a still a loser" true (Tid.Set.mem a losers2)

(* A mid-run fuzzy checkpoint followed by truncation preserves both the
   loser and the later commit of a transaction spanning the checkpoint. *)
let test_durable_database_truncated_recovery () =
  let wal = Wal.create () in
  let rebuild () =
    [
      Atomic_object.create ~spec:(BA.spec_with_initial 100)
        ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ();
    ]
  in
  let db = Shard.create ~wal (rebuild ()) in
  let a = Shard.begin_txn db and b = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  ignore (Shard.invoke db b ~obj:"BA" (deposit_inv 2));
  Shard.checkpoint db;  (* both a and b in flight *)
  ignore (Shard.invoke db b ~obj:"BA" (deposit_inv 4));
  Helpers.check_bool "b commits" true (Shard.try_commit db b = Ok ());
  ignore (Wal.truncate_to_checkpoint wal);
  let db', losers = recover_exn (Shard.recover ~wal ~rebuild ()) in
  Helpers.check_bool "a lost" true (Tid.Set.mem a losers);
  Helpers.check_bool "b not lost" false (Tid.Set.mem b losers);
  let o = List.hd (Tm_engine.Database.objects (Shard.database db')) in
  Alcotest.check Helpers.ops "b's pre- and post-checkpoint ops survive"
    [ BA.deposit 2; BA.deposit 4 ]
    (Atomic_object.committed_ops o)

let test_durable_end_to_end () =
  let wal = Wal.create () in
  let db = Shard.create ~wal (one_account ()) in
  let run db tid inv =
    match Shard.invoke db tid ~obj:"BA" inv with
    | Atomic_object.Executed op -> op
    | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out
  in
  let a = Shard.begin_txn db in
  ignore (run db a (deposit_inv 5));
  Helpers.check_bool "A commits" true (Shard.try_commit db a = Ok ());
  let b = Shard.begin_txn db in
  ignore (run db b (deposit_inv 3));
  (* crash before B commits: log has A's commit only *)
  let recovered, losers = recover_exn (Shard.recover ~wal ~rebuild:one_account ()) in
  Helpers.check_bool "B lost" true (Tid.Set.mem b losers);
  Alcotest.check Helpers.ops "A's work survives" [ BA.deposit 5 ]
    (Atomic_object.committed_ops (the_object recovered));
  (* the recovered object serves correct responses *)
  Alcotest.check Helpers.op "balance 5" (BA.balance 5)
    (run recovered (Shard.begin_txn recovered) balance_inv)

let test_write_ahead_rule () =
  (* The commit record precedes the commit's effects: a log that ends
     exactly at the commit record still recovers the transaction. *)
  let wal = Wal.create () in
  let db = Shard.create ~wal (one_account ()) in
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "A commits" true (Shard.try_commit db a = Ok ());
  let n = Wal.length wal in
  let committed, _ = Wal.replay (Wal.records (Helpers.log_prefix (Wal.records wal) n)) in
  Alcotest.check Helpers.ops "durable at commit record" [ BA.deposit 5 ] committed

(* Crash injection: drive a random multi-transaction workload through a
   durable database over one object, then recover from *every* prefix of
   the log and check (a) replay legality, (b) the committed set matches
   the commit records in the prefix, (c) recovery is idempotent. *)
let crash_injection recovery seed =
  let wal = Wal.create () in
  let rebuild () = one_account ~recovery () in
  let db = Shard.create ~wal (rebuild ()) in
  let rng = Random.State.make [| seed |] in
  let active = ref [] in
  for _ = 1 to 60 do
    if List.length !active < 4 then active := Shard.begin_txn db :: !active;
    match !active with
    | [] -> ()
    | ts -> (
        let t = List.nth ts (Random.State.int rng (List.length ts)) in
        let finish f =
          f t;
          active := List.filter (fun x -> not (Tid.equal x t)) !active
        in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            let inv =
              match Random.State.int rng 3 with
              | 0 -> deposit_inv (1 + Random.State.int rng 2)
              | 1 -> withdraw_inv (1 + Random.State.int rng 2)
              | _ -> balance_inv
            in
            ignore (Shard.invoke db t ~obj:"BA" inv)
        | 6 | 7 ->
            finish (fun t ->
                Helpers.check_bool "locking commit" true (Shard.try_commit db t = Ok ()))
        | 8 -> finish (Shard.abort db)
        | _ -> if Random.State.int rng 4 = 0 then Shard.checkpoint db)
  done;
  let full = Wal.records wal in
  for cut = 0 to List.length full do
    let log = Helpers.log_prefix full cut in
    let committed, _losers = Wal.replay (Wal.records log) in
    (* (a) replay legality *)
    Helpers.check_bool
      (Fmt.str "prefix %d legal" cut)
      true (Spec.legal BA.spec committed);
    (* (b) committed ops = concatenation per commit record *)
    let expected_commits =
      List.filter (function Wal.Commit _ -> true | _ -> false) (Wal.records log)
    in
    let distinct_committed_txns =
      List.sort_uniq Tid.compare
        (List.filter_map (function Wal.Commit t -> Some t | _ -> None) (Wal.records log))
    in
    Helpers.check_int
      (Fmt.str "prefix %d commit records distinct" cut)
      (List.length expected_commits)
      (List.length distinct_committed_txns);
    (* (c) idempotence: recovering twice equals recovering once *)
    let r1, _ = recover_exn (Shard.recover ~wal:log ~rebuild ()) in
    Helpers.check_bool
      (Fmt.str "prefix %d recovered state matches replay" cut)
      true
      (List.equal Op.equal (Atomic_object.committed_ops (the_object r1)) committed)
  done

let test_crash_injection_uip () = crash_injection Recovery.UIP 101
let test_crash_injection_du () = crash_injection Recovery.DU 202

(* Multi-object durability: one commit record covers every object a
   transaction touched — after recovery from any prefix, a transfer is
   visible at both accounts or neither. *)
let test_durable_database_atomic_commitment () =
  let wal = Wal.create () in
  let funded = BA.spec_with_initial 100 in
  let rebuild () =
    List.init 2 (fun i ->
        Atomic_object.create
          ~spec:(Spec.rename funded (Fmt.str "BA%d" i))
          ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ())
  in
  let db = Shard.create ~wal (rebuild ()) in
  (* transfer 30 from BA0 to BA1, committed *)
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA0" (withdraw_inv 30));
  ignore (Shard.invoke db a ~obj:"BA1" (deposit_inv 30));
  Helpers.check_bool "committed" true (Shard.try_commit db a = Ok ());
  (* a second transfer crashes mid-flight *)
  let b = Shard.begin_txn db in
  ignore (Shard.invoke db b ~obj:"BA0" (withdraw_inv 10));
  ignore (Shard.invoke db b ~obj:"BA1" (deposit_inv 10));
  (* crash: recover from every prefix and check the invariant:
     total money is 200 iff both or neither halves of each transfer
     survive; per-object replay is always legal *)
  for cut = 0 to Wal.length wal do
    let log = Helpers.log_prefix (Wal.records wal) cut in
    let db', _losers = recover_exn (Shard.recover ~wal:log ~rebuild ()) in
    let balance obj =
      match Shard.invoke db' (Shard.begin_txn db') ~obj balance_inv with
      | Atomic_object.Executed op -> Value.get_int op.Op.res
      | _ -> Alcotest.fail "balance failed"
    in
    let total = balance "BA0" + balance "BA1" in
    Helpers.check_int (Fmt.str "prefix %d conserves money" cut) 200 total;
    List.iter
      (fun o ->
        Helpers.check_bool
          (Fmt.str "prefix %d replay at %s" cut (Atomic_object.name o))
          true
          (Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o)))
      (Tm_engine.Database.objects (Shard.database db'))
  done

let test_durable_database_validation_abort_logged () =
  let wal = Wal.create () in
  let spec = BA.spec_with_initial 50 in
  let rebuild () =
    [ Atomic_object.create_optimistic ~spec ~conflict:BA.nfc_conflict ]
  in
  let db = Shard.create ~wal (rebuild ()) in
  let a = Shard.begin_txn db and b = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (withdraw_inv 10));
  ignore (Shard.invoke db b ~obj:"BA" (withdraw_inv 10));
  Helpers.check_bool "A commits" true (Shard.try_commit db a = Ok ());
  Helpers.check_bool "B fails validation" true (Shard.try_commit db b <> Ok ());
  let db', _ = recover_exn (Shard.recover ~wal ~rebuild ()) in
  let o = List.hd (Tm_engine.Database.objects (Shard.database db')) in
  Alcotest.check Helpers.ops "only A's withdrawal durable" [ BA.withdraw_ok 10 ]
    (Atomic_object.committed_ops o)

(* --- the staged durability pipeline: LSNs, the flushed watermark and
   the group-commit combiner --- *)

let counting_sink () =
  let forces = ref 0 in
  ( {
      Wal.sink_append = (fun _ -> ());
      sink_force = (fun () -> incr forces);
      sink_attach = (fun _ -> ());
      sink_records = (fun () -> []);
      sink_tail = (fun () -> "");
      sink_truncate = (fun () -> 0);
    },
    forces )

let test_lsn_monotone_sinkless_durable () =
  let wal = Wal.create () in
  Helpers.check_int "empty log" 0 (Wal.last_lsn wal);
  Wal.append wal (Wal.Begin Tid.a);
  Helpers.check_int "lsn counts appends" 1 (Wal.last_lsn wal);
  Wal.append wal (Wal.Operation (Tid.a, BA.deposit 1));
  Wal.append wal (Wal.Commit Tid.a);
  Helpers.check_int "lsn 3" 3 (Wal.last_lsn wal);
  (* a sink-less log's stable storage is the list itself *)
  Helpers.check_int "durable by fiat" 3 (Wal.flushed_lsn wal);
  Wal.force_upto wal 3 (* and the barrier is a non-blocking no-op *)

let test_force_upto_batches_commits () =
  let wal = Wal.create () in
  let reg = Tm_obs.Metrics.create () in
  Wal.attach_metrics wal reg;
  let sink, forces = counting_sink () in
  Wal.set_sink wal sink;
  List.iter (Wal.append wal)
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.deposit 2);
      Wal.Commit Tid.b;
    ];
  Helpers.check_int "nothing certified before a force" 0 (Wal.flushed_lsn wal);
  let lsn = Wal.last_lsn wal in
  Wal.force_upto wal lsn;
  Helpers.check_int "one barrier covers the whole batch" 1 !forces;
  Helpers.check_int "watermark at the end" lsn (Wal.flushed_lsn wal);
  (* already durable: asking again must not hit the device *)
  Wal.force_upto wal lsn;
  Wal.force_upto wal 1;
  Helpers.check_int "no futile barrier" 1 !forces;
  List.iter (Wal.append wal) [ Wal.Begin Tid.c; Wal.Commit Tid.c ];
  Wal.force wal;
  Helpers.check_int "second batch, second barrier" 2 !forces;
  Helpers.check_int "tm_wal_forces_total counts device barriers" 2
    (Tm_obs.Metrics.counter_value reg "tm_wal_forces_total");
  Helpers.check_int "tm_wal_group_commits_total" 2
    (Tm_obs.Metrics.counter_value reg "tm_wal_group_commits_total");
  let h = Tm_obs.Metrics.histogram reg "tm_wal_group_commit_batch" in
  Helpers.check_int "two batches observed" 2 (Tm_obs.Metrics.Histogram.count h);
  Helpers.check_bool "batch sizes 2 then 1" true
    (Tm_obs.Metrics.Histogram.sum h = 3.)

let test_set_sink_marks_existing_durable () =
  (* Records present before the sink attaches came *from* the device
     (Disk_wal.load): attaching must not schedule them for re-flushing. *)
  let wal = Wal.create () in
  List.iter (Wal.append wal) [ Wal.Begin Tid.a; Wal.Commit Tid.a ];
  let sink, forces = counting_sink () in
  Wal.set_sink wal sink;
  Helpers.check_int "pre-sink records already durable" 2 (Wal.flushed_lsn wal);
  Wal.force wal;
  Helpers.check_int "no barrier needed" 0 !forces

let test_failed_flush_leaves_combiner_usable () =
  let wal = Wal.create () in
  let calls = ref 0 in
  let sink =
    {
      Wal.sink_append = (fun _ -> ());
      sink_force =
        (fun () ->
          incr calls;
          if !calls = 1 then failwith "device hiccup");
      sink_attach = (fun _ -> ());
      sink_records = (fun () -> []);
      sink_tail = (fun () -> "");
      sink_truncate = (fun () -> 0);
    }
  in
  Wal.set_sink wal sink;
  Wal.append wal (Wal.Begin Tid.a);
  (match Wal.force wal with
  | () -> Alcotest.fail "barrier failure must propagate"
  | exception Failure _ -> ());
  Helpers.check_int "watermark unmoved by the failed flush" 0 (Wal.flushed_lsn wal);
  (* the combiner's busy flag must have been cleared *)
  Wal.force wal;
  Helpers.check_int "second attempt certifies" 1 (Wal.flushed_lsn wal);
  Helpers.check_int "device asked twice" 2 !calls

let suite =
  [
    Alcotest.test_case "replay basic" `Quick test_replay_basic;
    Alcotest.test_case "replay commit order" `Quick test_replay_commit_order;
    Alcotest.test_case "replay abort" `Quick test_replay_abort;
    Alcotest.test_case "replay checkpoint" `Quick test_replay_checkpoint;
    Alcotest.test_case "checkpoint keeps pre-checkpoint loser" `Quick
      test_checkpoint_keeps_pre_checkpoint_loser;
    Alcotest.test_case "checkpoint live txn commits later" `Quick
      test_checkpoint_live_txn_commits_later;
    Alcotest.test_case "fuzzy checkpoint round-trip" `Quick
      test_fuzzy_checkpoint_roundtrip;
    Alcotest.test_case "truncate to checkpoint" `Quick test_truncate_to_checkpoint;
    Alcotest.test_case "max tid" `Quick test_max_tid;
    Alcotest.test_case "abort of unknown txn not logged" `Quick
      test_abort_not_begun_not_logged;
    Alcotest.test_case "no tid reuse after recovery" `Quick
      test_no_tid_reuse_after_recovery;
    Alcotest.test_case "recovery from truncated log" `Quick
      test_durable_database_truncated_recovery;
    Alcotest.test_case "durable end-to-end" `Quick test_durable_end_to_end;
    Alcotest.test_case "write-ahead rule" `Quick test_write_ahead_rule;
    Alcotest.test_case "crash injection (UIP)" `Slow test_crash_injection_uip;
    Alcotest.test_case "crash injection (DU)" `Slow test_crash_injection_du;
    Alcotest.test_case "multi-object atomic commitment" `Quick
      test_durable_database_atomic_commitment;
    Alcotest.test_case "validation abort logged" `Quick
      test_durable_database_validation_abort_logged;
    Alcotest.test_case "LSNs monotone, sink-less durable by fiat" `Quick
      test_lsn_monotone_sinkless_durable;
    Alcotest.test_case "force_upto batches commits" `Quick
      test_force_upto_batches_commits;
    Alcotest.test_case "set_sink marks existing records durable" `Quick
      test_set_sink_marks_existing_durable;
    Alcotest.test_case "failed flush leaves combiner usable" `Quick
      test_failed_flush_leaves_combiner_usable;
  ]
