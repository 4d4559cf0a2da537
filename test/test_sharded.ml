(* The sharded engine: router + cross-shard two-phase commit.

   Unit tests pin the 2PC building blocks — the in-doubt analysis
   (Two_phase), presumed-abort resolution at recovery, prepare-failure
   rollback, shard-stamped frames — and the QCheck property establishes
   the refinement the whole refactor hangs on: a workload pushed through
   [Sharded_database] (one shard, or several shards on disjoint keys)
   commits exactly the state one unsharded [Shard] commits
   under the same script. *)

open Tm_core
module Wal = Tm_engine.Wal
module Wal_inspect = Tm_engine.Wal_inspect
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module Atomic_object = Tm_engine.Atomic_object
module Recovery = Tm_engine.Recovery
module Shard = Tm_engine.Shard
module SD = Tm_engine.Sharded_database
module Two_phase = Tm_engine.Two_phase
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw_inv i = Op.invocation ~args:[ Value.int i ] "withdraw"

(* A completed deposit on a named object — for hand-built logs, where
   the op's [obj] field is what routes it to its object at replay. *)
let dep_on name i = Op.make ~obj:name ~args:[ Value.int i ] "deposit" Value.ok

let account name =
  Atomic_object.create
    ~spec:(Spec.rename (BA.spec_with_initial 1_000) name)
    ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ()

(* Object names routed to each of [n] shards: probe "BA<i>" until every
   shard has one.  The router is [SD.home_shard], so the test
   never hard-codes the hash. *)
let names_per_shard n =
  let found = Array.make n None in
  let remaining = ref n in
  let i = ref 0 in
  while !remaining > 0 do
    let name = Fmt.str "BA%d" !i in
    let s = SD.home_shard ~shards:n name in
    if found.(s) = None then begin
      found.(s) <- Some name;
      decr remaining
    end;
    incr i
  done;
  Array.map Option.get found

let committed_by_name objs =
  List.map (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o)) objs
  |> List.sort compare

(* --- shard-stamped frames (satellite: v2 shard id end to end) --- *)

let test_mixed_shard_roundtrip () =
  (* A dump interleaving three shards' frames: the histogram sees all
     three, and select_shard slices each shard's records back out
     byte-identically. *)
  let rec_of i = Wal.Begin (Tid.of_int i) in
  let frames =
    [ (0, rec_of 0); (7, rec_of 1); (0, rec_of 2); (3, rec_of 3); (7, rec_of 4) ]
  in
  let bytes =
    String.concat ""
      (List.map (fun (s, r) -> Wal.Codec.encode ~shard:s r) frames)
  in
  let summary = Wal_inspect.inspect bytes in
  Alcotest.(check (list (pair int int)))
    "by_shard histogram" [ (0, 2); (3, 1); (7, 2) ]
    summary.Wal_inspect.by_shard;
  List.iter
    (fun s ->
      let sliced = Wal_inspect.select_shard bytes s in
      let expect =
        String.concat ""
          (List.filter_map
             (fun (s', r) ->
               if s' = s then Some (Wal.Codec.encode ~shard:s r) else None)
             frames)
      in
      Alcotest.(check string) (Fmt.str "slice shard %d" s) expect sliced)
    [ 0; 3; 7 ];
  Alcotest.(check string) "absent shard slices empty" ""
    (Wal_inspect.select_shard bytes 5)

let test_disk_wal_stamps_shard () =
  let store = Storage.memory () in
  let dw = Disk_wal.create ~shard:3 store in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5); Wal.Commit Tid.a ];
  Wal.force wal;
  let summary = Wal_inspect.inspect (Storage.read_all store) in
  Alcotest.(check (list (pair int int)))
    "every frame stamped shard 3" [ (3, 3) ] summary.Wal_inspect.by_shard;
  (* Reload: the records round-trip and the shard id is forensic, not a
     filter — load accepts the stamped log and re-stamps its appends. *)
  match Disk_wal.load ~shard:3 store with
  | Error c -> Alcotest.failf "load refused: %a" Wal.Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_int "shard accessor" 3 (Disk_wal.shard dw2);
      Helpers.check_int "records survive" 3 (Wal.length (Disk_wal.wal dw2))

(* --- Two_phase analysis --- *)

(* The resolutions of hand-written logs, read from their replay states. *)
let analyze logs = Two_phase.analyze (Array.map Wal.of_records logs)

let on_shard s rs = List.filter (fun (r : Two_phase.resolution) -> r.shard = s) rs

(* A prepared transaction with no surviving decision or completion is
   in doubt on every participant and resolves to abort. *)
let presumed_abort_logs =
  [|
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Prepare Tid.a ];
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 2); Wal.Prepare Tid.a ];
  |]

let test_analyze_presumed_abort () =
  let rs = analyze presumed_abort_logs in
  List.iter
    (fun s ->
      match on_shard s rs with
      | [ { Two_phase.tid; commit; evidence; _ } ] ->
          Helpers.check_bool "tid" true (Tid.equal tid Tid.a);
          Helpers.check_bool "presumed abort" false commit;
          Helpers.check_bool "no witness" true (evidence = Two_phase.Presumed)
      | rs -> Alcotest.failf "shard %d: %d resolutions" s (List.length rs))
    [ 0; 1 ]

(* The coordinator's forced Decision{commit} is global commit evidence:
   every shard's in-doubt Prepare resolves to commit. *)
let decision_commits_logs =
  [|
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Prepare Tid.a;
      Wal.Decision { tid = Tid.a; commit = true };
    ];
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 2); Wal.Prepare Tid.a ];
  |]

let test_analyze_decision_commits () =
  let rs = analyze decision_commits_logs in
  List.iter
    (fun s ->
      match on_shard s rs with
      | [ { Two_phase.commit; _ } ] ->
          Helpers.check_bool (Fmt.str "shard %d commits" s) true commit
      | rs -> Alcotest.failf "shard %d: %d resolutions" s (List.length rs))
    [ 0; 1 ]

(* A phase-2 Commit that survived on one participant proves the
   decision even if the Decision record itself was lost. *)
let peer_commit_logs =
  [|
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Prepare Tid.a; Wal.Commit Tid.a ];
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 2); Wal.Prepare Tid.a ];
  |]

(* An ordinary single-shard Commit (never prepared) is not 2PC evidence
   for anything, not even for its own tid prepared on a peer. *)
let unrelated_commit_logs =
  [|
    [ Wal.Begin Tid.b; Wal.Commit Tid.b; Wal.Begin Tid.a; Wal.Commit Tid.a ];
    [ Wal.Begin Tid.a; Wal.Prepare Tid.a ];
  |]

let test_analyze_peer_commit_is_evidence () =
  let rs = analyze peer_commit_logs in
  Helpers.check_bool "resolved shard not in doubt" true (on_shard 0 rs = []);
  (match on_shard 1 rs with
  | [ { Two_phase.commit; _ } ] -> Helpers.check_bool "commit" true commit
  | rs -> Alcotest.failf "%d resolutions" (List.length rs));
  let wals = Array.map Wal.of_records unrelated_commit_logs in
  Helpers.check_bool "unrelated commit is no evidence" true
    (not (Wal.phase2 wals.(0) Tid.a || Wal.commit_evidence wals.(0) Tid.b));
  match Two_phase.analyze wals with
  | [ { Two_phase.commit = false; evidence = Two_phase.Presumed; _ } ] -> ()
  | rs -> Alcotest.failf "%d resolutions, or not a presumed abort" (List.length rs)

let abort_decision_logs =
  [| [ Wal.Prepare Tid.a; Wal.Decision { tid = Tid.a; commit = false } ]; [ Wal.Prepare Tid.a ] |]

let test_analyze_abort_decision () =
  match on_shard 1 (analyze abort_decision_logs) with
  | [ { Two_phase.commit; _ } ] -> Helpers.check_bool "abort" false commit
  | rs -> Alcotest.failf "%d resolutions" (List.length rs)

(* --- the live engine --- *)

let mk_sharded n =
  let wals = Array.init n (fun _ -> Wal.create ()) in
  let names = names_per_shard n in
  let objs = Array.to_list (Array.map account names) in
  (SD.create ~wals objs, wals, names)

let test_cross_shard_commit () =
  let db, wals, names = mk_sharded 2 in
  let t = SD.begin_txn db in
  ignore (SD.invoke db t ~obj:names.(0) (deposit_inv 5));
  ignore (SD.invoke db t ~obj:names.(1) (withdraw_inv 7));
  Helpers.check_bool "commits" true (SD.try_commit db t = Ok ());
  Helpers.check_int "committed count" 1 (SD.committed_count db);
  (* Both shards installed their halves. *)
  Helpers.check_int "shard 0 ops" 1
    (List.length (Atomic_object.committed_ops (SD.find_object db names.(0))));
  Helpers.check_int "shard 1 ops" 1
    (List.length (Atomic_object.committed_ops (SD.find_object db names.(1))));
  (* The protocol footprint: Prepare on both logs, exactly one Decision,
     on the coordinator (lowest participant shard). *)
  let count kind recs =
    List.length
      (List.filter (fun r -> Wal.record_kind r = kind) recs)
  in
  Array.iteri
    (fun s wal ->
      Helpers.check_int (Fmt.str "prepare on shard %d" s) 1
        (count "prepare" (Wal.records wal)))
    wals;
  Helpers.check_int "one decision, on the coordinator" 1
    (count "decision" (Wal.records wals.(0)));
  Helpers.check_int "no decision on the participant" 0
    (count "decision" (Wal.records wals.(1)));
  let m = SD.metrics db in
  Helpers.check_int "prepares metric" 2
    (Metrics.counter_value m "tm_2pc_prepares_total");
  Helpers.check_int "cross metric" 1
    (Metrics.counter_value m "tm_shard_cross_txn_total")

let test_prepare_failure_aborts_everywhere () =
  (* An optimistic object validates at prepare time: a conflicting
     writer that slips between execute and prepare fails the vote, and
     the rollback must reach every participant — including the shard
     that already voted yes. *)
  let n = 2 in
  let names = names_per_shard n in
  let opt_name = names.(1) in
  let objs =
    [
      account names.(0);
      Atomic_object.create_optimistic
        ~spec:(Spec.rename (BA.spec_with_initial 1_000) opt_name)
        ~conflict:BA.nfc_conflict;
    ]
  in
  let wals = Array.init n (fun _ -> Wal.create ()) in
  let db = SD.create ~wals objs in
  let t = SD.begin_txn db in
  ignore (SD.invoke db t ~obj:names.(0) (deposit_inv 5));
  ignore (SD.invoke db t ~obj:opt_name (withdraw_inv 7));
  (* The interloper invalidates t's read set on the optimistic shard. *)
  let u = SD.begin_txn db in
  ignore (SD.invoke db u ~obj:opt_name (withdraw_inv 900));
  Helpers.check_bool "interloper commits" true (SD.try_commit db u = Ok ());
  (match SD.try_commit db t with
  | Ok () -> Alcotest.fail "t must fail validation"
  | Error _ -> ());
  (* Nothing of t survives anywhere: the yes-voter rolled back too. *)
  let ops0 = Atomic_object.committed_ops (SD.find_object db names.(0)) in
  Helpers.check_int "yes-voter rolled back" 0 (List.length ops0);
  let m = SD.metrics db in
  Helpers.check_int "prepare-phase abort counted" 1
    (Metrics.counter_value m "tm_2pc_aborts_total"
       ~labels:[ ("phase", "prepare") ]);
  (* The logs hold no decision for t — presumed abort needs none. *)
  Array.iter
    (fun wal ->
      Helpers.check_bool "no decision logged" true
        (List.for_all
           (fun r -> Wal.record_kind r <> "decision")
           (Wal.records wal)))
    wals

let test_checkpoint_when_idle () =
  let db, _, names = mk_sharded 2 in
  let t = SD.begin_txn db in
  ignore (SD.invoke db t ~obj:names.(0) (deposit_inv 5));
  ignore (SD.invoke db t ~obj:names.(1) (deposit_inv 6));
  Helpers.check_bool "commits" true (SD.try_commit db t = Ok ());
  Helpers.check_bool "checkpoint taken when no 2PC in flight" true
    (SD.checkpoint db)

(* The replay state forgets 2PC at a checkpoint, which is sound only
   because no checkpoint is taken while a cross-shard commit is between
   its prepares and its completion.  A participant's prepare force asks
   for one; it must be refused.  The checkpoint runs on another thread:
   this one is its shard's flusher, so a checkpoint that went ahead and
   forced the shard would wait for it.  The wait here is bounded, so
   such a checkpoint fails the test (returning [true] late) instead of
   hanging it. *)
let test_checkpoint_refused_during_prepare () =
  let n = 2 in
  let names = names_per_shard n in
  let db = ref None and armed = ref false in
  let answer = Atomic.make None and checkpointer = ref None in
  let on_force () =
    if !armed then begin
      armed := false;
      checkpointer :=
        Some
          (Thread.create
             (fun db -> Atomic.set answer (Some (SD.checkpoint db)))
             (Option.get !db));
      let deadline = Unix.gettimeofday () +. 2.0 in
      while Atomic.get answer = None && Unix.gettimeofday () < deadline do
        Thread.delay 0.001
      done
    end
  in
  let wals =
    Array.init n (fun s ->
        let store = Storage.memory () in
        let store = if s = 1 then Storage.probe ~on_force store else store in
        Disk_wal.wal (Disk_wal.create ~shard:s store))
  in
  let sd = SD.create ~wals (Array.to_list (Array.map account names)) in
  db := Some sd;
  let t = SD.begin_txn sd in
  ignore (SD.invoke sd t ~obj:names.(0) (deposit_inv 5));
  ignore (SD.invoke sd t ~obj:names.(1) (deposit_inv 6));
  armed := true;
  Helpers.check_bool "cross-shard commit" true (SD.try_commit sd t = Ok ());
  (match !checkpointer with
  | None -> Alcotest.fail "the participant's prepare was never forced"
  | Some th -> Thread.join th);
  Alcotest.(check (option bool))
    "checkpoint during the prepare force" (Some false) (Atomic.get answer);
  Helpers.check_bool "checkpoint proceeds once the commit completed" true
    (SD.checkpoint sd)

(* --- recovery-time in-doubt resolution on the real engine --- *)

let recover_names n wals =
  let names = names_per_shard n in
  let rebuild () = Array.to_list (Array.map account names) in
  match SD.recover ~wals ~rebuild () with
  | Error e -> Alcotest.failf "recover refused: %a" Recovery.pp_error e
  | Ok (db, losers) -> (db, losers, names)

let test_recover_in_doubt_commits_with_evidence () =
  let n = 2 in
  let names = names_per_shard n in
  let tid = Tid.of_int 0 in
  let wals = Array.init n (fun _ -> Wal.create ()) in
  (* Crash after the forced Decision but before any completion. *)
  List.iter (Wal.append wals.(0))
    [
      Wal.Begin tid;
      Wal.Operation (tid, dep_on names.(0) 5);
      Wal.Prepare tid;
      Wal.Decision { tid; commit = true };
    ];
  List.iter (Wal.append wals.(1))
    [ Wal.Begin tid; Wal.Operation (tid, dep_on names.(1) 7); Wal.Prepare tid ];
  let db, losers, names = recover_names n wals in
  ignore names;
  Helpers.check_bool "not a loser" false (Tid.Set.mem tid losers);
  Array.iteri
    (fun s wal ->
      let got =
        List.concat_map
          (fun o -> Atomic_object.committed_ops o)
          (Tm_engine.Database.objects
             (Shard.database (SD.shards db).(s)))
      in
      Helpers.check_int (Fmt.str "shard %d installed the op" s) 1
        (List.length got);
      (* Resolution wrote a real outcome: recovering the same logs again
         finds nothing in doubt. *)
      ignore wal)
    wals;
  Helpers.check_bool "nothing left in doubt" true (Two_phase.analyze wals = [])

let test_recover_in_doubt_presumed_abort () =
  let n = 2 in
  let names = names_per_shard n in
  let tid = Tid.of_int 0 in
  let wals = Array.init n (fun _ -> Wal.create ()) in
  (* Crash between the prepares and the decision: no evidence anywhere. *)
  List.iter (Wal.append wals.(0))
    [ Wal.Begin tid; Wal.Operation (tid, dep_on names.(0) 5); Wal.Prepare tid ];
  List.iter (Wal.append wals.(1))
    [ Wal.Begin tid; Wal.Operation (tid, dep_on names.(1) 7); Wal.Prepare tid ];
  let db, losers, _names = recover_names n wals in
  (* Resolution wrote a real Abort record per participant before the
     replay, so the transaction is an explicit abort there — not a
     torn-off crash loser — and a second recovery finds nothing in
     doubt. *)
  Helpers.check_bool "not a replay loser (explicitly aborted)" false
    (Tid.Set.mem tid losers);
  List.iter
    (fun o ->
      Helpers.check_int
        (Fmt.str "%s committed nothing" (Atomic_object.name o))
        0
        (List.length (Atomic_object.committed_ops o)))
    (SD.objects db);
  let m = SD.metrics db in
  (* One resolution per in-doubt participant: both shards held a
     dangling Prepare. *)
  Helpers.check_int "recovery aborts counted per participant" 2
    (Metrics.counter_value m "tm_2pc_aborts_total"
       ~labels:[ ("phase", "recovery") ]);
  Helpers.check_bool "nothing left in doubt" true (Two_phase.analyze wals = [])

(* A sharded restart reads each stored byte once, in [Disk_wal.load]:
   resolving the in-doubt prepare reads the loaded logs' replay states,
   so the bytes below the logs' end may be gone by then. *)
let test_restart_reads_each_log_once () =
  let n = 2 in
  let names = names_per_shard n in
  let tid = Tid.of_int 1 in
  let stores = Array.init n (fun _ -> Storage.memory ()) in
  let logs =
    [|
      [
        Wal.Operation (Tid.of_int 0, dep_on names.(0) 3);
        Wal.Commit (Tid.of_int 0);
        Wal.Operation (tid, dep_on names.(0) 5);
        Wal.Prepare tid;
        Wal.Decision { tid; commit = true };
      ];
      [ Wal.Operation (tid, dep_on names.(1) 7); Wal.Prepare tid; Wal.Operation (Tid.of_int 2, dep_on names.(1) 1) ];
    |]
  in
  Array.iteri
    (fun s recs ->
      let wal = Disk_wal.wal (Disk_wal.create ~shard:s stores.(s)) in
      List.iter (Wal.append wal) recs;
      Wal.force wal)
    logs;
  let recover ~damage =
    let dws =
      Array.mapi
        (fun s store ->
          match Disk_wal.load ~shard:s (Storage.of_string (Storage.read_all store)) with
          | Ok dw -> dw
          | Error c -> Alcotest.failf "load refused: %a" Wal.Codec.pp_corruption c)
        stores
    in
    if damage then
      Array.iter
        (fun dw ->
          let store = Disk_wal.storage dw in
          Storage.write_at store ~pos:0 (String.make (Storage.size store) '\xff'))
        dws;
    let audit = ref [] in
    match
      SD.recover ~audit:(fun rs -> audit := rs) ~wals:(Array.map Disk_wal.wal dws)
        ~rebuild:(fun () -> Array.to_list (Array.map account names))
        ()
    with
    | Error e -> Alcotest.failf "recover refused: %a" Recovery.pp_error e
    | Ok (db, losers) -> (!audit, committed_by_name (SD.objects db), Tid.Set.elements losers)
  in
  let resolutions, committed, losers = recover ~damage:false in
  Helpers.check_int "the prepare is in doubt on both shards" 2 (List.length resolutions);
  Helpers.check_bool "resolved by the decision" true
    (List.for_all (fun (r : Two_phase.resolution) -> r.commit) resolutions);
  let resolutions', committed', losers' = recover ~damage:true in
  Helpers.check_bool "same resolutions" true (resolutions' = resolutions);
  Alcotest.(check (list (pair string (list Helpers.op)))) "same recovered state" committed committed';
  Alcotest.(check (list Helpers.tid)) "same losers" losers losers'

(* --- resolution events: the structured audit trail --- *)

let evidence_kinds_logs =
  [|
    (* a: in doubt here, the Decision survives on shard 1 *)
    [ Wal.Prepare Tid.a ];
    [ Wal.Prepare Tid.a; Wal.Decision { tid = Tid.a; commit = true } ];
    (* b: in doubt here, a peer's phase-2 Commit survives on shard 3 *)
    [ Wal.Prepare Tid.b ];
    [ Wal.Prepare Tid.b; Wal.Commit Tid.b ];
    (* c: no evidence anywhere — presumed abort *)
    [ Wal.Prepare Tid.c ];
  |]

let test_resolution_events_evidence_kinds () =
  let evs = analyze evidence_kinds_logs in
  (* shards 0, 1 (its own prepare has no local outcome either), 2, 4 *)
  Helpers.check_int "event count" 4 (List.length evs);
  let find shard = List.find (fun (e : Two_phase.resolution) -> e.shard = shard) evs in
  let e0 = find 0 in
  Helpers.check_bool "decision evidence commits" true
    (e0.commit && e0.evidence = Two_phase.Decision_record);
  let e2 = find 2 in
  Helpers.check_bool "phase-2 evidence commits" true
    (e2.commit && e2.evidence = Two_phase.Phase2_record);
  let e4 = find 4 in
  Helpers.check_bool "no evidence presumes abort" true
    ((not e4.commit) && e4.evidence = Two_phase.Presumed)

(* Several votes on one shard: a completed one leaves the middle of the
   in-doubt order, a phase-2 Abort is evidence too, and a repeated
   Prepare is listed once. *)
let ordering_logs =
  [|
    [
      Wal.Prepare Tid.a;
      Wal.Prepare Tid.b;
      Wal.Prepare Tid.c;
      Wal.Commit Tid.b;
      Wal.Prepare Tid.a;
      Wal.Abort Tid.c;
      Wal.Prepare Tid.d;
    ];
    [ Wal.Prepare Tid.b; Wal.Prepare Tid.c; Wal.Prepare Tid.d; Wal.Decision { tid = Tid.d; commit = true } ];
  |]

let test_analyze_matches_record_walk () =
  let resolved =
    List.fold_left
      (fun n (label, logs) -> n + Two_phase_reference.check label logs)
      0
      [
        ("presumed abort", presumed_abort_logs);
        ("decision commits", decision_commits_logs);
        ("peer commit", peer_commit_logs);
        ("unrelated commit", unrelated_commit_logs);
        ("abort decision", abort_decision_logs);
        ("evidence kinds", evidence_kinds_logs);
        ("ordering", ordering_logs);
      ]
  in
  Helpers.check_int "resolutions compared" 17 resolved;
  Alcotest.(check (list string))
    "in-doubt order"
    [ "shard 0 A->abort (presumed)"; "shard 0 D->commit (decision)"; "shard 1 B->commit (phase2)";
      "shard 1 C->abort (phase2)"; "shard 1 D->commit (decision)" ]
    (List.map (Fmt.str "%a" Two_phase_reference.pp_resolution) (analyze ordering_logs))

let test_resolution_idempotent_after_recovery () =
  let n = 2 in
  let names = names_per_shard n in
  let tid = Tid.of_int 0 in
  let wals = Array.init n (fun _ -> Wal.create ()) in
  List.iter (Wal.append wals.(0))
    [
      Wal.Begin tid;
      Wal.Operation (tid, dep_on names.(0) 5);
      Wal.Prepare tid;
      Wal.Decision { tid; commit = true };
    ];
  List.iter (Wal.append wals.(1))
    [ Wal.Begin tid; Wal.Operation (tid, dep_on names.(1) 7); Wal.Prepare tid ];
  let rebuild () = Array.to_list (Array.map account names) in
  let first = ref [] in
  (match SD.recover ~audit:(fun evs -> first := evs) ~wals ~rebuild () with
  | Error e -> Alcotest.failf "recover refused: %a" Recovery.pp_error e
  | Ok (db, _) ->
      Helpers.check_int "resolved commits counted" 2
        (Metrics.counter_value (SD.metrics db)
           ~labels:[ ("evidence", "decision"); ("outcome", "commit") ]
           "tm_2pc_resolved_total"));
  Helpers.check_int "first recovery audits both dangling prepares" 2
    (List.length !first);
  List.iter
    (fun (e : Two_phase.resolution) ->
      Helpers.check_bool "decision evidence, commit outcome" true
        (e.commit && e.evidence = Two_phase.Decision_record))
    !first;
  (* Recovery appended real outcomes, so re-analyzing the same logs — or
     recovering them again — finds nothing in doubt and audits nothing. *)
  Helpers.check_bool "re-analysis emits no events" true (Two_phase.analyze wals = []);
  let second = ref None in
  (match SD.recover ~audit:(fun evs -> second := Some evs) ~wals ~rebuild () with
  | Error e -> Alcotest.failf "second recover refused: %a" Recovery.pp_error e
  | Ok (db, _) ->
      Helpers.check_int "second recovery resolves nothing" 0
        (Metrics.counter_value (SD.metrics db)
           ~labels:[ ("evidence", "decision"); ("outcome", "commit") ]
           "tm_2pc_resolved_total"));
  Helpers.check_bool "second audit trail is empty" true (!second = Some [])

(* --- the shared trace recorder: 2PC spans with one logical clock --- *)

let test_sharded_trace_spans () =
  let db, _wals, names = mk_sharded 2 in
  let tr = Trace.create () in
  SD.set_trace db tr;
  let t = SD.begin_txn db in
  ignore (SD.invoke db t ~obj:names.(0) (deposit_inv 5));
  ignore (SD.invoke db t ~obj:names.(1) (deposit_inv 7));
  Helpers.check_bool "commits" true (SD.try_commit db t = Ok ());
  let events = Trace.events tr in
  let of_kind name =
    List.filter (fun e -> Trace.kind_name e.Trace.kind = name) events
  in
  Helpers.check_int "a prepare append per participant" 2
    (List.length (of_kind "prepare_append"));
  Helpers.check_int "a durable prepare per participant" 2
    (List.length (of_kind "prepare_force"));
  Helpers.check_int "exactly one decision" 1
    (List.length (of_kind "decision_force"));
  Helpers.check_int "a completion per participant" 2
    (List.length (of_kind "completion"));
  (* one shared clock across shards: every durable prepare precedes the
     decision, which precedes every completion *)
  let dec = List.hd (of_kind "decision_force") in
  List.iter
    (fun e ->
      Helpers.check_bool "prepare before decision" true
        (e.Trace.ts < dec.Trace.ts))
    (of_kind "prepare_force");
  List.iter
    (fun e ->
      Helpers.check_bool "completion after decision" true
        (e.Trace.ts > dec.Trace.ts))
    (of_kind "completion");
  (* every 2PC span carries the same global trace id *)
  let gtid_of e =
    match e.Trace.kind with
    | Trace.Prepare_append { gtid; _ }
    | Trace.Prepare_force { gtid; _ }
    | Trace.Decision_force { gtid; _ }
    | Trace.Completion { gtid; _ } -> Some gtid
    | _ -> None
  in
  Helpers.check_bool "one gtid across all spans" true
    (List.sort_uniq compare (List.filter_map gtid_of events) = [ 0 ])

(* --- refinement: sharded == unsharded under the same script --- *)

(* A workload script: per transaction, the objects it touches (indices
   into a fixed name table) with deposit amounts, and whether it commits
   or aborts.  Deposits never fail validation, so both engines accept
   every step and the comparison is exact. *)
let script_gen ~objs =
  QCheck2.Gen.(
    list_size (1 -- 12)
      (pair
         (list_size (1 -- 4) (pair (0 -- (objs - 1)) (1 -- 9)))
         bool))

let run_unsharded names script =
  let wal = Wal.create () in
  let db = Shard.create ~wal (Array.to_list (Array.map account names)) in
  List.iter
    (fun (touches, commit) ->
      let t = Shard.begin_txn db in
      List.iter
        (fun (i, amt) ->
          ignore (Shard.invoke db t ~obj:names.(i) (deposit_inv amt)))
        touches;
      if commit then ignore (Shard.try_commit db t) else Shard.abort db t)
    script;
  committed_by_name (Tm_engine.Database.objects (Shard.database db))

let run_sharded ~shards names script =
  let wals = Array.init shards (fun _ -> Wal.create ()) in
  let db = SD.create ~wals (Array.to_list (Array.map account names)) in
  List.iter
    (fun (touches, commit) ->
      let t = SD.begin_txn db in
      List.iter
        (fun (i, amt) -> ignore (SD.invoke db t ~obj:names.(i) (deposit_inv amt)))
        touches;
      if commit then ignore (SD.try_commit db t) else SD.abort db t)
    script;
  (committed_by_name (SD.objects db), wals)

let check_equal_states name want got =
  if want <> got then
    Alcotest.failf "%s: states differ: %a vs %a" name
      Fmt.(list ~sep:semi (pair string (list Op.pp)))
      want
      Fmt.(list ~sep:semi (pair string (list Op.pp)))
      got

let prop_single_shard_equivalence =
  Helpers.qcheck ~count:60 "sharded(1) == unsharded"
    (script_gen ~objs:4)
    (fun script ->
      let names = Array.init 4 (fun i -> Fmt.str "BA%d" i) in
      let want = run_unsharded names script in
      let got, _ = run_sharded ~shards:1 names script in
      check_equal_states "single shard" want got;
      true)

let prop_multi_shard_disjoint_equivalence =
  (* Four shards, every transaction confined to one object — the
     sharded engine must still commit exactly the unsharded state, and
     afterwards recovery from its four logs must reproduce it. *)
  QCheck2.Gen.(
    list_size (1 -- 12) (pair (pair (0 -- 3) (list_size (1 -- 4) (1 -- 9))) bool))
  |> fun gen ->
  Helpers.qcheck ~count:60 "sharded(4, disjoint keys) == unsharded" gen
    (fun script ->
      let script =
        List.map
          (fun ((i, amts), commit) ->
            (List.map (fun a -> (i, a)) amts, commit))
          script
      in
      let names = names_per_shard 4 in
      let want = run_unsharded names script in
      let got, wals = run_sharded ~shards:4 names script in
      check_equal_states "disjoint keys" want got;
      let rebuild () = Array.to_list (Array.map account names) in
      (match SD.recover ~wals ~rebuild () with
      | Error e -> Alcotest.failf "recover refused: %a" Recovery.pp_error e
      | Ok (db2, _) ->
          check_equal_states "recovered" want (committed_by_name (SD.objects db2)));
      true)

let prop_cross_shard_equivalence =
  (* Unrestricted scripts over 4 shards: multi-object transactions take
     the 2PC path; deposits always validate, so the committed state must
     still match the unsharded engine exactly. *)
  Helpers.qcheck ~count:40 "sharded(4, cross-shard) == unsharded"
    (script_gen ~objs:8)
    (fun script ->
      let names = names_per_shard 4 in
      let eight =
        Array.init 8 (fun i ->
            if i < 4 then names.(i) else Fmt.str "X%d" i)
      in
      let want = run_unsharded eight script in
      let got, _ = run_sharded ~shards:4 eight script in
      check_equal_states "cross shard" want got;
      true)

(* --- cross-shard deadlock: one waits-for search over every shard --- *)

let test_cross_shard_deadlock () =
  (* Two transactions each hold a deposit on an account on a different
     shard, then request a withdrawal from the other's account.  Under
     NRBC a successful withdrawal conflicts with a held deposit, so each
     blocks on the other.  Each shard holds one edge of the cycle and
     finds none on its own; the global search finds both members, and
     the younger is the victim.  Once it is aborted the survivor runs
     and commits. *)
  let names = names_per_shard 2 in
  let x = names.(0) and y = names.(1) in
  let db = SD.create ~wals:[| Wal.create (); Wal.create () |] [ account x; account y ] in
  let t1 = SD.begin_txn db in
  let t2 = SD.begin_txn db in
  let invoke tid obj inv = SD.invoke db tid ~obj inv in
  let executed label = function
    | Atomic_object.Executed _ -> ()
    | Atomic_object.Blocked _ | Atomic_object.No_response -> Alcotest.failf "%s did not run" label
  in
  let blocked_on label holder = function
    | Atomic_object.Blocked holders ->
        Alcotest.(check (list Helpers.tid)) label [ holder ] holders
    | Atomic_object.Executed _ | Atomic_object.No_response ->
        Alcotest.failf "%s did not block" label
  in
  executed "t1 deposit" (invoke t1 x (deposit_inv 5));
  executed "t2 deposit" (invoke t2 y (deposit_inv 5));
  blocked_on "t1 waits for t2" t2 (invoke t1 y (withdraw_inv 1));
  blocked_on "t2 waits for t1" t1 (invoke t2 x (withdraw_inv 1));
  Array.iteri
    (fun s sh ->
      Helpers.check_bool (Fmt.str "shard %d alone finds no cycle" s) true
        (Option.is_none (Tm_engine.Database.deadlock (Shard.database sh))))
    (SD.shards db);
  match SD.deadlock db with
  | None -> Alcotest.fail "the cross-shard cycle was not found"
  | Some cycle ->
      Alcotest.(check (list Helpers.tid)) "two-member cycle" [ t1; t2 ]
        (List.sort Tid.compare cycle);
      Alcotest.check Helpers.tid "the younger is the victim" t2
        (Tm_engine.Deadlock.victim cycle);
      SD.abort db t2;
      Helpers.check_bool "no cycle left" true (Option.is_none (SD.deadlock db));
      executed "t1 withdraw" (invoke t1 y (withdraw_inv 1));
      Helpers.check_bool "survivor commits" true (Result.is_ok (SD.try_commit db t1));
      Alcotest.(check (list (pair string (list Helpers.op))))
        "t1's operations are the only committed ones"
        [ (x, [ dep_on x 5 ]); (y, [ Op.make ~obj:y ~args:[ Value.int 1 ] "withdraw" Value.ok ]) ]
        (committed_by_name (SD.objects db))

let suite =
  [
    Alcotest.test_case "mixed-shard frames round-trip + select" `Quick
      test_mixed_shard_roundtrip;
    Alcotest.test_case "disk wal stamps its shard id" `Quick
      test_disk_wal_stamps_shard;
    Alcotest.test_case "analyze: presumed abort without evidence" `Quick
      test_analyze_presumed_abort;
    Alcotest.test_case "analyze: decision record commits in-doubt" `Quick
      test_analyze_decision_commits;
    Alcotest.test_case "analyze: peer phase-2 commit is evidence" `Quick
      test_analyze_peer_commit_is_evidence;
    Alcotest.test_case "analyze: abort decision aborts" `Quick
      test_analyze_abort_decision;
    Alcotest.test_case "cross-shard commit: 2PC footprint" `Quick
      test_cross_shard_commit;
    Alcotest.test_case "prepare failure aborts on every shard" `Quick
      test_prepare_failure_aborts_everywhere;
    Alcotest.test_case "checkpoint proceeds when idle" `Quick
      test_checkpoint_when_idle;
    Alcotest.test_case "checkpoint refused during a prepare force" `Quick
      test_checkpoint_refused_during_prepare;
    Alcotest.test_case "a sharded restart reads each log once" `Quick
      test_restart_reads_each_log_once;
    Alcotest.test_case "recovery commits in-doubt with evidence" `Quick
      test_recover_in_doubt_commits_with_evidence;
    Alcotest.test_case "recovery presumes abort without evidence" `Quick
      test_recover_in_doubt_presumed_abort;
    Alcotest.test_case "resolution events: evidence kinds" `Quick
      test_resolution_events_evidence_kinds;
    Alcotest.test_case "analyze: replay state = record walk (hand-written)" `Quick
      test_analyze_matches_record_walk;
    Alcotest.test_case "resolution is idempotent after recovery" `Quick
      test_resolution_idempotent_after_recovery;
    Alcotest.test_case "shared trace recorder: 2pc spans" `Quick
      test_sharded_trace_spans;
    prop_single_shard_equivalence;
    prop_multi_shard_disjoint_equivalence;
    prop_cross_shard_equivalence;
    Alcotest.test_case "cross-shard deadlock found and broken" `Quick
      test_cross_shard_deadlock;
  ]
