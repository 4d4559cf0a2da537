(* crashtest: crash-state enumeration over WAL recovery.

   Each mode records workloads and runs every recording through the
   Crash generators its flags select ([table] below); every crash state
   a generator yields passes Crash's shared battery (replay legality,
   dynamic atomicity, prefix stability, replay consistency, 2PC global
   atomicity, idempotence).

   - default: the scenario x setup matrix, driven through a
     Durable_database with a fuzzy checkpoint every few commits;
     generator: append points;
   - --fault: the same matrix over in-memory storage with batched
     durability barriers; generators: byte cuts (batch-prefix and
     acked-durability checked), checkpoint-truncation and v1->v2 upgrade
     rewrites, bit flips — plus a run over storage dealing seeded torn
     writes and transient errors, which must commit identical state;
   - --shards N: a sharded engine at two cross-shard mixes; generators:
     forced frontiers and byte cuts — plus disk-backed, fault and
     in-doubt harvest legs.

   Exits non-zero on any violation, and when a generator in the table
   yields no crash state over the whole matrix, so a generator miswired
   out of the table cannot pass CI. *)

module Experiment = Tm_sim.Experiment
module Scheduler = Tm_sim.Scheduler
module Crash = Tm_engine.Crash
module Recovery = Tm_engine.Recovery
module Wal = Tm_engine.Wal
module Wal_inspect = Tm_engine.Wal_inspect
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module Atomic_object = Tm_engine.Atomic_object
module Sharded_database = Tm_engine.Sharded_database
module Two_phase = Tm_engine.Two_phase
module Metrics = Tm_obs.Metrics
open Tm_core

(* Workloads stay tiny so most cuts fall under the exponential
   dynamic-atomicity checker's transaction gate; the log still contains
   begins, operations, commits, aborts and a mid-run checkpoint. *)
let scenarios () =
  Experiment.all_scenarios @ [ Experiment.transfer_mixed_recovery () ]

let setups =
  [
    Experiment.setup Recovery.UIP Experiment.Semantic;
    Experiment.setup Recovery.DU Experiment.Semantic;
    Experiment.setup ~occ:true Recovery.DU Experiment.Semantic;
    Experiment.setup Recovery.UIP Experiment.Read_write;
  ]

(* Collect report lines so --report can dump the full run even when the
   console only shows failures. *)
let lines : string list ref = ref []

(* Rows of the driving (fault-free) workload runs, for --trace/--metrics
   dumps in the shared artifact formats. *)
let rows : Experiment.row list ref = ref []

(* The last driving run's records, for --keep-log: encoded on exit (in
   the format version --keep-log-version selects) into a real
   crashtest-produced on-disk WAL that walinspect can be pointed at —
   and that, encoded as v1, becomes a checked-in migration fixture. *)
let last_log : Wal.record list option ref = ref None

(* The sharded in-doubt harvest's mixed-shard image (per-shard encoded
   frames concatenated), for --keep-log in --shards mode: a real crash
   state with orphaned prepares for walinspect --two-phase to chew on. *)
let last_image : string option ref = ref None

let say ~verbose fmt =
  Fmt.kstr
    (fun s ->
      lines := s :: !lines;
      if verbose then Fmt.pr "%s@." s)
    fmt

(* ------------------------------------------------------------------ *)
(* The generator table.                                                *)

type sweep = rebuild:(unit -> Atomic_object.t list) -> Crash.recording -> Crash.report

let enumerate gen : sweep = fun ~rebuild r -> Crash.enumerate ~rebuild (gen r)

let table ~fault ~shards ~checkpoint_every : (string * sweep) list =
  if shards > 0 then
    [ ("forced", enumerate Crash.forced_frontiers); ("bytes", enumerate Crash.byte_cuts) ]
  else if fault then
    [ ("bytes", enumerate Crash.byte_cuts) ]
    (* Without checkpoints there is nothing to truncate to. *)
    @ (if checkpoint_every > 0 then
         [ ("truncate", enumerate (Crash.rewrite ~from:Wal.Codec.write_version)) ]
       else [])
    @ [
        ("upgrade", enumerate (Crash.rewrite ~from:Wal.Codec.v1));
        ("flips", fun ~rebuild:_ r -> Crash.corruption_sweep r);
      ]
  else [ ("append", enumerate Crash.append_points) ]

type total = {
  mutable states : int;
  mutable atomicity : int;
  mutable evidence : int;
  mutable failing : int;
}

(* Run every generator of [table] over every (label, rebuild, recording)
   combination.  Returns the failure count — combinations with
   violations, plus one per generator that yielded no state at all — and
   the per-generator totals. *)
let run_table ~verbose table combos =
  let totals =
    List.map (fun (name, _) -> (name, { states = 0; atomicity = 0; evidence = 0; failing = 0 })) table
  in
  List.iter
    (fun (combo, rebuild, recording) ->
      List.iter2
        (fun (name, sweep) (_, t) ->
          let r = sweep ~rebuild recording in
          t.states <- t.states + r.Crash.states;
          t.atomicity <- t.atomicity + r.Crash.atomicity_checked;
          t.evidence <- t.evidence + r.Crash.evidence_checked;
          if not (Crash.ok r) then t.failing <- t.failing + 1;
          say ~verbose:(verbose || not (Crash.ok r)) "%s %-8s %a" combo name
            Crash.pp_report r)
        table totals)
    combos;
  let vacuous = List.filter (fun (_, t) -> t.states = 0) totals in
  List.iter
    (fun (name, _) -> say ~verbose:true "crashtest: generator %s yielded NO crash states" name)
    vacuous;
  (List.fold_left (fun n (_, t) -> n + t.failing) (List.length vacuous) totals, totals)

let pp_totals =
  Fmt.(
    list ~sep:(any "; ") (fun ppf (name, t) ->
        pf ppf "%s %d states (%d atomicity-checked, %d evidence checks)" name t.states
          t.atomicity t.evidence))

(* ------------------------------------------------------------------ *)
(* Default and --fault modes: the scenario x setup matrix.             *)

let matrix_mode ~verbose ~record_trace ~fault table cfg checkpoint_every seed
    group_commit scenarios =
  let runs =
    List.concat_map
      (fun (scenario : Experiment.scenario) ->
        List.map
          (fun setup ->
            (* --fault drives onto real (in-memory-backed) storage through
               the framing codec. *)
            let wal =
              if fault then Some (Disk_wal.wal (Disk_wal.create (Storage.memory ())))
              else None
            in
            let row, wal =
              Experiment.run_durable ~record_trace ?wal ~checkpoint_every ~group_commit
                scenario setup cfg
            in
            rows := row :: !rows;
            last_log := Some (Wal.records wal);
            (scenario, setup, Wal.records wal))
          setups)
      scenarios
  in
  let combo (scenario : Experiment.scenario) setup =
    Fmt.str "%-24s %-10s" scenario.Experiment.name (Experiment.label setup)
  in
  let failures, totals =
    run_table ~verbose table
      (List.map
         (fun (scenario, setup, recs) ->
           ( combo scenario setup,
             (fun () -> scenario.Experiment.build setup),
             Crash.of_log ~group_every:group_commit recs ))
         runs)
  in
  let failures = ref failures in
  let total_retries = ref 0 in
  let total_faults = ref 0 in
  if fault then begin
    (* The same workload against storage dealing seeded torn writes and
       transient errors: the retry loop must absorb them and commit the
       identical log. *)
    List.iter
      (fun (scenario, setup, recs) ->
        let combo = combo scenario setup in
        let inner = Storage.memory () in
        let faulty = Storage.faulty ~seed Storage.write_faults inner in
        let faulty_dw = Disk_wal.create faulty in
        let frow, fwal =
          Experiment.run_durable ~wal:(Disk_wal.wal faulty_dw) ~checkpoint_every
            ~group_commit scenario setup cfg
        in
        let retries =
          Metrics.counter_value frow.Experiment.metrics "tm_storage_retries_total"
        in
        total_retries := !total_retries + retries;
        total_faults := !total_faults + Storage.fault_count faulty;
        let identical = List.equal Wal.equal_record recs (Wal.records fwal) in
        if not identical then begin
          incr failures;
          say ~verbose:true "%s faults: DIVERGED from fault-free run" combo
        end;
        (* The bytes that actually reached the (clean) inner store must
           reload to the same log — torn prefixes were overwritten. *)
        (match Disk_wal.load inner with
        | Error c ->
            incr failures;
            say ~verbose:true "%s faults: persisted log CORRUPT: %a" combo
              Wal.Codec.pp_corruption c
        | Ok reloaded ->
            if not (List.equal Wal.equal_record recs (Wal.records (Disk_wal.wal reloaded)))
            then begin
              incr failures;
              say ~verbose:true "%s faults: reloaded log DIVERGED" combo
            end);
        say ~verbose:(verbose && identical)
          "%s faults: %d injected, %d retries, committed state identical" combo
          (Storage.fault_count faulty) retries)
      runs;
    (* The sweep is vacuous if the fault dice never fired: fail loudly so a
       mis-seeded CI run cannot pass by doing nothing. *)
    if !total_retries = 0 then begin
      incr failures;
      say ~verbose:true "crashtest --fault: NO transient faults were injected/retried"
    end
  end;
  say ~verbose:true "crashtest%s: %d scenario x setup combinations; %a%s; %d failures"
    (if fault then Fmt.str " --fault (group commit %d)" group_commit else "")
    (List.length runs) pp_totals totals
    (if fault then
       Fmt.str "; %d faults injected, %d retries absorbed" !total_faults !total_retries
     else "")
    !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* --shards mode: multi-WAL torture of the sharded engine's 2PC.       *)

(* Two bank accounts per shard, mixed recovery methods (UIP objects
   validate the undo path, DU objects the deferred-update path) — the
   router spreads them by name hash, so "two per shard" is statistical,
   but every shard ends up owning some. *)
let sharded_rebuild ~shards () =
  let funded = Tm_adt.Bank_account.spec_with_initial 100_000 in
  List.init (2 * shards) (fun i ->
      let spec = Spec.rename funded (Fmt.str "BA%d" i) in
      if i mod 2 = 0 then
        Atomic_object.create ~spec ~conflict:Tm_adt.Bank_account.nrbc_conflict
          ~recovery:Recovery.UIP ()
      else
        Atomic_object.create ~spec ~conflict:Tm_adt.Bank_account.nfc_conflict
          ~recovery:Recovery.DU ())

(* A deterministic sequential workload: deposits/withdrawals on one
   account, escalating to a second account on a different home shard
   [cross_pct]% of the time (the 2PC path), an explicit abort every
   fifth transaction, and a global checkpoint attempt every
   [checkpoint_every] commits. *)
let drive_sharded ~txns ~cross_pct ~checkpoint_every ~seed db =
  let rng = Random.State.make [| seed; 0x5ad |] in
  let names =
    Array.of_list (List.map Atomic_object.name (Sharded_database.objects db))
  in
  let pick () = names.(Random.State.int rng (Array.length names)) in
  let commits = ref 0 in
  for i = 0 to txns - 1 do
    let tid = Sharded_database.begin_txn db in
    let touch o amount =
      let inv =
        if Random.State.int rng 4 = 0 then
          Op.invocation ~args:[ Value.int amount ] "withdraw"
        else Op.invocation ~args:[ Value.int amount ] "deposit"
      in
      ignore (Sharded_database.invoke db tid ~obj:o inv)
    in
    let o1 = pick () in
    let amount = 1 + (i mod 7) in
    touch o1 amount;
    let cross =
      Sharded_database.shard_count db > 1 && Random.State.int rng 100 < cross_pct
    in
    if cross then begin
      let s1 = Sharded_database.shard_of_object db o1 in
      let rec other tries =
        let o = pick () in
        if Sharded_database.shard_of_object db o <> s1 || tries > 8 * Array.length names
        then o
        else other (tries + 1)
      in
      touch (other 0) (amount + 1)
    end;
    if i mod 5 = 4 then Sharded_database.abort db tid
    else
      match Sharded_database.try_commit db tid with
      | Ok () ->
          incr commits;
          if checkpoint_every > 0 && !commits mod checkpoint_every = 0 then
            ignore (Sharded_database.checkpoint db)
      | Error _ -> ()
  done

let sharded_committed db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Sharded_database.objects db)

let sharded_mode ~verbose ~shards ~txns ~seed ~checkpoint_every ~fault table =
  let rebuild = sharded_rebuild ~shards in
  (* Two workload mixes: mostly-local (the fast path with occasional 2PC)
     and all-cross (every commit is a 2PC). *)
  let failures, totals =
    run_table ~verbose table
      (List.map
         (fun cross_pct ->
           ( Fmt.str "sharded x%d cross=%d%%" shards cross_pct,
             rebuild,
             Crash.of_drive ~shards ~rebuild
               (drive_sharded ~txns ~cross_pct ~checkpoint_every ~seed) ))
         [ 30; 100 ])
  in
  let failures = ref failures in
  (* Disk-backed leg: the same workload onto per-shard Disk_wals (every
     frame stamped with its shard id), reloaded and recovered. *)
  let run_disk ~wrap =
    let inners = Array.init shards (fun _ -> Storage.memory ()) in
    let dws =
      Array.init shards (fun i -> Disk_wal.create ~shard:i (wrap inners.(i)))
    in
    let wals = Array.map Disk_wal.wal dws in
    let db = Sharded_database.create ~wals (rebuild ()) in
    drive_sharded ~txns ~cross_pct:50 ~checkpoint_every ~seed db;
    Sharded_database.flush db;
    (inners, wals, db)
  in
  let clean_stores, clean_wals, clean_db = run_disk ~wrap:Fun.id in
  (* Every persisted frame carries its shard's id. *)
  Array.iteri
    (fun i store ->
      let s = Wal_inspect.inspect (Storage.read_all store) in
      match s.Wal_inspect.by_shard with
      | [ (id, _) ] when id = i -> ()
      | got ->
          incr failures;
          say ~verbose:true "sharded x%d: shard %d frames stamped %a, want [(%d,_)]"
            shards i
            Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
            got i)
    clean_stores;
  (* Reload + recover from the persisted bytes: identical state. *)
  (match
     Array.map
       (fun st ->
         match Disk_wal.load st with
         | Ok dw -> Disk_wal.wal dw
         | Error c -> Fmt.failwith "reload: %a" Wal.Codec.pp_corruption c)
       clean_stores
   with
  | exception Failure msg ->
      incr failures;
      say ~verbose:true "sharded x%d: persisted log CORRUPT: %s" shards msg
  | reloaded -> (
      match Sharded_database.recover ~wals:reloaded ~rebuild () with
      | Error e ->
          incr failures;
          say ~verbose:true "sharded x%d: recovery from disk failed: %a" shards
            Recovery.pp_error e
      | Ok (rdb, _) ->
          let same =
            List.for_all2
              (fun (n1, o1) (n2, o2) ->
                String.equal n1 n2 && List.equal Op.equal o1 o2)
              (sharded_committed clean_db) (sharded_committed rdb)
          in
          if not same then begin
            incr failures;
            say ~verbose:true
              "sharded x%d: state recovered from disk DIVERGED from the live \
               engine"
              shards
          end));
  (* Fault leg: the identical workload over storage dealing seeded torn
     writes and transient errors must persist the identical per-shard
     logs. *)
  if fault then begin
    let faulties = ref [] in
    let _, fwals, _ =
      run_disk ~wrap:(fun inner ->
          let f = Storage.faulty ~seed Storage.write_faults inner in
          faulties := f :: !faulties;
          f)
    in
    let injected =
      List.fold_left (fun n f -> n + Storage.fault_count f) 0 !faulties
    in
    let identical =
      Array.for_all2
        (fun cw fw -> List.equal Wal.equal_record (Wal.records cw) (Wal.records fw))
        clean_wals fwals
    in
    if not identical then begin
      incr failures;
      say ~verbose:true "sharded x%d faults: DIVERGED from fault-free run" shards
    end;
    if injected = 0 then begin
      incr failures;
      say ~verbose:true "sharded x%d faults: NO faults were injected" shards
    end;
    say ~verbose:(verbose && identical)
      "sharded x%d faults: %d injected across %d shard stores, logs identical"
      shards injected shards
  end;
  (* In-doubt harvest: one explicit cross-shard deposit, then cut every
     shard's log just before its phase-2 [Commit] — the crash state 2PC's
     lazy completion makes routine (participants end at their forced
     [Prepare], the coordinator at its forced [Decision]).  Recovery must
     resolve each orphaned prepare from the surviving decision evidence,
     name it through the audit callback, and reach the pre-crash state. *)
  let stores = Array.init shards (fun _ -> Storage.memory ()) in
  let dws = Array.init shards (fun i -> Disk_wal.create ~shard:i stores.(i)) in
  let wals = Array.map Disk_wal.wal dws in
  let db = Sharded_database.create ~wals (rebuild ()) in
  drive_sharded ~txns ~cross_pct:30 ~checkpoint_every:0 ~seed db;
  let names =
    Array.of_list (List.map Atomic_object.name (Sharded_database.objects db))
  in
  let o1 = names.(0) in
  let s1 = Sharded_database.shard_of_object db o1 in
  let o2 =
    match
      Array.find_opt (fun o -> Sharded_database.shard_of_object db o <> s1) names
    with
    | Some o -> o
    | None -> o1
  in
  let tid = Sharded_database.begin_txn db in
  let deposit n = Op.invocation ~args:[ Value.int n ] "deposit" in
  ignore (Sharded_database.invoke db tid ~obj:o1 (deposit 21));
  ignore (Sharded_database.invoke db tid ~obj:o2 (deposit 34));
  (match Sharded_database.try_commit db tid with
  | Ok () -> ()
  | Error _ ->
      incr failures;
      say ~verbose:true "sharded x%d harvest: cross-shard commit failed" shards);
  Sharded_database.flush db;
  let cut recs =
    let rec go acc = function
      | [] -> List.rev acc
      | Wal.Commit t :: _ when Tid.equal t tid -> List.rev acc
      | r :: rest -> go (r :: acc) rest
    in
    go [] recs
  in
  let cut_recs = Array.map (fun w -> cut (Wal.records w)) wals in
  let image =
    String.concat ""
      (Array.to_list
         (Array.mapi (fun i recs -> Wal.Codec.encode_all ~shard:i recs) cut_recs))
  in
  last_image := Some image;
  let tp = Wal_inspect.two_phase image in
  let in_doubt =
    List.fold_left (fun n s -> n + List.length s.Wal_inspect.tp_in_doubt) 0 tp
  in
  if in_doubt = 0 then begin
    incr failures;
    say ~verbose:true "sharded x%d harvest: cut image has NO in-doubt prepares"
      shards
  end;
  let audit_events = ref [] in
  (match
     Sharded_database.recover
       ~audit:(fun evs -> audit_events := evs)
       ~wals:(Array.map Wal.of_records cut_recs)
       ~rebuild ()
   with
  | Error e ->
      incr failures;
      say ~verbose:true "sharded x%d harvest: recovery failed: %a" shards
        Recovery.pp_error e
  | Ok (rdb, _) ->
      if
        not
          (List.exists
             (fun (ev : Two_phase.resolution_event) ->
               ev.Two_phase.ev_commit
               && ev.Two_phase.ev_evidence = Two_phase.Decision_record)
             !audit_events)
      then begin
        incr failures;
        say ~verbose:true
          "sharded x%d harvest: audit trail has no decision-evidence commit"
          shards
      end;
      let resolved =
        Metrics.counter_value
          (Sharded_database.metrics rdb)
          ~labels:[ ("evidence", "decision"); ("outcome", "commit") ]
          "tm_2pc_resolved_total"
      in
      if resolved = 0 then begin
        incr failures;
        say ~verbose:true
          "sharded x%d harvest: tm_2pc_resolved_total{decision,commit} is 0"
          shards
      end;
      let same =
        List.for_all2
          (fun (n1, ops1) (n2, ops2) ->
            String.equal n1 n2 && List.equal Op.equal ops1 ops2)
          (sharded_committed db) (sharded_committed rdb)
      in
      if not same then begin
        incr failures;
        say ~verbose:true
          "sharded x%d harvest: recovered state DIVERGED from pre-crash state"
          shards
      end);
  say ~verbose:true
    "sharded x%d harvest: %d in-doubt prepares across %d shards, %d audit \
     events"
    shards in_doubt (List.length tp)
    (List.length !audit_events);
  say ~verbose:true "crashtest --shards %d: %a; %d failures" shards pp_totals totals
    !failures;
  !failures

let main filter txns concurrency seed checkpoint_every fault group_commit
    report_file trace_file metrics_file keep_log keep_log_version
    verbose shards =
  if not (Wal.Codec.is_supported keep_log_version) then begin
    Fmt.epr "--keep-log-version %d: supported versions are %a@." keep_log_version
      Fmt.(list ~sep:sp int)
      Wal.Codec.supported_versions;
    exit 1
  end;
  let scenarios =
    List.filter
      (fun (s : Experiment.scenario) ->
        match filter with None -> true | Some f -> String.equal s.name f)
      (scenarios ())
  in
  if scenarios = [] then begin
    Fmt.epr "no scenario matches %S@." (Option.value filter ~default:"");
    exit 1
  end;
  let cfg = Scheduler.config ~concurrency ~total_txns:txns ~seed () in
  let record_trace = trace_file <> None in
  let table = table ~fault ~shards ~checkpoint_every in
  let failures =
    if shards > 0 then
      sharded_mode ~verbose ~shards ~txns ~seed ~checkpoint_every ~fault table
    else
      matrix_mode ~verbose ~record_trace ~fault table cfg checkpoint_every seed
        group_commit scenarios
  in
  (match report_file with
  | None -> ()
  | Some file ->
      Cli_util.with_out file (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines));
      Fmt.pr "wrote report to %s@." file);
  let dump_rows = List.rev !rows in
  let config =
    [
      ("txns", string_of_int txns);
      ("concurrency", string_of_int concurrency);
      ("checkpoint_every", string_of_int checkpoint_every);
      ("fault", string_of_bool fault);
      ("group_commit", string_of_int group_commit);
    ]
  in
  Option.iter (fun f -> Cli_util.write_traces_rows ~seed ~config f dump_rows) trace_file;
  Option.iter (fun f -> Cli_util.write_metrics_rows ~seed ~config f dump_rows) metrics_file;
  (match keep_log, !last_image, !last_log with
  | Some file, Some bytes, _ ->
      (* Sharded harvest image: already encoded per shard (mixed shard
         stamps are the point), so --keep-log-version does not apply. *)
      Cli_util.with_out file (fun oc -> output_string oc bytes);
      Fmt.pr "wrote sharded in-doubt WAL image (%d bytes) to %s@."
        (String.length bytes) file
  | Some file, None, Some recs ->
      let bytes = Wal.Codec.encode_all ~version:keep_log_version recs in
      Cli_util.with_out file (fun oc -> output_string oc bytes);
      Fmt.pr "wrote on-disk WAL image (%d bytes, format v%d) to %s@."
        (String.length bytes) keep_log_version file
  | Some file, None, None -> Fmt.epr "--keep-log %s: no run produced a log@." file
  | None, _, _ -> ());
  if failures > 0 then exit 1

open Cmdliner

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME" ~doc:"Torture only this scenario (default: all).")

let txns_arg =
  Arg.(
    value & opt int 6
    & info [ "txns"; "n" ]
        ~doc:
          "Transactions per run.  Keep small: the exact atomicity check is \
           exponential and skipped on cuts with many transactions.")

let concurrency_arg =
  Arg.(value & opt int 3 & info [ "concurrency"; "c" ] ~doc:"Concurrent transactions.")

let seed_arg =
  Arg.(
    value & opt int 11
    & info [ "seed" ] ~doc:"PRNG seed (workload; also seeds fault injection).")

let checkpoint_arg =
  Arg.(
    value & opt int 2
    & info [ "checkpoint-every" ]
        ~doc:"Fuzzy checkpoint after every Nth commit (0: never).")

let fault_arg =
  Arg.(
    value & flag
    & info [ "fault" ]
        ~doc:
          "Storage-fault mode: generators bytes (every byte offset of the \
           encoded log), truncate and upgrade (every byte state of the \
           checkpoint-truncation rewrite, from v2 and from v1) and flips (a \
           bit-flip corruption sweep), and a run over storage with seeded \
           torn writes and transient errors that must match the fault-free \
           run.")

let group_commit_arg =
  Arg.(
    value & opt int 1
    & info [ "group-commit" ] ~docv:"N"
        ~doc:
          "Batch the durability barrier every $(docv) commits when driving \
           the scenario workloads; with $(b,--fault), byte cuts land inside \
           each batch (recovery must admit exactly a prefix of the batch's \
           commit order, and never lose a commit acknowledged at a flush \
           frontier).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the full per-combination report to $(docv) (parent \
              directories are created).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record transaction spans of the driving workload runs and write \
           them to $(docv) as JSON lines (rows tagged by scenario/setup).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a merged Prometheus text snapshot of the driving workload \
           runs to $(docv).")

let keep_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "keep-log" ] ~docv:"FILE"
        ~doc:
          "Write the last driving run's encoded on-disk WAL image to $(docv) \
           — a real log for walinspect to chew on.")

let keep_log_version_arg =
  Arg.(
    value
    & opt int Tm_engine.Wal.Codec.write_version
    & info [ "keep-log-version" ] ~docv:"V"
        ~doc:
          "Encode the --keep-log image in WAL format version $(docv) \
           (default: the current write version).  Harvesting with the \
           previous version produces the checked-in migration fixtures \
           under test/golden/logs/.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every report, not just failures.")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Torture the sharded engine's cross-shard two-phase commit over \
           $(docv) shard WALs instead of the single-log scenarios: \
           generators forced (forced-frontier crash states spanning all the \
           logs) and bytes (byte-granularity cuts of any shard's log), and a \
           disk-backed leg checking shard-stamped frames reload and recover \
           identically.  With \
           $(b,--fault), the workload additionally runs over per-shard \
           storage with seeded faults and must persist identical logs.")

let cmd =
  let doc = "enumerate WAL crash states and check recovery against the specification" in
  Cmd.v
    (Cmd.info "crashtest" ~doc)
    Term.(
      const main $ scenario_arg $ txns_arg $ concurrency_arg $ seed_arg
      $ checkpoint_arg $ fault_arg $ group_commit_arg $ report_arg
      $ trace_arg $ metrics_arg $ keep_log_arg $ keep_log_version_arg
      $ verbose_arg $ shards_arg)

let () = exit (Cmd.eval cmd)
