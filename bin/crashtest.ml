(* crashtest: crash-state enumeration over WAL recovery.

   One pipeline at any --shards N.  Every scenario x setup combination
   is driven by [Experiment.drive] on seeded fibers over an N-shard
   engine, and the drive is recorded ([Crash.of_drive]: every append
   and every force the run made).  Each generator of [table] turns the
   recording into crash states, and every state passes Crash's shared
   battery (replay legality, dynamic atomicity, prefix stability, replay
   consistency, 2PC global atomicity, idempotence).  Then:

   - the reload leg drives the combination again onto N Disk_wals over
     in-memory storage: every store's frames carry its shard id, reload
     to the recorded logs and recover the live engine's state;
   - with --fault, the fault leg does the same over storage dealing
     seeded torn writes and transient errors, which the WAL's retry
     loop must absorb;
   - on N > 1 shards, the in-doubt harvest takes the last forced
     frontier with a decided prepare in doubt ([Crash.in_doubt]), reads
     it back through walinspect and recovers it with its audit trail.

   Exits non-zero on any violation; when a generator in the table
   yields no crash state over the whole run; under --fault when no
   fault was injected; and on N > 1 shards when no combination left a
   prepare in doubt — so a leg miswired out cannot pass CI. *)

module Experiment = Tm_sim.Experiment
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

(* Workloads stay small because the byte-cut generators recover at every
   byte of a log, so their time grows with the log's size; the log still
   contains operations, commits, aborts and a mid-run checkpoint. *)
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

let say ~verbose fmt =
  Fmt.kstr
    (fun s ->
      lines := s :: !lines;
      if verbose then Fmt.pr "%s@." s)
    fmt

let failures = ref 0

let fail fmt =
  Fmt.kstr
    (fun s ->
      incr failures;
      say ~verbose:true "%s" s)
    fmt

(* ------------------------------------------------------------------ *)
(* The generator table.                                                *)

type sweep = rebuild:(unit -> Atomic_object.t list) -> Crash.recording -> Crash.report

let enumerate gen : sweep = fun ~rebuild r -> Crash.enumerate ~rebuild (gen r)

let table ~fault ~shards ~checkpoint_every : (string * sweep) list =
  (if shards > 1 then [ ("forced", enumerate Crash.forced_frontiers) ] else [])
  @
  if fault then
    [ ("bytes", enumerate Crash.byte_cuts) ]
    (* Without checkpoints there is nothing to truncate to. *)
    @ (if checkpoint_every > 0 then
         [ ("truncate", enumerate (Crash.rewrite ~from:Wal.Codec.write_version)) ]
       else [])
    @ [
        ("upgrade", enumerate (Crash.rewrite ~from:Wal.Codec.v1));
        ("upgrade-v2", enumerate (Crash.rewrite ~from:Wal.Codec.v2));
        ("flips", fun ~rebuild:_ r -> Crash.corruption_sweep r);
      ]
  else if shards > 1 then [ ("bytes", enumerate Crash.byte_cuts) ]
  else [ ("append", enumerate Crash.append_points) ]

type total = {
  mutable states : int;
  mutable atomicity : int;
  mutable cross : int;
  mutable evidence : int;
}

let pp_totals =
  Fmt.(
    list ~sep:(any "; ") (fun ppf (name, t) ->
        pf ppf "%s %d states (%d atomicity-checked, %d cross-shard txns, %d evidence checks)"
          name t.states t.atomicity t.cross t.evidence))

(* ------------------------------------------------------------------ *)
(* One combination: record, enumerate, persist, harvest.               *)

type run = {
  shards : int;
  cfg : Experiment.config;
  checkpoint_every : int;
  seed : int;
  fault : bool;
  record_trace : bool;
  verbose : bool;
  table : (string * sweep) list;
  totals : (string * total) list;
  mutable rows : Experiment.row list;
      (* the recorded drives, for --trace/--metrics *)
  mutable last_log : Wal.record list array option;
  mutable last_harvest : Wal.record list array option;
      (* for --keep-log: the last in-doubt harvest, else the last log *)
  mutable faults : int;
  mutable retries : int;
  mutable harvests : int;
  mutable in_doubt : int;
}

let committed db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Sharded_database.objects db)

let same_state a b =
  List.equal
    (fun (n1, ops1) (n2, ops2) -> String.equal n1 n2 && List.equal Tm_core.Op.equal ops1 ops2)
    (committed a) (committed b)

(* Drive the combination again onto one Disk_wal per shard over
   in-memory stores, each seen through [wrap]: the bytes that reached
   every store must carry its shard id, reload to the recorded logs and
   recover the live engine's state.  Returns the disk logs. *)
let persist run ~leg ~wrap combo ~rebuild ~drive recording =
  let inners = Array.init run.shards (fun _ -> Storage.memory ()) in
  let dws = Array.mapi (fun i inner -> Disk_wal.create ~shard:i (wrap inner)) inners in
  let live = Sharded_database.create ~wals:(Array.map Disk_wal.wal dws) (rebuild ()) in
  drive live;
  Array.iteri
    (fun i store ->
      match (Wal_inspect.inspect (Storage.read_all store)).Wal_inspect.by_shard with
      | [] -> ()
      | [ (id, _) ] when id = i -> ()
      | got ->
          fail "%s %s: shard %d frames stamped %a, want [(%d,_)]" combo leg i
            Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
            got i)
    inners;
  (match
     Array.map
       (fun st ->
         match Disk_wal.load st with
         | Ok dw -> Disk_wal.wal dw
         | Error c -> Fmt.failwith "%a" Wal.Codec.pp_corruption c)
       inners
   with
  | exception Failure msg -> fail "%s %s: persisted log CORRUPT: %s" combo leg msg
  | reloaded -> (
      if
        not
          (Array.for_all2 (List.equal Wal.equal_record) (Array.map Wal.records reloaded)
             (Crash.logs recording))
      then fail "%s %s: reloaded logs DIVERGED from the recorded run" combo leg;
      match Sharded_database.recover ~wals:reloaded ~rebuild () with
      | Error e -> fail "%s %s: recovery failed: %a" combo leg Recovery.pp_error e
      | Ok (rdb, _) ->
          if not (same_state live rdb) then
            fail "%s %s: recovered state DIVERGED from the live engine" combo leg));
  dws

(* The last forced frontier with a decided prepare in doubt: walinspect
   must read its prepares as in doubt, and recovery must resolve one by
   the surviving decision, name it in the audit trail and count it. *)
let harvest run combo ~rebuild recording =
  match Crash.in_doubt recording with
  | None -> ()
  | Some st ->
      run.harvests <- run.harvests + 1;
      run.last_harvest <- Some st.Crash.logs;
      let image =
        String.concat ""
          (Array.to_list (Array.mapi (fun i recs -> Wal.Codec.encode_all ~shard:i recs) st.Crash.logs))
      in
      let in_doubt =
        List.fold_left
          (fun n s -> n + List.length s.Wal_inspect.tp_in_doubt)
          0 (Wal_inspect.two_phase image)
      in
      run.in_doubt <- run.in_doubt + in_doubt;
      if in_doubt = 0 then fail "%s harvest: walinspect reads NO in-doubt prepares" combo;
      let audit = ref [] in
      (match
         Sharded_database.recover
           ~audit:(fun evs -> audit := evs)
           ~wals:(Array.map Wal.of_records st.Crash.logs)
           ~rebuild ()
       with
      | Error e -> fail "%s harvest: recovery failed: %a" combo Recovery.pp_error e
      | Ok (rdb, _) ->
          if
            not
              (List.exists
                 (fun (r : Two_phase.resolution) ->
                   r.commit && r.evidence = Two_phase.Decision_record)
                 !audit)
          then fail "%s harvest: audit trail has no decision-evidence commit" combo;
          if
            Metrics.counter_value (Sharded_database.metrics rdb)
              ~labels:[ ("evidence", "decision"); ("outcome", "commit") ]
              "tm_2pc_resolved_total"
            = 0
          then fail "%s harvest: tm_2pc_resolved_total{decision,commit} is 0" combo);
      say ~verbose:run.verbose "%s harvest: %s, %d in-doubt prepares, %d audit events" combo
        st.Crash.label in_doubt (List.length !audit)

let combination run (scenario : Experiment.scenario) setup =
  let combo = Fmt.str "%-24s %-10s" scenario.Experiment.name (Experiment.label setup) in
  let rebuild () = scenario.Experiment.build setup in
  let drive sdb =
    Experiment.drive ~checkpoint_every:run.checkpoint_every scenario setup run.cfg sdb
  in
  let recording =
    Crash.of_drive ~shards:run.shards ~rebuild (fun sdb ->
        if run.record_trace then Sharded_database.set_trace sdb (Tm_obs.Trace.create ());
        run.rows <- drive sdb :: run.rows)
  in
  run.last_log <- Some (Crash.logs recording);
  List.iter2
    (fun (name, sweep) (_, t) ->
      let r = sweep ~rebuild recording in
      t.states <- t.states + r.Crash.states;
      t.atomicity <- t.atomicity + r.Crash.atomicity_checked;
      t.cross <- t.cross + r.Crash.cross_txns;
      t.evidence <- t.evidence + r.Crash.evidence_checked;
      if not (Crash.ok r) then incr failures;
      say ~verbose:(run.verbose || not (Crash.ok r)) "%s %-8s %a" combo name Crash.pp_report r)
    run.table run.totals;
  let drive sdb = ignore (drive sdb : Experiment.row) in
  ignore (persist run ~leg:"reload" ~wrap:Fun.id combo ~rebuild ~drive recording);
  if run.fault then begin
    let wrap = Storage.faulty ~seed:run.seed Storage.write_faults in
    let dws = persist run ~leg:"faults" ~wrap combo ~rebuild ~drive recording in
    let sum f = Array.fold_left (fun n dw -> n + f dw) 0 dws in
    let injected = sum (fun dw -> Storage.fault_count (Disk_wal.storage dw)) in
    let retries = sum Disk_wal.retries in
    run.faults <- run.faults + injected;
    run.retries <- run.retries + retries;
    say ~verbose:run.verbose "%s faults: %d injected, %d retries" combo injected retries
  end;
  if run.shards > 1 then harvest run combo ~rebuild recording

let main filter txns concurrency seed checkpoint_every fault report_file trace_file
    metrics_file keep_log keep_log_version verbose shards =
  if not (Wal.Codec.is_supported keep_log_version) then begin
    Fmt.epr "--keep-log-version %d: supported versions are %a@." keep_log_version
      Fmt.(list ~sep:sp int)
      Wal.Codec.supported_versions;
    exit 1
  end;
  if shards < 1 then begin
    Fmt.epr "--shards %d: need at least one shard@." shards;
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
  let table = table ~fault ~shards ~checkpoint_every in
  let run =
    {
      shards;
      cfg = Experiment.config ~concurrency ~total_txns:txns ~seed ();
      checkpoint_every;
      seed;
      fault;
      record_trace = trace_file <> None;
      verbose;
      table;
      totals = List.map (fun (name, _) -> (name, { states = 0; atomicity = 0; cross = 0; evidence = 0 })) table;
      rows = [];
      last_log = None;
      last_harvest = None;
      faults = 0;
      retries = 0;
      harvests = 0;
      in_doubt = 0;
    }
  in
  List.iter
    (fun scenario -> List.iter (combination run scenario) setups)
    scenarios;
  List.iter
    (fun (name, t) ->
      if t.states = 0 then fail "crashtest: generator %s yielded NO crash states" name)
    run.totals;
  (* The fault leg is vacuous if the fault dice never fired: fail loudly
     so a mis-seeded CI run cannot pass by doing nothing. *)
  if fault && run.retries = 0 then
    fail "crashtest --fault: NO transient faults were injected/retried";
  if shards > 1 && run.harvests = 0 then
    fail "crashtest --shards %d: NO combination left a decided prepare in doubt" shards;
  say ~verbose:true "crashtest%s%s: %d scenario x setup combinations; %a%s%s; %d failures"
    (if fault then " --fault" else "")
    (if shards > 1 then Fmt.str " --shards %d" shards else "")
    (List.length scenarios * List.length setups)
    pp_totals run.totals
    (if fault then Fmt.str "; %d faults injected, %d retries absorbed" run.faults run.retries
     else "")
    (if shards > 1 then
       Fmt.str "; %d in-doubt harvests, %d prepares in doubt" run.harvests run.in_doubt
     else "")
    !failures;
  (match report_file with
  | None -> ()
  | Some file ->
      Cli_util.with_out file (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines));
      Fmt.pr "wrote report to %s@." file);
  let dump_rows = List.rev run.rows in
  let config =
    [
      ("txns", string_of_int txns);
      ("concurrency", string_of_int concurrency);
      ("checkpoint_every", string_of_int checkpoint_every);
      ("fault", string_of_bool fault);
      ("shards", string_of_int shards);
    ]
  in
  Option.iter
    (fun f -> Cli_util.write_traces ~seed ~config f (Cli_util.jsonl_of_rows dump_rows))
    trace_file;
  Option.iter
    (fun f -> Cli_util.write_metrics ~seed ~config f (Cli_util.prom_of_rows dump_rows))
    metrics_file;
  (match (keep_log, run.last_harvest, run.last_log) with
  | None, _, _ -> ()
  | Some file, Some logs, _ | Some file, None, Some logs -> (
      match
        String.concat ""
          (Array.to_list
             (Array.mapi
                (fun i recs -> Wal.Codec.encode_all ~version:keep_log_version ~shard:i recs)
                logs))
      with
      | exception Invalid_argument msg ->
          Fmt.epr "--keep-log %s: %s@." file msg;
          exit 1
      | bytes ->
          Cli_util.with_out file (fun oc -> output_string oc bytes);
          Fmt.pr "wrote %s WAL image (%d bytes, format v%d, %d shard%s) to %s@."
            (if run.last_harvest = None then "on-disk" else "in-doubt harvest")
            (String.length bytes) keep_log_version shards
            (if shards = 1 then "" else "s")
            file)
  | Some file, None, None -> Fmt.epr "--keep-log %s: no run produced a log@." file);
  if !failures > 0 then exit 1

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
          "Transactions per run.  The byte-cut generators recover at every \
           log byte, so their time grows with the log's size.")

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
          "Storage-fault mode: generators bytes (every byte offset of each \
           shard's encoded log), truncate, upgrade and upgrade-v2 (every \
           byte state of the checkpoint-truncation rewrite, from the write \
           version, from v1 for logs without 2PC records, and from v2) and \
           flips (a bit-flip corruption sweep), and \
           a run over storage with seeded torn writes and transient errors \
           that must persist the recorded logs.")

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
          "Write a real WAL image for walinspect to chew on to $(docv): the \
           last in-doubt harvest if one was made (more than one shard), \
           else the last combination's logs, every shard's frames \
           concatenated.")

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
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Drive every combination over an engine of $(docv) shards, each \
           with its own WAL.  On more than one shard the generators start \
           with forced (every forced frontier across all the logs), clean \
           runs cut bytes instead of append points, and every combination \
           that leaves a decided prepare in doubt is harvested.")

let cmd =
  let doc = "enumerate WAL crash states and check recovery against the specification" in
  Cmd.v
    (Cmd.info "crashtest" ~doc)
    Term.(
      const main $ scenario_arg $ txns_arg $ concurrency_arg $ seed_arg
      $ checkpoint_arg $ fault_arg $ report_arg
      $ trace_arg $ metrics_arg $ keep_log_arg $ keep_log_version_arg
      $ verbose_arg $ shards_arg)

let () = exit (Cmd.eval cmd)
