(* stresstest: OS threads against the durable engine with group commit.

   N threads each run M deposit transactions through Concurrent over a
   Sharded_database whose shard WALs are disk-format logs on storage
   with a deliberately slow durability barrier — the regime where group
   commit matters.  With --shards N > 1, every fourth transaction per
   thread deposits on a second shard too and commits through 2PC under
   the threaded front end.  The run then checks the serial expectation
   end to end:

     - every transaction committed and the accounts' balances sum to
       the committed deposits (the engine lost or duplicated nothing);
     - on one shard, tm_wal_forces_total < committed count (batching
       actually formed: fewer fsyncs than commits);
     - on several shards, at least one transaction crossed shards;
     - every shard's bytes on storage reload, and
       Sharded_database.recover rebuilds the committed deposits (what
       was acknowledged is really on disk).

   Deposits commute (NRBC), so with a shared trace recorder attached the
   run doubles as the distributed-tracing producer: every cross-shard
   commit emits its prepare/decision/completion spans under one logical
   clock, and the history the trace records must be dynamic atomic.
   Exits non-zero on any violation, so CI can gate on it (the
   seed is pinned by the Makefile target). *)

open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Concurrent = Tm_engine.Concurrent
module Disk_wal = Tm_engine.Disk_wal
module Shard = Tm_engine.Shard
module Sharded_database = Tm_engine.Sharded_database
module Storage = Tm_engine.Storage
module Wal = Tm_engine.Wal
module Metrics = Tm_obs.Metrics
module BA = Tm_adt.Bank_account

let deposit i = Op.invocation ~args:[ Value.int i ] "deposit"
let balance = Op.invocation "balance"

let sum_deposits objs =
  List.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc (op : Op.t) ->
          if String.equal op.Op.inv.Op.name "deposit" then
            match op.Op.inv.Op.args with [ Value.Int a ] -> acc + a | _ -> acc
          else acc)
        acc (Atomic_object.committed_ops o))
    0 objs

let main threads txns seed force_delay verbose trace_file metrics_file shards =
  let failures = ref 0 in
  let fail fmt =
    Fmt.kstr
      (fun s ->
        incr failures;
        Fmt.pr "FAIL: %s@." s)
      fmt
  in
  let stores = Array.init shards (fun _ -> Storage.memory ()) in
  let dws =
    Array.init shards (fun i ->
        Disk_wal.create ~shard:i
          (Storage.probe ~on_force:(fun () -> Thread.delay force_delay) stores.(i)))
  in
  let wals = Array.map Disk_wal.wal dws in
  let objs () =
    List.init (2 * shards) (fun i ->
        Atomic_object.create
          ~spec:(Spec.rename BA.spec (Fmt.str "BA%d" i))
          ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
  in
  let sdb = Sharded_database.create ~wals (objs ()) in
  let db = Concurrent.create sdb in
  let trace =
    (* Attached before any worker starts; the recorder itself is
       mutex-guarded, so threaded emission (including the flush-wait
       spans emitted outside the engine locks) is safe. *)
    if trace_file <> None then begin
      let tr = Tm_obs.Trace.create () in
      Sharded_database.set_trace sdb tr;
      Some tr
    end
    else None
  in
  let names =
    Array.of_list (List.map Atomic_object.name (Sharded_database.objects sdb))
  in
  let config =
    [
      ("threads", string_of_int threads);
      ("txns", string_of_int txns);
      ("shards", string_of_int shards);
    ]
  in
  (* Every fourth transaction escalates to a second object on a
     different home shard: the 2PC path, under thread contention. *)
  let other_shard o1 =
    let n = Array.length names in
    let s1 = Sharded_database.shard_of_object sdb o1 in
    let rec find j =
      if j >= n then None
      else if Sharded_database.shard_of_object sdb names.(j) <> s1 then
        Some names.(j)
      else find (j + 1)
    in
    find 0
  in
  let deposited = ref 0 in
  let lock = Mutex.create () in
  let worker i =
    for k = 1 to txns do
      (* Deterministic per-(seed, thread, txn) amount, so the serial
         expectation is reproducible for a pinned seed. *)
      let amount = 1 + ((seed + (i * 31) + (k * 7)) mod 5) in
      let o1 = names.((i + k) mod Array.length names) in
      let o2 = if k mod 4 = 0 then other_shard o1 else None in
      match
        Concurrent.with_txn ~max_attempts:1000 db (fun h ->
            ignore (Concurrent.invoke h ~obj:o1 (deposit amount));
            Option.iter
              (fun obj -> ignore (Concurrent.invoke h ~obj (deposit amount)))
              o2)
      with
      | Ok () ->
          Mutex.lock lock;
          deposited :=
            !deposited + if Option.is_some o2 then 2 * amount else amount;
          Mutex.unlock lock
      | Error (`Gave_up attempts) ->
          fail "thread %d txn %d gave up after %d attempts" i k attempts
    done
  in
  let handles = List.init threads (fun i -> Thread.create worker i) in
  List.iter Thread.join handles;

  let committed = Concurrent.committed_count db in
  let reg = Sharded_database.metrics sdb in
  let cross = Metrics.counter_value reg "tm_shard_cross_txn_total" in
  let forces = Metrics.counter_total reg "tm_wal_forces_total" in
  let batch_sum, batch_count =
    Array.fold_left
      (fun (sum, count) sh ->
        let h = Metrics.histogram (Shard.metrics sh) "tm_wal_group_commit_batch" in
        (sum +. Metrics.Histogram.sum h, count + Metrics.Histogram.count h))
      (0., 0) (Sharded_database.shards sdb)
  in
  let mean_batch =
    if batch_count = 0 then 0. else batch_sum /. float_of_int batch_count
  in

  (* Serial expectation: all deposits commute, so with enough retry
     budget every transaction commits and the balances are their sum. *)
  if committed <> threads * txns then
    fail "committed %d of %d transactions" committed (threads * txns);
  let live = sum_deposits (Sharded_database.objects sdb) in
  if live <> !deposited then
    fail "engine applied deposits summing %d, workers committed %d" live
      !deposited;
  let balances =
    Array.fold_left
      (fun acc obj ->
        match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj balance) with
        | Ok (Value.Int b) -> acc + b
        | Ok v ->
            fail "unexpected balance %a on %s" Value.pp v obj;
            acc
        | Error (`Gave_up _) ->
            fail "balance transaction on %s gave up" obj;
            acc)
      0 names
  in
  if balances <> !deposited then
    fail "balances sum to %d but committed deposits sum to %d" balances
      !deposited;

  (* Group commit must have amortised the barrier.  With several
     shards each cross-shard commit forces its prepares and decision,
     so only the one-shard run is held to this. *)
  if shards = 1 && forces >= committed then
    fail "%d fsyncs for %d commits: no batching formed" forces committed;
  if shards > 1 && cross = 0 then
    fail "no cross-shard transaction ran (2PC path never exercised)";

  (* What was acknowledged must be on the devices: reload every shard's
     bytes and recover through the real cross-shard path. *)
  Sharded_database.flush sdb;
  (match
     Array.map
       (fun st ->
         match Disk_wal.load st with
         | Ok dw -> Disk_wal.wal dw
         | Error c -> Fmt.failwith "%a" Wal.Codec.pp_corruption c)
       stores
   with
  | exception Failure msg -> fail "persisted shard log corrupt: %s" msg
  | reloaded -> (
      match Sharded_database.recover ~wals:reloaded ~rebuild:objs () with
      | Error e ->
          fail "recovery from persisted logs failed: %a"
            Tm_engine.Recovery.pp_error e
      | Ok (rdb, _) ->
          let r = sum_deposits (Sharded_database.objects rdb) in
          if r <> !deposited then
            fail "recovered deposits sum %d, workers committed %d" r !deposited)
  );

  if verbose || !failures > 0 then
    Fmt.pr
      "stresstest: %d shards, %d threads x %d txns: %d committed (%d \
       cross-shard 2PC), %d fsyncs (%.2f commits/fsync, mean batch %.1f), \
       %d futile wakeups, %d retries@."
      shards threads txns committed cross forces
      (if forces = 0 then 0. else float_of_int committed /. float_of_int forces)
      mean_batch
      (Concurrent.futile_wakeup_count db)
      (Concurrent.retry_count db);
  (* Dumps use the same artifact formats as weihl simulate.  Threaded
     timestamps still interleave deterministically per event (the
     recorder's clock is atomic under its mutex), though the
     interleaving itself is scheduling-dependent. *)
  (match (trace_file, trace) with
  | Some file, Some tr ->
      Cli_util.write_traces ~seed ~config file
        (Tm_obs.Trace.to_jsonl
           ~extra:
             [
               ("scenario", "stresstest");
               ("setup", "UIP+NRBC");
               ("shards", string_of_int shards);
               ("seed", string_of_int seed);
             ]
           tr);
      (* The trace is the run's history: check what it recorded. *)
      let env = Atomicity.env_of_list (List.map Atomic_object.spec (objs ())) in
      let v = Atomicity.dynamic_atomic env (Tm_obs.Trace.to_history tr) in
      if not (Atomicity.is_ok v) then fail "traced history: %a" Atomicity.pp_verdict v
  | _ -> ());
  Option.iter
    (fun file -> Cli_util.write_metrics ~seed ~config file (Metrics.to_prometheus reg))
    metrics_file;
  if !failures > 0 then exit 1;
  Fmt.pr "stresstest: OK (%d commits over %d fsyncs, %d cross-shard)@."
    committed forces cross

open Cmdliner

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads"; "j" ] ~doc:"OS threads.")

let txns_arg =
  Arg.(value & opt int 50 & info [ "txns"; "n" ] ~doc:"Transactions per thread.")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Seed for the deposit amounts.")

let force_delay_arg =
  Arg.(
    value & opt float 0.0005
    & info [ "force-delay" ] ~docv:"SECONDS"
        ~doc:"Simulated device barrier latency (what makes batching form).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the run summary even on success.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record transaction spans and write them to $(docv) as JSON lines.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a Prometheus text snapshot of the run's registry to $(docv).")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard WALs of the engine.  With more than one, every fourth \
           transaction per thread touches a second shard and commits \
           through 2PC.  With --trace, one shared recorder spans all \
           shards, so the dump carries the cross-shard \
           prepare/decision/completion spans.")

let cmd =
  let doc = "threaded group-commit stress against the durable engine" in
  Cmd.v
    (Cmd.info "stresstest" ~doc)
    Term.(
      const main $ threads_arg $ txns_arg $ seed_arg $ force_delay_arg $ verbose_arg
      $ trace_arg $ metrics_arg $ shards_arg)

let () = exit (Cmd.eval cmd)
