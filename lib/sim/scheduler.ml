open Tm_core
module Database = Tm_engine.Database
module Atomic_object = Tm_engine.Atomic_object
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type config = {
  concurrency : int;
  total_txns : int;
  seed : int;
  max_rounds : int;
  max_retries : int;
}

let config ?(concurrency = 8) ?(total_txns = 100) ?(seed = 42) ?(max_rounds = 100_000)
    ?(max_retries = 20) () =
  { concurrency; total_txns; seed; max_rounds; max_retries }

type stats = {
  committed : int;
  deadlock_aborts : int;
  livelock_aborts : int;
  validation_aborts : int;
  gave_up : int;
  rounds : int;
  attempts : int;
  executed : int;
  blocked : int;
  no_response : int;
  active_sum : int;
}

let avg_active s = if s.rounds = 0 then 0. else float_of_int s.active_sum /. float_of_int s.rounds

let efficiency s =
  if s.attempts = 0 then 0. else float_of_int s.committed /. float_of_int s.attempts

let pp_stats ppf s =
  Fmt.pf ppf
    "committed %d; aborts %d (deadlock) + %d (livelock) + %d (validation); gave up %d; \
     rounds %d; attempts %d (executed %d, blocked %d, no-response %d); avg active %.2f; \
     efficiency %.3f"
    s.committed s.deadlock_aborts s.livelock_aborts s.validation_aborts s.gave_up
    s.rounds s.attempts
    s.executed s.blocked s.no_response (avg_active s) (efficiency s)

type active_txn = {
  tid : Tid.t;
  program : Workload.program;  (* full program, for restarts *)
  mutable remaining : Workload.program;
  retries : int;
}

(* The transaction-facing surface of a database, so one scheduling loop
   drives both the plain {!Tm_engine.Database} and the WAL-backed
   {!Tm_engine.Durable_database} (whose durable runs the crash-injection
   harness tortures).  [db] is the underlying database, used for
   scheduler metrics, deadlock detection and trace spans. *)
type ops = {
  begin_txn : unit -> Tid.t;
  invoke :
    choose:(Value.t list -> Value.t) ->
    Tid.t -> obj:string -> Op.invocation -> Atomic_object.outcome;
  try_commit : Tid.t -> (unit, string * Op.t * Op.t) result;
  abort : Tid.t -> unit;
  on_commit : unit -> unit;  (* post-commit hook: durable checkpoints *)
}

let run_ops db ops (workload : Workload.t) cfg =
  let rng = Random.State.make [| cfg.seed |] in
  (* Scheduler-level series in the database registry; the victim/retry
     counters share their names with [Tm_engine.Concurrent] so consumers
     read one series regardless of driver. *)
  let reg = Database.metrics db in
  let c_rounds = Metrics.counter reg "tm_sched_rounds_total" in
  let c_victims = Metrics.counter reg "tm_deadlock_victims_total" in
  let c_retries = Metrics.counter reg "tm_txn_retries_total" in
  let c_gave_up = Metrics.counter reg "tm_txn_gave_up_total" in
  let g_active = Metrics.gauge reg "tm_sched_active_txns" in
  let h_active = Metrics.histogram reg "tm_sched_active_txns_per_round" in
  let pending = Queue.create () in
  for _ = 1 to cfg.total_txns do
    Queue.add (workload.generate rng, 0) pending
  done;
  let active : active_txn list ref = ref [] in
  let stats =
    ref
      {
        committed = 0;
        deadlock_aborts = 0;
        livelock_aborts = 0;
        validation_aborts = 0;
        gave_up = 0;
        rounds = 0;
        attempts = 0;
        executed = 0;
        blocked = 0;
        no_response = 0;
        active_sum = 0;
      }
  in
  let bump f = stats := f !stats in
  let admit () =
    while List.length !active < cfg.concurrency && not (Queue.is_empty pending) do
      let program, retries = Queue.pop pending in
      let tid = ops.begin_txn () in
      active := !active @ [ { tid; program; remaining = program; retries } ]
    done
  in
  let remove tid = active := List.filter (fun t -> not (Tid.equal t.tid tid)) !active in
  let abort_and_requeue reason t =
    (match reason with
    | `Validation ->
        (* Database.try_commit already aborted the transaction. *)
        bump (fun s -> { s with validation_aborts = s.validation_aborts + 1 })
    | `Deadlock ->
        ops.abort t.tid;
        bump (fun s -> { s with deadlock_aborts = s.deadlock_aborts + 1 })
    | `Livelock ->
        ops.abort t.tid;
        bump (fun s -> { s with livelock_aborts = s.livelock_aborts + 1 }));
    remove t.tid;
    if t.retries < cfg.max_retries then begin
      Metrics.Counter.incr c_retries;
      Queue.add (t.program, t.retries + 1) pending
    end
    else begin
      Metrics.Counter.incr c_gave_up;
      bump (fun s -> { s with gave_up = s.gave_up + 1 })
    end
  in
  let shuffle l =
    let arr = Array.of_list l in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  let choose values = List.nth values (Random.State.int rng (List.length values)) in
  let find_active tid = List.find_opt (fun t -> Tid.equal t.tid tid) !active in
  let progressed = ref false in
  let step t =
    match t.remaining with
    | [] -> (
        match ops.try_commit t.tid with
        | Ok () ->
            remove t.tid;
            bump (fun s -> { s with committed = s.committed + 1 });
            ops.on_commit ();
            progressed := true
        | Error _ ->
            abort_and_requeue `Validation t;
            progressed := true)
    | (obj, inv) :: rest -> (
        bump (fun s -> { s with attempts = s.attempts + 1 });
        match ops.invoke ~choose t.tid ~obj inv with
        | Atomic_object.Executed _ ->
            t.remaining <- rest;
            bump (fun s -> { s with executed = s.executed + 1 });
            progressed := true
        | Atomic_object.Blocked _ -> (
            bump (fun s -> { s with blocked = s.blocked + 1 });
            match Database.deadlock db with
            | Some cycle -> (
                let victim = Tm_engine.Deadlock.victim cycle in
                match find_active victim with
                | Some v ->
                    Metrics.Counter.incr c_victims;
                    if Database.tracing db then
                      Database.emit_trace db ~tid:victim (Trace.Deadlock_victim { cycle });
                    abort_and_requeue `Deadlock v
                | None -> ())
            | None -> ())
        | Atomic_object.No_response ->
            bump (fun s -> { s with no_response = s.no_response + 1 }))
  in
  let rec loop round =
    admit ();
    if !active = [] || round >= cfg.max_rounds then
      bump (fun s -> { s with rounds = round })
    else begin
      let n_active = List.length !active in
      Metrics.Counter.incr c_rounds;
      Metrics.Gauge.set g_active (float_of_int n_active);
      Metrics.Histogram.observe_int h_active n_active;
      bump (fun s -> { s with active_sum = s.active_sum + n_active });
      progressed := false;
      List.iter (fun t -> if find_active t.tid <> None then step t) (shuffle !active);
      if (not !progressed) && !active <> [] then begin
        (* No transaction advanced and there is no waits-for cycle (else a
           victim would have been taken): some are stalled on partial
           operations and the rest wait behind them — break the livelock
           by aborting the youngest. *)
        match List.rev !active with
        | youngest :: _ -> abort_and_requeue `Livelock youngest
        | [] -> ()
      end;
      loop (round + 1)
    end
  in
  loop 0;
  !stats

let run db workload cfg =
  run_ops db
    {
      begin_txn = (fun () -> Database.begin_txn db);
      invoke = (fun ~choose tid ~obj inv -> Database.invoke ~choose db tid ~obj inv);
      try_commit = (fun tid -> Database.try_commit db tid);
      abort = (fun tid -> Database.abort db tid);
      on_commit = ignore;
    }
    workload cfg

let run_durable ?(checkpoint_every = 0) ?(group_commit = 1) dd workload cfg =
  let module DD = Tm_engine.Durable_database in
  if group_commit < 1 then invalid_arg "Scheduler.run_durable: group_commit < 1";
  let commits = ref 0 in
  (* Committers parked on the durability watermark: committed in the log
     but not yet acknowledged.  Mirrored in the trace as a
     [wal_flush_wait .. durable] span per transaction, the flush wait
     group commit introduces. *)
  let parked : (Tid.t * int) list ref = ref [] in
  let db = DD.database dd in
  let release_parked () =
    if Tm_engine.Database.tracing db then
      List.iter
        (fun (tid, lsn) ->
          Tm_engine.Database.emit_trace db ~tid (Tm_obs.Trace.Durable { lsn }))
        (List.rev !parked);
    parked := []
  in
  let stats =
    run_ops db
      {
        begin_txn = (fun () -> DD.begin_txn dd);
        invoke = (fun ~choose tid ~obj inv -> DD.invoke ~choose dd tid ~obj inv);
        (* Deterministic group commit: stage 1 only (validate / append /
           apply); durability is awaited at the batch boundary in
           [on_commit], so a disk-backed log sees one barrier per
           [group_commit] commits instead of one per commit.  With the
           default [group_commit = 1] every commit is individually
           forced, reproducing the per-commit discipline exactly. *)
        try_commit =
          (fun tid ->
            match DD.try_commit_nowait dd tid with
            | Ok lsn ->
                if Tm_engine.Database.tracing db then
                  Tm_engine.Database.emit_trace db ~tid
                    (Tm_obs.Trace.Wal_flush_wait { upto = lsn });
                parked := (tid, lsn) :: !parked;
                Ok ()
            | Error _ as e -> e);
        abort = (fun tid -> DD.abort dd tid);
        on_commit =
          (fun () ->
            incr commits;
            if !commits mod group_commit = 0 then begin
              DD.flush dd;
              release_parked ()
            end;
            if checkpoint_every > 0 && !commits mod checkpoint_every = 0 then
              DD.checkpoint dd);
      }
      workload cfg
  in
  (* Close the final (possibly partial) batch: nothing the run appended
     is left unforced. *)
  DD.flush dd;
  release_parked ();
  stats
