open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

(* Either the plain in-memory database or the write-ahead-logged one.
   The durable backend routes invoke/commit/abort through
   {!Durable_database} so operations and outcomes reach the WAL; both
   share the same [Database.t] underneath for metrics/trace/history. *)
type backend = Plain | Durable of Durable_database.t

type t = {
  db : Database.t;
  backend : backend;
  lock : Mutex.t;
  changed : Condition.t;
  (* Transactions condemned by another thread's deadlock detection; they
     notice at their next wake-up or engine call. *)
  doomed : (Tid.t, unit) Hashtbl.t;
  (* Previously these were swallowed internally: every deadlock victim
     and every transparent [with_txn] retry is now counted in the
     database registry (shared metric names with the sim scheduler, so
     [Experiment] rows read one series regardless of driver). *)
  c_victims : Metrics.counter;
  c_retries : Metrics.counter;
  c_gave_up : Metrics.counter;
  c_futile : Metrics.counter;
}

type handle = {
  sys : t;
  tid : Tid.t;
}

exception Aborted

let make db backend =
  let reg = Database.metrics db in
  {
    db;
    backend;
    lock = Mutex.create ();
    changed = Condition.create ();
    doomed = Hashtbl.create 8;
    c_victims = Metrics.counter reg "tm_deadlock_victims_total";
    c_retries = Metrics.counter reg "tm_txn_retries_total";
    c_gave_up = Metrics.counter reg "tm_txn_gave_up_total";
    c_futile = Metrics.counter reg "tm_futile_wakeups_total";
  }

let create ?record_history objs = make (Database.create ?record_history objs) Plain

let create_durable ?record_history ~wal objs =
  let dd = Durable_database.create ?record_history ~wal objs in
  make (Durable_database.database dd) (Durable dd)

let tid h = h.tid

let backend_invoke ?choose t tid ~obj inv =
  match t.backend with
  | Plain -> Database.invoke ?choose t.db tid ~obj inv
  | Durable dd -> Durable_database.invoke ?choose dd tid ~obj inv

let backend_abort t tid =
  match t.backend with
  | Plain -> Database.abort t.db tid
  | Durable dd -> Durable_database.abort dd tid

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Must hold the lock.  Abort the transaction, wake everyone, raise. *)
let abort_self t tid =
  Hashtbl.remove t.doomed tid;
  backend_abort t tid;
  Condition.broadcast t.changed;
  raise Aborted

let check_doom t tid = if Hashtbl.mem t.doomed tid then abort_self t tid

(* Must hold the lock.  Break any waits-for cycle by dooming its youngest
   member; if that is the caller, abort right here. *)
let break_deadlock t tid =
  match Database.deadlock t.db with
  | None -> ()
  | Some cycle ->
      let victim = Deadlock.victim cycle in
      Metrics.Counter.incr t.c_victims;
      if Database.tracing t.db then
        Database.emit_trace t.db ~tid:victim (Trace.Deadlock_victim { cycle });
      if Tid.equal victim tid then abort_self t tid
      else begin
        Hashtbl.replace t.doomed victim ();
        Condition.broadcast t.changed
      end

let invoke ?choose h ~obj inv =
  let t = h.sys in
  locked t (fun () ->
      (* [woken]: this attempt follows a broadcast wake-up.  If it still
         cannot run, the wake-up was futile — the monitor's broadcast
         woke a waiter whose conflict had not actually cleared — and is
         counted so the cost of broadcast (vs. targeted) wake-ups is
         visible. *)
      let rec attempt ~woken () =
        check_doom t h.tid;
        match backend_invoke ?choose t h.tid ~obj inv with
        | Atomic_object.Executed op ->
            (* state changed: a waiter's partial operation may now have a
               response *)
            Condition.broadcast t.changed;
            op.Op.res
        | Atomic_object.Blocked _ ->
            if woken then Metrics.Counter.incr t.c_futile;
            break_deadlock t h.tid;
            Condition.wait t.changed t.lock;
            attempt ~woken:true ()
        | Atomic_object.No_response ->
            if woken then Metrics.Counter.incr t.c_futile;
            Condition.wait t.changed t.lock;
            attempt ~woken:true ()
      in
      attempt ~woken:false ())

let default_backoff ?(base = 0.0002) ?(cap = 0.02) () =
  (* Capped exponential with deterministic jitter: the delay depends
     only on the attempt number (Weyl-sequence hash spreads threads that
     fail in lockstep), so runs stay reproducible. *)
  if not (base > 0. && cap >= base) then
    invalid_arg "Concurrent.default_backoff: need 0 < base <= cap";
  fun attempt ->
    let d = min cap (base *. (2. ** float_of_int (min (attempt - 1) 24))) in
    let h = (attempt * 0x9E3779B1) land 0xFFFF in
    Thread.delay (d *. (0.5 +. (0.5 *. float_of_int h /. 65536.)))

let with_txn ?(max_attempts = 50) ?(backoff = fun _ -> ()) t f =
  if max_attempts < 1 then invalid_arg "Concurrent.with_txn: max_attempts < 1";
  (* [attempt] is the number of the attempt about to run (1-based).  A
     retry first counts the metric, then runs the backoff hook OUTSIDE
     the monitor — a sleeping backoff must not block other threads. *)
  let retry attempt =
    if attempt >= max_attempts then begin
      Metrics.Counter.incr t.c_gave_up;
      None
    end
    else begin
      Metrics.Counter.incr t.c_retries;
      backoff attempt;
      Some (attempt + 1)
    end
  in
  let rec go attempt =
    let tid = locked t (fun () -> Database.begin_txn t.db) in
    let h = { sys = t; tid } in
    let body =
      (* [Aborted] escapes [invoke] only after the transaction has been
         aborted in the database; any other exception leaves it running
         and must roll it back before propagating. *)
      match f h with
      | result -> `Done result
      | exception Aborted -> `Retry
      | exception e ->
          locked t (fun () ->
              (try backend_abort t tid with Invalid_argument _ -> ());
              Hashtbl.remove t.doomed tid;
              Condition.broadcast t.changed);
          raise e
    in
    let next () =
      match retry attempt with
      | Some attempt -> go attempt
      | None -> Error (`Gave_up attempt)
    in
    match body with
    | `Retry -> next ()
    | `Done result -> (
        (* Stage 1 under the monitor: validate, append the commit
           record, apply, wake waiters.  Stage 2 — parking on the
           flushed-LSN watermark — happens OUTSIDE the monitor, so
           invokers and deadlock detection proceed while a group-commit
           batch is in flight.  A committer parked there has already
           left the engine (its commit is applied, its locks released),
           so it can never be a deadlock victim; the only hazard is a
           dying flusher, which {!Wal.force_upto} handles by handing the
           round to a parked waiter. *)
        match
          locked t (fun () ->
              check_doom t tid;
              match t.backend with
              | Plain -> (
                  match Database.try_commit t.db tid with
                  | Ok () ->
                      Condition.broadcast t.changed;
                      `Committed None
                  | Error _ ->
                      (* try_commit aborted the transaction *)
                      Hashtbl.remove t.doomed tid;
                      Condition.broadcast t.changed;
                      `Validation_failed)
              | Durable dd -> (
                  match Durable_database.try_commit_nowait dd tid with
                  | Ok lsn ->
                      Condition.broadcast t.changed;
                      `Committed (Some (dd, lsn))
                  | Error _ ->
                      Hashtbl.remove t.doomed tid;
                      Condition.broadcast t.changed;
                      `Validation_failed))
        with
        | `Committed wait ->
            (match wait with
            | None -> ()
            | Some (dd, lsn) -> Durable_database.wait_durable dd tid lsn);
            Ok result
        | `Validation_failed -> next ()
        | exception Aborted -> next ())
  in
  go 1

let committed_count t = locked t (fun () -> Database.committed_count t.db)
let aborted_count t = locked t (fun () -> Database.aborted_count t.db)
let deadlock_victim_count t = locked t (fun () -> Metrics.Counter.get t.c_victims)
let retry_count t = locked t (fun () -> Metrics.Counter.get t.c_retries)
let gave_up_count t = locked t (fun () -> Metrics.Counter.get t.c_gave_up)
let futile_wakeup_count t = locked t (fun () -> Metrics.Counter.get t.c_futile)
let history t = locked t (fun () -> Database.history t.db)
let database t = t.db
let durable_database t = match t.backend with Plain -> None | Durable dd -> Some dd
