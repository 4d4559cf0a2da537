open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type runtime = {
  enter : unit -> unit;
  leave : unit -> unit;
  wait : Tid.t -> unit;
  broadcast : unit -> unit;
  backoff : int -> unit;
}

type t = {
  db : Sharded_database.t;
  (* The monitor: every invocation runs under it, so a waiter's retry
     and its [wait] are atomic with respect to the broadcast that
     follows each state change.  The engine's own locks serialise
     engine calls; a commit runs outside the monitor. *)
  rt : runtime;
  (* Transactions condemned by another thread's deadlock detection; they
     notice at their next wake-up or engine call. *)
  doomed : (Tid.t, unit) Hashtbl.t;
  (* What each waiter waits on, [Blocked] or [No_response]; emptied by
     every broadcast, which wakes them all. *)
  waiting : (Tid.t, Atomic_object.outcome) Hashtbl.t;
  mutable active : int;  (* [with_txn] calls in progress *)
  (* Counted in the engine-level registry, where [Experiment] rows read
     them. *)
  c_victims : Metrics.counter;
  c_retries : Metrics.counter;
  c_gave_up : Metrics.counter;
  c_futile : Metrics.counter;
  c_stall_victims : Metrics.counter;
}

type handle = {
  sys : t;
  tid : Tid.t;
}

exception Aborted

(* Capped exponential from 0.2 ms to 20 ms with deterministic jitter:
   the delay depends only on the attempt number (a Weyl-sequence hash
   spreads threads that fail in lockstep), so runs stay reproducible. *)
let backoff attempt =
  let d = min 0.02 (0.0002 *. (2. ** float_of_int (min (attempt - 1) 24))) in
  let h = (attempt * 0x9E3779B1) land 0xFFFF in
  Thread.delay (d *. (0.5 +. (0.5 *. float_of_int h /. 65536.)))

let threads () =
  let m = Mutex.create () and c = Condition.create () in
  {
    enter = (fun () -> Mutex.lock m);
    leave = (fun () -> Mutex.unlock m);
    wait = (fun _ -> Condition.wait c m);
    broadcast = (fun () -> Condition.broadcast c);
    backoff;
  }

let create ?(runtime = threads ()) db =
  let reg = Sharded_database.registry db in
  {
    db;
    rt = runtime;
    doomed = Hashtbl.create 8;
    waiting = Hashtbl.create 8;
    active = 0;
    c_victims = Metrics.counter reg "tm_deadlock_victims_total";
    c_retries = Metrics.counter reg "tm_txn_retries_total";
    c_gave_up = Metrics.counter reg "tm_txn_gave_up_total";
    c_futile = Metrics.counter reg "tm_futile_wakeups_total";
    c_stall_victims = Metrics.counter reg "tm_stall_victims_total";
  }

let tid h = h.tid

let locked t f =
  t.rt.enter ();
  Fun.protect ~finally:t.rt.leave f

(* Must hold the lock. *)
let wake_all t =
  Hashtbl.clear t.waiting;
  t.rt.broadcast ()

(* Must hold the lock.  Abort the transaction, wake everyone, raise. *)
let abort_self t tid =
  Hashtbl.remove t.doomed tid;
  Sharded_database.abort t.db tid;
  wake_all t;
  raise Aborted

let check_doom t tid = if Hashtbl.mem t.doomed tid then abort_self t tid

(* Must hold the lock.  Break any waits-for cycle, on one shard or
   across several, by dooming its youngest member; if that is the
   caller, abort right here.  A cycle whose victim is already doomed
   stays in the graph until the victim wakes and aborts; finding it
   again changes nothing. *)
let break_deadlock t tid =
  match Sharded_database.deadlock t.db with
  | None -> ()
  | Some cycle ->
      let victim = Deadlock.victim cycle in
      if not (Hashtbl.mem t.doomed victim) then begin
        Metrics.Counter.incr t.c_victims;
        (match Sharded_database.trace t.db with
        | None -> ()
        | Some tr -> Trace.emit tr ~tid:victim (Trace.Deadlock_victim { cycle }));
        if Tid.equal victim tid then abort_self t tid
        else begin
          Hashtbl.replace t.doomed victim ();
          wake_all t
        end
      end

(* Must hold the lock.  Break a stall: every active transaction waits,
   none is doomed and there is no waits-for cycle, so each blocked
   waiter's chain ends at a waiter for a response holding a lock the
   chain needs.  The youngest such holder is doomed and woken like a
   deadlock victim.  No other waiter is chosen: one blocked on a tid
   waits for its holder, and a waiter for a response that nobody
   blocked needs can only be answered by a transaction yet to start. *)
let break_stall t =
  if Hashtbl.length t.waiting = t.active && Hashtbl.length t.doomed = 0 then
    let on_tids _ w acc = match w with Atomic_object.Blocked on -> on @ acc | _ -> acc in
    let awaited = Hashtbl.fold on_tids t.waiting [] in
    let youngest tid w v =
      match w with
      | Atomic_object.No_response when List.mem tid awaited -> max (Some tid) v
      | _ -> v
    in
    match Hashtbl.fold youngest t.waiting None with
    | Some victim when Sharded_database.deadlock t.db = None ->
        Metrics.Counter.incr t.c_stall_victims;
        Hashtbl.replace t.doomed victim ();
        wake_all t
    | _ -> ()

(* Must hold the lock.  An optimistic transaction gets no response when
   a later commit has emptied its view: what it read no longer fits the
   committed state, so no response can come, and it would fail
   validation at commit.  It is validated here and, if it fails,
   aborted at once for [with_txn] to retry.  One that passes (a
   consumer with nothing to take yet) waits for its producer. *)
let check_view t tid obj =
  if Atomic_object.policy (Sharded_database.find_object t.db obj) = Atomic_object.Optimistic
     && Result.is_error (Sharded_database.validate t.db tid)
  then abort_self t tid

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
        match Sharded_database.invoke ?choose t.db h.tid ~obj inv with
        | Atomic_object.Executed op ->
            (* state changed: a waiter's partial operation may now have a
               response *)
            wake_all t;
            op.Op.res
        | (Atomic_object.Blocked _ | Atomic_object.No_response) as outcome ->
            if woken then Metrics.Counter.incr t.c_futile;
            (match outcome with
            | Atomic_object.Blocked _ -> break_deadlock t h.tid
            | _ -> check_view t h.tid obj);
            (* Record what this waits on; that may complete a stall. *)
            Hashtbl.replace t.waiting h.tid outcome;
            break_stall t;
            check_doom t h.tid;
            t.rt.wait h.tid;
            attempt ~woken:true ()
      in
      attempt ~woken:false ())

(* A stall victim that restarted at once would take its lock back
   before the waiters it was aborted for re-enter the monitor, and be
   chosen again until it gave up; the runtime's backoff lets them go
   first. *)
let with_txn ?(max_attempts = 50) t f =
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
      t.rt.backoff attempt;
      Some (attempt + 1)
    end
  in
  let rec go attempt =
    let tid = Sharded_database.begin_txn t.db in
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
              (try Sharded_database.abort t.db tid with Invalid_argument _ -> ());
              Hashtbl.remove t.doomed tid;
              wake_all t);
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
        (* Stage 1 — validate, append, apply; on several shards the
           whole 2PC with its forces — runs outside the monitor, under
           the engine's own locks; then the monitor wakes the waiters.
           Stage 2, the durability wait, comes after.  A committing
           transaction waits on nothing, so it can never be in a
           waits-for cycle; only a dying flusher can stall stage 2, and
           {!Wal.force_upto} hands its round to a parked waiter. *)
        match locked t (fun () -> check_doom t tid) with
        | exception Aborted -> next ()
        | () -> (
            let staged = Sharded_database.try_commit_nowait t.db tid in
            locked t (fun () ->
                Hashtbl.remove t.doomed tid;
                wake_all t);
            match staged with
            | Ok pending ->
                Sharded_database.wait_durable t.db pending;
                Ok result
            | Error _ -> next ()))
  in
  locked t (fun () -> t.active <- t.active + 1);
  (* A caller that leaves may leave the rest all waiting. *)
  let leave () = locked t (fun () -> t.active <- t.active - 1; break_stall t) in
  Fun.protect ~finally:leave (fun () -> go 1)

let awaits_response t tid =
  locked t (fun () -> Hashtbl.find_opt t.waiting tid = Some Atomic_object.No_response)

let committed_count t = Sharded_database.committed_count t.db
let deadlock_victim_count t = locked t (fun () -> Metrics.Counter.get t.c_victims)
let retry_count t = locked t (fun () -> Metrics.Counter.get t.c_retries)
let futile_wakeup_count t = locked t (fun () -> Metrics.Counter.get t.c_futile)
