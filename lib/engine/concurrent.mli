(** The thread-safe blocking front end: a wait, retry and deadlock
    layer over one engine type, {!Sharded_database}.

    Operations {e block} — under a monitor — until the conflict-based
    locking admits them.  The monitor and the backoff delay come from a
    {!runtime}: OS threads by default ({!threads}), or the seeded fibers
    of [Tm_sim.Fiber], which run the same rules deterministically on
    one domain for the paper's tables and the reproducible tests.  Deadlocks, including
    cycles that thread through several shards, are found in the one
    waits-for graph of every shard ({!Sharded_database.deadlock}) and
    broken by aborting the youngest transaction in the cycle.

    A partial operation with no response waits for a state change, not
    a tid, so it can stall every transaction without a cycle.  When all
    of them wait and there is no cycle, the youngest waiter for a
    response that holds a lock a blocked transaction waits for is
    aborted as a stall victim ([tm_stall_victims_total]).  A waiter for
    a response that no blocked transaction needs is left waiting: only
    a transaction yet to start can answer it.  Aborted transactions are
    retried transparently by {!with_txn}.

    A commit is the engine's staged commit: the apply stage
    ({!Sharded_database.try_commit_nowait} — on several shards the
    whole 2PC with its forces) runs outside the monitor, which then
    wakes every waiter; the durability wait
    ({!Sharded_database.wait_durable}) comes after, and [with_txn]
    acknowledges [Ok] only once it returns.  The monitor is never held
    across a force.

    The caller builds and keeps the engine.  Without a storage device,
    sink-less logs make an in-memory engine, durable by fiat:

    {[
      let account = Atomic_object.create ~spec ~conflict ~recovery () in
      let engine = Sharded_database.create ~wals:[| Wal.create () |] [ account ] in
      let db = Concurrent.create engine in
      match
        Concurrent.with_txn db (fun h ->
            let _ = Concurrent.invoke h ~obj:"BA"
                      (Op.invocation ~args:[ Value.int 5 ] "deposit") in
            Concurrent.invoke h ~obj:"BA" (Op.invocation "balance"))
      with
      | Ok balance -> ...
      | Error (`Gave_up attempts) -> ...
    ]}

    The counters below live in {!Sharded_database.registry}, so
    {!Sharded_database.metrics} reports them without a [shard] label,
    and [Deadlock_victim] spans reach the recorder given to
    {!Sharded_database.set_trace}. *)

open Tm_core

type t

(** The blocking primitives [Concurrent] needs: a monitor ([enter] and
    [leave] it; [wait tid] releases it, parks the caller running [tid]
    until the next [broadcast], and re-enters it) and the default
    backoff before a retry ([backoff n] after failed attempt [n],
    called outside the monitor).  No engine call ever runs between
    [wait] and its wake-up, and none waits on the runtime. *)
type runtime = {
  enter : unit -> unit;
  leave : unit -> unit;
  wait : Tid.t -> unit;
  broadcast : unit -> unit;
  backoff : int -> unit;
}

(** [threads ()] — a fresh monitor on systhreads ([Mutex] and
    [Condition]).  Its backoff is capped exponential (0.2 ms doubling
    per attempt, clamped to 20 ms) with {e deterministic} jitter derived
    from the attempt number alone: threads that abort in lockstep spread
    out, yet a run's delays are reproducible. *)
val threads : unit -> runtime

(** [create ?runtime engine]; [runtime] defaults to [threads ()]. *)
val create : ?runtime:runtime -> Sharded_database.t -> t

(** A handle on a running transaction; only valid within the callback of
    {!with_txn} and on the thread (or fiber) that owns it. *)
type handle

val tid : handle -> Tid.t

exception Aborted
(** Raised inside the callback when this transaction was chosen as a
    deadlock or stall victim, or failed optimistic validation on a
    partial operation with no response (see {!invoke}).  {!with_txn}
    catches it and retries; re-raise it if caught. *)

(** [invoke h ~obj inv] executes the invocation, blocking while it
    conflicts with other active transactions or (for a partial operation)
    while it has no legal response.  Raises {!Aborted} if the transaction
    is selected as a deadlock victim while waiting or doomed by another
    thread's detection.  At an optimistic object, no response may mean
    that a later commit emptied the transaction's view; the transaction
    is then validated ({!Sharded_database.validate}), and aborted with
    {!Aborted} if it fails, rather than left waiting for a response that
    cannot come. *)
val invoke : ?choose:(Value.t list -> Value.t) -> handle -> obj:string ->
  Op.invocation -> Value.t

(** [with_txn db f] begins a transaction, runs [f], and commits (with
    optimistic validation where applicable).  On {!Aborted} the
    transaction is rolled back and [f] retried from scratch, for at most
    [max_attempts] attempts in total (default 50).  Before each retry the
    runtime's [backoff] is called — outside the monitor — with the
    number of the attempt that just failed (1-based): a stall victim
    must not restart ahead of the waiters it was aborted for, or it
    retakes their lock before they re-enter the monitor and is chosen
    again until it gives up.  When
    the attempt budget is exhausted the transaction {e gives up}: the
    result is [Error (`Gave_up attempts)] and [tm_txn_gave_up_total] is
    bumped. *)
val with_txn :
  ?max_attempts:int -> t -> (handle -> 'a) -> ('a, [ `Gave_up of int ]) result

(** [awaits_response t tid] — [tid] is parked in {!invoke} on a partial
    operation with no legal response, not on a conflict, and no
    broadcast has woken it since. *)
val awaits_response : t -> Tid.t -> bool

(** Run statistics. *)

(** Committed transactions ({!Sharded_database.committed_count}: each
    counted once, however many shards it touched). *)
val committed_count : t -> int

(** Transactions aborted as deadlock victims
    ([tm_deadlock_victims_total]). *)
val deadlock_victim_count : t -> int

(** Transparent {!with_txn} retries: deadlock-victim and stall-victim
    restarts plus optimistic validation failures
    ([tm_txn_retries_total]) — each aborted-and-retried transaction
    counted once. *)
val retry_count : t -> int

(** Broadcast wake-ups after which the woken waiter was still blocked
    (or still had no legal response) and re-blocked without progress
    ([tm_futile_wakeups_total]) — the price of the monitor's broadcast
    discipline. *)
val futile_wakeup_count : t -> int
