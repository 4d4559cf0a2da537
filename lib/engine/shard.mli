(** A durable engine: a {!Database} (lock tables, atomic objects) with
    its own {!Wal} (and therefore its own group-commit flusher) and the
    mutex that serialises engine calls into it.  Every shard of a
    {!Sharded_database} is one; the shard knows nothing about the
    others, and all cross-shard coordination lives in the router.

    Every executed operation, commit and abort is appended to the
    {!Wal} before it takes effect, and after a crash {!recover} rebuilds
    the objects from the log: committed operations are redone in commit
    order, and transactions without a commit record are the losers.  As
    the paper observes, crash recovery mirrors abort recovery.
    Transactions that touch several objects need atomic commitment to
    survive crashes: either every object sees the transaction's effects
    after recovery, or none does.  One {!Wal} is shared across the
    engine's objects — operations are logged with their object name
    (carried by {!Tm_core.Op.t}), and a transaction's {e single} commit
    record covers all of them, so recovery is all-or-nothing by
    construction (the logging equivalent of the paper's
    atomic-commitment assumption, Section 2).

    The durable operations below take no lock; a caller that shares
    the engine between threads runs them through {!locked} (or
    {!locked_invoke}). *)

open Tm_core

type t

(** [create ?first_tid ~wal objs] — [first_tid] is passed through to
    {!Database.create} (it seeds the transaction-id allocator; {!recover}
    passes the log's tid high-water mark). *)
val create : ?first_tid:int -> wal:Wal.t -> Atomic_object.t list -> t

val wal : t -> Wal.t

(** The engine's {!Database} (transaction table, objects, metrics
    registry). *)
val database : t -> Database.t

val metrics : t -> Tm_obs.Metrics.t
val begin_txn : t -> Tid.t

(** Executes at [obj] and, when the operation ran, logs it (with the
    transaction's [Begin] before its first operation). *)
val invoke :
  ?choose:(Value.t list -> Value.t) -> t -> Tid.t -> obj:string -> Op.invocation ->
  Atomic_object.outcome

(** {2 The staged commit pipeline}

    Commit is split into two stages so the durability barrier never
    runs under the engine lock.  {!try_commit_nowait} validates,
    appends the commit record (fixing the transaction's place in the
    durable commit order), applies the commit at every touched object,
    and returns the commit record's LSN — all serialised by the
    caller's engine lock.  {!wait_durable} then parks on the WAL's
    flushed-LSN watermark {e outside} that lock (the group-commit
    combiner amortises one fsync over every commit in the batch; see
    {!Wal.force_upto}).  The commit may be acknowledged only after
    {!wait_durable} returns.  Applying before durability is sound
    because a dependent transaction's commit record necessarily lands
    later in the log: a crash losing this commit also loses every
    dependent one (prefix property), so recovery never exposes an
    effect whose commit record was lost. *)

(** Stage 1: validate (for optimistic objects), append the commit
    record, apply.  [Ok lsn] is the commit record's LSN to pass to
    {!wait_durable}; on validation failure the transaction is aborted
    (and its [Abort] logged if it logged a [Begin]). *)
val try_commit_nowait : t -> Tid.t -> (int, string * Op.t * Op.t) result

(** Stage 2: block until the WAL's flushed watermark covers [lsn]
    (emits a [Wal_flush_wait] trace span).  Call without holding the
    engine lock. *)
val wait_durable : t -> Tid.t -> int -> unit

(** [try_commit t tid] is both stages back to back — the per-commit
    durability discipline of single-threaded drivers. *)
val try_commit : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** {2 Two-phase-commit participant half}

    {!Sharded_database} commits a cross-shard transaction by running
    this split on every participant shard: {!prepare} is the phase-1
    vote (validate + log a [Prepare] record whose LSN the caller must
    force before answering yes), {!commit_prepared} or {!abort} the
    phase-2 completion once the coordinator's decision is known, and
    {!decide} the coordinator's decision record.  Between the
    two the transaction stays live — locks held, optimistic intentions
    parked — exactly as between {!invoke} and {!try_commit_nowait}. *)

(** Phase 1: validate at every object and log a [Prepare] record.
    [Ok lsn] is the prepare record's LSN — the caller must
    [Wal.force_upto] it before voting yes (a yes vote is a durable
    promise).  On validation failure the transaction is aborted locally
    (its [Abort] logged if it logged a [Begin]) and the conflicting
    object/operation pair returned — a no vote. *)
val prepare : t -> Tid.t -> (int, string * Op.t * Op.t) result

(** Phase 2 of a commit: log the local [Commit] and apply it; returns its
    LSN.  Not forced: if a crash loses it, the forced [Prepare] survives
    and {!Sharded_database.recover} re-resolves the transaction from the
    decision evidence, an idempotent completion of the same protocol.
    A prepared transaction that is not to commit is rolled back by
    {!abort}. *)
val commit_prepared : t -> Tid.t -> int

(** The coordinator's [Decision { commit = true }]; the caller forces the
    returned LSN, the global commit point. *)
val decide : t -> Tid.t -> int

(** [flush t] forces everything appended so far ({!Sharded_database.flush}
    of every shard). *)
val flush : t -> unit

(** Aborts the transaction; the [Abort] record is logged only when the
    transaction is in flight in the log ({!Wal.in_flight}: it executed
    at least one operation here, or prepared) — aborts of unlogged
    transactions leave the WAL untouched. *)
val abort : t -> Tid.t -> unit

(** [checkpoint t] appends a {e fuzzy} [Checkpoint] record: the committed
    operations in global commit order, every in-flight transaction's
    logged operations, and the tid allocator's high-water mark.  The
    snapshot is read from the log's replay state ({!Wal.checkpoint_of}):
    O(committed + live operations), with no scan of the log's records.
    After a checkpoint the preceding log segment may be dropped with
    {!Wal.truncate_to_checkpoint} without changing replay. *)
val checkpoint : t -> unit

(** [recover ~wal ~rebuild ()] reconstructs the engine after a crash:
    [rebuild] supplies fresh objects (same specs/conflicts/recovery as
    before the crash); each is restored with the committed operations of
    {e its} object from the log.  Returns the engine and the losers,
    or a typed {!Recovery.error} when a replayed sequence violates an
    object's specification, or when the log holds committed operations
    for an object [rebuild] did not supply (dropping them would lose
    committed work).  The caller — crash harness, CLI — reports the
    error instead of catching exceptions.  Transaction-id allocation
    restarts strictly above every tid the log mentions (the replay
    plan's tid high-water mark), so post-crash transactions never merge
    with a pre-crash loser on a later replay.  Replay volume is counted
    as [tm_recovery_replayed_ops_total] in the new database's registry;
    [trace], if given, is attached to it.

    Replay reads the log's replay state ({!Wal.plan_of}) rather than its
    records: the log was already folded as it was appended or loaded,
    so [recover] neither copies nor rescans the records.  Its cost is
    bucketing the committed operations by object, O(committed
    operations), resolving the losers, O(unfinished transactions), and
    restoring each rebuilt object from its bucket in [rebuild] order,
    stopping at the first failure.

    With [profile], the restart profiler is threaded through the
    bucketing (log scan), loser resolution and the per-object restore
    loop; on success the profile is finished, exported as the
    [tm_recovery_*] metric family into the new registry, and emitted as
    one [Recovery_phase] trace span per phase.  Callers that loaded the
    log from storage pass the {e same} profile to {!Disk_wal.load}
    first, so the storage-scan / decode / CRC phases land in the same
    profile. *)
val recover :
  ?trace:Tm_obs.Trace.t -> ?profile:Tm_obs.Recovery_profile.t ->
  wal:Wal.t ->
  rebuild:(unit -> Atomic_object.t list) ->
  unit -> (t * Tid.Set.t, Recovery.error) result

(** {2 Locked calls} *)

(** [run m f x y] is [f x y] with [m] held, unlocked if [f] raises:
    [Mutex.protect] without a closure, for a top-level [f].  The router's
    global sections use it too. *)
val run : Mutex.t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

(** [locked t f x] is [run] of [f t x] under the engine's mutex, and
    [locked_invoke] is {!invoke} under it, adopting the transaction
    ({!Database.adopt_txn}) when [first]; neither builds a closure.  The
    durability wait ({!wait_durable}, {!Wal.force_upto}) must happen
    {e outside} them. *)
val locked : t -> (t -> 'a -> 'b) -> 'a -> 'b

val locked_invoke :
  ?choose:(Value.t list -> Value.t) -> t -> first:bool -> Tid.t -> obj:string ->
  Op.invocation -> Atomic_object.outcome
