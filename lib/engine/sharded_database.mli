(** A durable engine partitioned into independent shards with
    cross-shard two-phase commit.

    Each shard is a complete single-shard engine ({!Shard}): its own
    lock tables and atomic objects, its own WAL (stamped with the
    shard's id in every frame when disk-backed — see {!Disk_wal}),
    and its own group-commit flusher.  A router hashes object name to
    home shard ({!home_shard}, a stable hash of the name),
    so a transaction that touches one shard commits through the
    existing fast path — {!Shard.try_commit_nowait} under
    that shard's mutex, the durability wait outside it — with {e zero}
    cross-shard synchronisation beyond a brief global-table touch.
    Neither that touch nor the shard's locked calls ({!Shard.locked},
    {!Shard.locked_invoke}) build a closure.

    {2 Cross-shard commit: presumed-abort 2PC}

    A transaction that touched several shards commits in three steps,
    journaled entirely through the participants' own WALs (no separate
    coordinator log):

    + {b Prepare} — every participant, in ascending shard order,
      validates and logs a [Prepare] record
      ({!Shard.prepare}); each prepare LSN is forced before
      the protocol proceeds.  A forced [Prepare] is the shard's durable
      yes vote: all the transaction's operations on that shard precede
      it in the log, so the shard can install the transaction after a
      crash once the decision is known.  Any validation failure aborts
      the transaction everywhere — already-prepared shards and the
      rest alike via {!Shard.abort} — and {e no} decision
      record is written (presumed abort makes the no-vote free).
    + {b Decide} — the coordinator (the lowest participant shard index)
      appends [Decision { commit = true }] to {e its own} WAL and
      forces it.  That single forced append is the global commit point:
      the transaction is committed iff it survives.
    + {b Complete} — each participant logs its local [Commit] and
      applies ({!Shard.commit_prepared}),
      {e without} forcing: if a crash loses a completion record, the
      shard recovers the transaction as in-doubt and re-resolves it
      from the surviving decision evidence.

    {2 Recovery}

    {!recover} first runs {!Two_phase.analyze} over all shard logs
    (reading each log's replay state, not its records),
    appends a real [Commit]/[Abort] per in-doubt transaction to its
    shard's log (commit iff decision evidence survives anywhere;
    otherwise presumed abort) and forces it — completing the
    interrupted protocol {e in the log}, so the subsequent per-shard
    {!Shard.recover} needs no 2PC awareness at all, and a
    second crash during recovery re-resolves to the same outcomes.

    {2 Waiting and deadlock}

    {!invoke} returns [Blocked] with the holders it waits for, and
    {!Concurrent} is the layer that makes a thread wait on it.  Lock
    tables and histories stay per shard: dynamic atomicity is local
    (Theorem 2), so each shard's history is checked on its own.  A
    waits-for cycle is not local, so all shards keep their edges in one
    {!Deadlock} graph ({!Database.share_waits}), where {!deadlock}
    finds cycles that thread through several shards.

    {2 Caveats}

    {!checkpoint} refuses to run while any cross-shard commit is in
    flight — a fuzzy checkpoint would otherwise erase a participant's
    in-doubt status from its log. *)

open Tm_core

type t

(** [create ?first_tid ~wals objs] — one shard per
    element of [wals] (their order fixes shard ids); [objs] are
    partitioned among shards by the router.  A sink-less [Wal.create ()]
    gives an in-memory shard, durable by fiat.  [first_tid] seeds the {e global}
    transaction-id allocator.  Raises [Invalid_argument] if [wals] is
    empty or has more than 65536 elements (shard ids must fit a frame
    header). *)
val create : ?first_tid:int -> wals:Wal.t array -> Atomic_object.t list -> t

(** [home_shard ~shards name] — the shard, of [shards], that holds the
    object [name]: [Hashtbl.hash name mod shards], the same in every
    run, so {!create} and {!recover} route alike and a test can tell
    where an object lives before building the engine. *)
val home_shard : shards:int -> string -> int

(** The home shard of an object name: {!home_shard} over [t]'s
    shards. *)
val shard_of_object : t -> string -> int

(** The shards themselves, indexed by shard id — for tests, torture
    harnesses and forensics; engine calls should go through [t]. *)
val shards : t -> Shard.t array

val find_object : t -> string -> Atomic_object.t

(** All objects across all shards (shard order, then each shard's
    object order). *)
val objects : t -> Atomic_object.t list

(** [begin_txn t] allocates a globally unique transaction id.  Each
    shard's database adopts the transaction on first touch
    ({!Database.adopt_txn}).  Raises {!Tm_core.Tid.Exhausted} once the
    next id would reach {!Tm_core.Tid.limit}. *)
val begin_txn : t -> Tid.t

(** [invoke t tid ~obj inv] routes to [obj]'s home shard. *)
val invoke :
  ?choose:(Value.t list -> Value.t) -> t -> Tid.t -> obj:string -> Op.invocation ->
  Atomic_object.outcome

(** [validate t tid] runs {!Database.validate} on every shard [tid]
    touched, in shard order, each under its shard's mutex, and returns
    the first failure.  Changes nothing: the commit paths validate
    again.  {!Concurrent} calls it to fail early an optimistic
    transaction whose view a later commit emptied. *)
val validate : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** {2 The staged commit}

    As in {!Shard}, commit has two stages, and the caller
    may acknowledge it only after both. *)

(** A commit that is applied but may not be durable yet. *)
type pending

(** Stage 1.  Returns only the [pending] commit: the retired
    transaction's own entry, so the stage allocates no tuple or closure
    of its own.  {!wait_durable} consumes it; a failed commit puts the
    record back for the next {!begin_txn} at once, as {!abort} does.
    A single-shard transaction validates, appends its
    commit record and applies under the shard mutex.  A multi-shard
    transaction runs the whole 2PC described above, forces included.
    A transaction that executed nothing anywhere commits trivially.  On
    validation failure the transaction is aborted on every shard and
    the conflicting object/operation pair returned. *)
val try_commit_nowait : t -> Tid.t -> (pending, string * Op.t * Op.t) result

(** Stage 2: wait until the commit is durable — for a single-shard
    commit, the shard WAL's flushed watermark covers its commit record
    ({!Shard.wait_durable}); a cross-shard commit was durable
    when its decision was forced.  Call without holding any lock that
    other transactions need.  The wait consumes [pending]: it puts the
    transaction's record back for the next {!begin_txn} to reuse, so
    call it once per [pending] and drop the [pending] after. *)
val wait_durable : t -> pending -> unit

(** [try_commit t tid] is both stages back to back.  Either way a
    transaction's record, its sorted array of shard ids and its array
    of prepare LSNs are reused, and the 2PC phases walk that array by
    index. *)
val try_commit : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** [deadlock t] — a waits-for cycle, if any, in the graph every shard
    shares ({!Deadlock.find_cycle}).  Takes that graph's mutex and no
    shard's, so it may run while other threads commit. *)
val deadlock : t -> Tid.t list option

val abort : t -> Tid.t -> unit

(** Force every shard's WAL. *)
val flush : t -> unit

(** [checkpoint t] appends a fuzzy checkpoint to {e every} shard —
    after forcing {e all} shard WALs, so no shard's checkpoint can
    outlive unflushed completion records its evidence may be needed
    for — and returns [true].  Returns [false] without touching any
    log when a cross-shard commit is in flight (a prepared-undecided
    transaction must keep its [Prepare] visible to recovery; callers
    simply retry later). *)
val checkpoint : t -> bool

(** Globally committed transaction count (each cross-shard transaction
    counted once, not once per participant), counted at stage 1. *)
val committed_count : t -> int

(** [set_trace t tr] attaches one shared recorder to {e every} shard's
    database: a single logical clock totally orders all shards' spans.
    Cross-shard commits additionally emit the 2PC span kinds
    ({!Tm_obs.Trace.Prepare_append} … {!Tm_obs.Trace.Completion}), each
    stamped with a per-transaction global trace id ([gtid]) so the
    coordinator's decision can be linked to every participant's prepare
    offline. *)
val set_trace : t -> Tm_obs.Trace.t -> unit

(** The recorder given to {!set_trace}, if any. *)
val trace : t -> Tm_obs.Trace.t option

(** The engine-level registry: the 2PC series below, which {!metrics}
    merges without a [shard] label.  A layer above the engine registers
    its own series here ({!Concurrent}'s retry and victim counters). *)
val registry : t -> Tm_obs.Metrics.t

(** A fresh registry merging the engine-level 2PC metrics
    ([tm_2pc_prepares_total], [tm_2pc_aborts_total{phase}],
    [tm_2pc_resolved_total{evidence,outcome}] after a recovery and
    [tm_shard_cross_txn_total]) with
    every shard's registry, each shard's series tagged with an added
    [shard] label. *)
val metrics : t -> Tm_obs.Metrics.t

(** [recover ~wals ~rebuild ()] — crash recovery across all shards:
    resolve in-doubt transactions (see above), then run
    {!Shard.recover} on each shard in turn, [rebuild]'s
    objects routed to shards exactly as {!create} routes them.  The
    global allocator restarts above every shard's tid high-water mark.
    Returns the engine and the union of the shards' loser sets (a
    transaction resolved by presumed abort is {e finished}, not a loser
    — recovery completed its protocol), or the first shard's replay
    error in shard order.

    [audit] receives the in-doubt resolutions
    ({!Two_phase.analyze}: which prepares were in doubt, the evidence
    that resolved each, the outcome appended) before any outcome record
    is written — the audit trail [crashtest --shards] checks for
    decision evidence.  The same resolutions drive the recovered
    engine's [tm_2pc_resolved_total{evidence,outcome}] counters. *)
val recover :
  ?audit:(Two_phase.resolution list -> unit) ->
  wals:Wal.t array ->
  rebuild:(unit -> Atomic_object.t list) ->
  unit -> (t * Tid.Set.t, Recovery.error) result
