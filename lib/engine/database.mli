(** A multi-object transactional database.

    Objects are independent atomic objects (dynamic atomicity is a local
    property — Theorem 2 — so different objects may even use different
    recovery methods and conflict relations); the database adds
    transaction bookkeeping, atomic commitment across the objects a
    transaction touched and waits-for tracking.

    Every database owns a {!Tm_obs.Metrics} registry: transaction counts
    are backed by it ({!committed_count} reads a counter) and every
    managed object is attached to it at {!create} time.  A
    {!Tm_obs.Trace} recorder can additionally be attached with
    {!set_trace}; without one, tracing costs a single branch per event
    site, and no span kind is built.  A run's history, for offline
    verification with {!Tm_core.Atomicity}, is {!Tm_obs.Trace.to_history}
    of an attached recorder.

    Every database also owns an operation table ({!Op_table}), which
    {!create} hands to each object as it attaches the registry
    ({!Atomic_object.share_ops}).  Every operation the objects execute
    or test is built through it, so equal operations are one value: a
    committed operation costs its committed log a slot and nothing
    more, and a long history of repeating operations keeps one copy of
    each.  The table is allocated on the first invocation, bounded
    ({!Op_table.size} slots), and invisible to callers, who compare
    operations by {!Tm_core.Op.equal}. *)

open Tm_core

type t

(** [create ?first_tid objs] — [first_tid] (default 0)
    seeds the transaction-id allocator; recovery passes the WAL's tid
    high-water mark so post-crash transactions never reuse an id that may
    still appear in the log. *)
val create : ?first_tid:int -> Atomic_object.t list -> t

(** The managed objects in registration order. *)
val objects : t -> Atomic_object.t list

(** [find_object t name] — one hash-table lookup, whatever the number of
    objects; if two objects share a name the first registered wins.
    Raises [Invalid_argument] for an unknown name. *)
val find_object : t -> string -> Atomic_object.t

(** The database's metrics registry (always present). *)
val metrics : t -> Tm_obs.Metrics.t

(** The transaction-id allocator's current position (the next id
    {!begin_txn} will issue) — the high-water mark recorded by fuzzy
    checkpoints. *)
val next_tid : t -> int

(** Attach a trace recorder; subsequent engine activity emits
    begin/invoke/executed/blocked/no_response/validating/validated/
    lock_release/commit/abort spans. *)
val set_trace : t -> Tm_obs.Trace.t -> unit

val trace : t -> Tm_obs.Trace.t option

(** [share_waits t g ~shard] makes [t] keep its waits-for edges in [g]
    instead of its own graph (shard 0), tagged [shard]; call it before
    any transaction blocks, as {!Sharded_database} does. *)
val share_waits : t -> Deadlock.t -> shard:int -> unit

(** [emit_trace t ~tid kind] — emit a span into the attached recorder
    (no-op without one).  Used by the layers above the database
    (WAL wrapper, blocking front end) for events only they can
    see, e.g. deadlock victims and WAL forces.  A site whose kind carries
    a payload tests {!tracing} first, so an untraced run never builds
    it. *)
val emit_trace : t -> tid:Tid.t -> Tm_obs.Trace.kind -> unit

(** Whether a trace recorder is attached. *)
val tracing : t -> bool

(** [begin_txn t] allocates a fresh transaction id.  Raises
    {!Tm_core.Tid.Exhausted} once the next id would reach
    {!Tm_core.Tid.limit}. *)
val begin_txn : t -> Tid.t

(** [adopt_txn t tid] registers an externally allocated transaction id
    as running here and bumps the local allocator above it — how each
    shard's database joins a transaction whose id was issued by
    {!Sharded_database}'s global allocator.  Raises [Invalid_argument]
    if [tid] is negative or already known to this database: running, or
    finished.  The database keeps an entry only for a running
    transaction, a slot of a {!Tid_table} pointing at a record that a
    finished transaction left for reuse, so a transaction that begins
    (or is adopted) and finishes having executed nothing allocates
    nothing; a finished tid is remembered as one bit ({!Tid_bits}).  The
    record keeps the objects the transaction executed at in an array,
    in first-touch order, that it keeps when it is reused, so an
    executed invocation adds no cell; no record leaves the database, so
    {!commit}, {!abort} and {!try_commit} each put theirs back for the
    next transaction. *)
val adopt_txn : t -> Tid.t -> unit

(** [invoke t tid ~obj inv] — attempt an operation; records the waits-for
    edges on [Blocked].  Raises [Invalid_argument] for an unknown object,
    an unknown transaction, or one that already finished (told apart by
    the bit each finished tid leaves).

    [~choose] picks among the enabled responses as in
    {!Atomic_object.invoke}: it must return one of the values it is
    offered.  Any other value raises [Invalid_argument] naming the object
    and the value, and the object is left as it was (no lock taken,
    nothing recorded); the transaction stays running. *)
val invoke :
  ?choose:(Value.t list -> Value.t) ->
  t ->
  Tid.t ->
  obj:string ->
  Op.invocation ->
  Atomic_object.outcome

(** [commit t tid] commits at every object the transaction touched
    (atomic commitment, Section 2).  For optimistic objects use
    {!try_commit}, which validates first. *)
val commit : t -> Tid.t -> unit

val abort : t -> Tid.t -> unit

(** [validate t tid] runs {!Atomic_object.validate} at each object [tid]
    touched, in first-touch order, and returns the first failure as
    [(obj, mine, theirs)].  Untouched objects are skipped: they cannot
    fail (a locking object always passes, and an optimistic one has no
    start point for [tid]), so the cost follows the transaction, not the
    number of objects.  Changes nothing; {!try_commit} and the durable
    commit and 2PC prepare paths call it before committing. *)
val validate : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** [try_commit t tid] is {!validate} followed by {!commit} at every
    touched object; on a validation failure the transaction is aborted
    everywhere and the conflicting object and operation pair are
    returned. *)
val try_commit : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** [deadlock t] — current waits-for cycle, if any, in [t]'s graph,
    which may be shared ({!share_waits}). *)
val deadlock : t -> Tid.t list option

(** Committed transactions count / aborted count (read from the
    [tm_txn_committed_total] / [tm_txn_aborted_total] registry
    counters). *)
val committed_count : t -> int

val aborted_count : t -> int
