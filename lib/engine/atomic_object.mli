(** A runnable atomic object: serial specification + conflict relation +
    recovery manager + concurrency-control policy.

    This is the executable counterpart of the paper's
    [I(X, Spec, View, Conflict)].  Three policies are provided:

    - {b Locking} (pessimistic, the paper's model): an invocation executes
      only if some legal response does not conflict with an operation held
      by another active transaction ({e result-dependent locking} —
      different legal responses may conflict differently, and the object
      picks an enabled one).
    - {b Optimistic} (Section 3.4's alternative): invocations never block;
      at commit the transaction {e validates} — it aborts if any of its
      operations conflicts with an operation committed since it started
      (backward validation à la Kung–Robinson, with the same
      commutativity-based conflict relation).  Requires deferred-update
      recovery: update-in-place would publish uncommitted effects.
    - {b Escrow} (O'Neil's method, which Section 8 names as beyond the
      conflict framework), for a bounded counter: the grant test depends
      on the current state ({!create_escrow}).  By Theorem 2 (dynamic
      atomicity is local) it shares transactions, logs and shards with
      the other policies.

    The recovery manager keeps each fact once: optimistic validation
    reads its committed log and intentions, and an escrow counter its
    state's [read].  A policy's own bookkeeping lives in one mode field:
    a locking object's lock table, an optimistic object's conflict
    relation and start positions, an escrow counter's holdings.  Only a
    locking object has a lock table, so only its commit and abort
    release locks. *)

open Tm_core

type policy =
  | Locking
  | Optimistic
  | Escrow

type t

type outcome =
  | Executed of Op.t  (** the chosen operation (invocation + response) *)
  | Blocked of Tid.t list
      (** every legal response conflicts; the holders to wait for *)
  | No_response
      (** the operation is partial and currently has no legal response
          (e.g. dequeue on an empty queue): wait for the state to change *)

val pp_outcome : Format.formatter -> outcome -> unit

(** A pessimistic (locking) object.  [inverse] enables the
    update-in-place compensation fast path (see {!Recovery.create}). *)
val create :
  ?inverse:(Op.t -> Op.t list option) -> spec:Spec.t -> conflict:Conflict.t ->
  recovery:Recovery.kind -> unit -> t

(** An optimistic object.  Optimistic execution must not publish
    uncommitted effects, so the recovery method is necessarily
    deferred-update. *)
val create_optimistic : spec:Spec.t -> conflict:Conflict.t -> t

(** [create_escrow ~spec ~capacity] — an escrow object for a
    {!Tm_adt.Bounded_counter} [spec] with the same bound: invocations
    [incr(i)], [decr(i)] ([i > 0]) and [read].  The value can reach any
    point of the interval

    [[ w − Σdecr,  w + Σincr ]]

    where [w] is what the transaction's own view reads (the committed
    value plus its own updates) and the sums run over the other holders'
    uncommitted updates.  [incr(i) → ok] needs the top plus [i] within
    [capacity], [→ no] the bottom plus [i] beyond it; [decr(i) → ok]
    needs the bottom [≥ i], [→ no] the top [< i]; [read → n] needs the
    point [n].
    A read or a [no] pins the value: other transactions' [ok] updates
    wait until the pinning transaction ends.  An invocation that no
    response fits is [Blocked] on the other holders; with none, the
    interval is a point and some response fits.  Granted operations are
    the transaction's intentions in a deferred-update manager, so
    {!committed_ops}, {!restore} and the log's records work as for any
    object.  Raises [Invalid_argument] naming the object unless the
    spec's initial state reads an integer [initial] in [[0, capacity]]
    where [incr(capacity − initial)] answers [ok] (if positive) and
    [incr(capacity − initial + 1)] [no]. *)
val create_escrow : spec:Spec.t -> capacity:int -> t

val name : t -> string

(** The serial specification the object was created with. *)
val spec : t -> Spec.t

val policy : t -> policy

(** [attach_metrics t reg] wires the object — and its lock table and
    recovery manager — to a metrics registry.  Adds per-operation
    contention counters labelled [{obj; op}]: [tm_object_blocked_total],
    [tm_object_no_response_total] and [tm_validation_failures_total],
    plus the series documented on {!Lock_table.attach_metrics} and
    {!Recovery.attach_metrics}.  {!Database.create} calls this for every
    object; uncontended invocations never touch a metric.

    Handles are resolved in [reg] on their series' first event and kept
    in the object (one per metric and operation name that has occurred),
    so registration order and the absence of zero-valued series are as
    if every event searched the registry, but only the first one does.
    Attaching to a different registry drops every kept handle, here and
    in the lock table and recovery manager; re-attaching to the same
    registry is idempotent.  The handles replace the old attachment
    fields, so an attached object costs no more words than before. *)
val attach_metrics : t -> Tm_obs.Metrics.t -> unit

(** [share_ops t ops] makes [ops] the table through which the object
    builds every operation it executes or tests ({!Op_table.find}): an
    operation equal to one already in the table is that one, so equal
    operations of a database's objects are one value and a hit allocates
    nothing.  {!Database.create} hands every object its table this way,
    as it attaches its registry; an object in no database builds each
    operation afresh ({!Op_table.detached}).  Sharing is invisible:
    operations are immutable and compared by {!Tm_core.Op.equal}. *)
val share_ops : t -> Op_table.t -> unit

(** [invoke t tid inv] attempts the invocation for [tid].  When several
    legal responses are enabled the first in the specification's response
    order is chosen (deterministic); pass [~choose] to override (e.g. a
    seeded random pick for non-deterministic types).  Under the
    [Optimistic] policy the call never returns [Blocked]; under
    [Escrow] it never returns [No_response], offers [choose] the one
    response that fits, and raises [Invalid_argument] on an invocation
    the counter does not have.

    [choose] is offered the enabled responses, in response order, and
    must return one of them (by {!Tm_core.Value.equal}): a response it
    was not offered may conflict with a held operation, and executing it
    would bypass the lock table.  Any other value raises
    [Invalid_argument] naming the object and the value, and leaves the
    object as it was: no lock taken, nothing recorded.

    On [Blocked], the holders are strictly increasing.  An invocation
    with one legal response and no chooser builds no candidate list
    ({!Recovery.response}): it looks up the one operation it tests in
    the object's table ({!share_ops}), which allocates only on a miss,
    and, on [Blocked], allocates only the answer beside it; executed,
    what the recovery manager and the lock table keep.  Several legal
    responses or a chooser add the candidate list and one lookup per
    candidate tested. *)
val invoke : ?choose:(Value.t list -> Value.t) -> t -> Tid.t -> Op.invocation -> outcome

(** [validate t tid] — the optimistic commit test: [Error (mine, theirs)]
    if one of [tid]'s operations conflicts with an operation committed
    since [tid] first touched this object.  Always [Ok ()] under
    [Locking] and [Escrow], and for a transaction that executed nothing
    here — so a caller need only validate the objects a transaction
    touched ({!Database.validate}). *)
val validate : t -> Tid.t -> (unit, Op.t * Op.t) result

(** [commit t tid] releases [tid]'s locks and makes its effects permanent
    under the object's recovery method.  Under [Optimistic] the caller
    must {!validate} first ([Database.try_commit] does).  No-op for a
    transaction that executed nothing here. *)
val commit : t -> Tid.t -> unit

(** [abort t tid] releases locks and undoes (UIP) or discards (DU) the
    transaction's effects. *)
val abort : t -> Tid.t -> unit

(** Committed operations in commit order — replaying these against the
    specification must always succeed for a correctly configured object
    (the key run-time invariant checked by the test suite). *)
val committed_ops : t -> Op.t list

(** Current lock holds, as {!Lock_table.holds} lists them; none for an
    optimistic or escrow object, which holds no locks. *)
val holds : t -> (Tid.t * Op.t) list

(** [restore_log t log] installs [log] (a commit-order sequence, e.g.
    the object's bucket of {!Wal.plan_of}) into a freshly created object
    as already-committed work (directly into the recovery manager's
    committed state — no transaction id is consumed).  [Error] if the object
    is not fresh or the sequence is not legal — a typed recovery
    violation the caller can report (see {!Recovery.error}).

    On success the object takes [log] over as its committed log, with no
    copy ({!Recovery.restore}): the caller must not use it again. *)
val restore_log : t -> Op_log.t -> (unit, Recovery.error) result

(** [restore t ops] is [restore_log t (Op_log.of_list ops)]. *)
val restore : t -> Op.t list -> (unit, Recovery.error) result
