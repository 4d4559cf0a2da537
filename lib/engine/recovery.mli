(** Executable recovery managers for one object: update-in-place and
    deferred-update.

    These are the running-system counterparts of the paper's two [View]
    functions (Section 5), maintained incrementally:

    - {b UIP} keeps a single current state (set — specifications may be
      non-deterministic) reflecting every non-aborted operation in
      execution order, exactly [UIP(H,A)].  Commit is free; abort
      "undoes" the transaction's operations by replaying the surviving
      operations (the general form of undo; an operation-inverse fast
      path is a per-ADT optimisation with the same semantics).  UIP
      state is O(live suffix), not O(history): the manager keeps a base
      state-set plus the operations from the first operation of the
      oldest transaction still live on the object, a chain linked
      oldest first that {!record} extends at its tail and an abort
      unlinks its own entries from in place.  Everything before
      that point is committed and in every future UIP view, so it is
      folded into the base after each commit and abort, and abort
      replays only the live suffix from the base.  (The
      {!committed_ops} record, kept for verification, still grows with
      history, at about one word per committed operation: an {!Op_log}
      of chunks that a commit fills without copying.)
    - {b DU} keeps a committed base state plus, per active transaction,
      its intentions list and its view: the state-set base + its own
      intentions reach, exactly [DU(H,A)].  That view changes only when
      the transaction executes an operation or another one commits, so
      it is kept, stamped with the base's version, which every commit
      and {!restore} bumps.  An invocation on an unmoved base steps the
      kept view and pays only for its answer; a commit at the object
      costs each live transaction one re-derivation from the new base,
      on its next call.  Abort discards the intentions; commit installs
      a current view as the new base (a stale one is derived again and
      must still apply), so bases follow commit order.

    A manager only answers {e which responses are legal}; conflict
    checking lives in {!Lock_table} and the two are combined by
    {!Atomic_object}.

    State-sets (the base, UIP's current state, a DU view) are sorted,
    duplicate-free lists stepped by {!Tm_core.Spec.step_states}: the same
    states in the same [compare_state] order as a [Set] would hold, but
    without a [Set]/[Map] functor instance per manager.  A manager is
    data, not closures: the spec's module (shared by every object of the
    type), its state-sets and committed log, and a chain of live
    transactions that gets an entry on a transaction's first {!record}.
    A fresh manager is therefore one record and its initial state-set:
    16 words under UIP and 13 under DU for a bank account, whatever the
    number of objects of its type; its empty committed log is a
    constant, and one committed operation adds a 2-word block. *)

open Tm_core

type t

type kind =
  | UIP
  | DU

val pp_kind : Format.formatter -> kind -> unit

(** [create kind spec] builds a manager with the object in its initial
    state.  [inverse], if given, enables the update-in-place manager's
    compensation fast path: [inverse op] returns the operations that undo
    [op] when applied at the end of the log ([Some []] for read-only
    operations; [None] when [op] has no position-independent inverse, in
    which case abort falls back to the general replay undo).  Correct
    inverses satisfy: state after [ops · op · inverse op] is equieffective
    to state after [ops] for every legal context — the property tests in
    [test_engine.ml] check the managers agree. *)
val create : ?inverse:(Op.t -> Op.t list option) -> kind -> Spec.t -> t

val kind : t -> kind

(** [responses t tid inv] is every response legal for [inv] according to
    [tid]'s view of the object (deduplicated; empty for a partial
    operation with no legal response yet). *)
val responses : t -> Tid.t -> Op.invocation -> Value.t list

(** [response t tid inv] is {!Tm_core.Spec.state_response} on [tid]'s
    view: the one distinct legal response, {!Tm_core.Spec.no_response}
    or {!Tm_core.Spec.several_responses} (compared by [==]).  It builds
    no list; {!responses} answers through the same fold. *)
val response : t -> Tid.t -> Op.invocation -> Value.t

(** [record t tid op] records that [tid] executed [op].  Raises
    [Invalid_argument] if [op.res] is not a legal response in [tid]'s
    current view. *)
val record : t -> Tid.t -> Op.t -> unit

val commit : t -> Tid.t -> unit
val abort : t -> Tid.t -> unit

(** A recovery-path failure: replaying a log into a manager that is not
    fresh, or a replayed sequence that is not legal for the object's
    specification.  Typed (rather than [Invalid_argument]) so recovery
    callers — the crash harness, {!Shard.recover} — can
    report the violation with its object instead of catching generic
    exceptions. *)
type error = {
  obj : string;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

(** [restore t log] installs [log] (a commit-order sequence, e.g. an
    object's bucket of {!Wal.plan_of}) into a {e fresh} manager as
    already-committed work: UIP seeds its base and current state, DU its
    committed base, each stepped through [log] in place
    ({!Spec.after_fold}).  Replayed work belongs to no live transaction,
    so no transaction id is involved.  [Error] if the manager is not
    fresh or the sequence is not legal.

    On success the manager takes [log] over as its committed log, with
    no copy: its later commits push onto it, in place once it holds two
    operations, so the caller must not use [log] again.  A deterministic
    replay allocates a few words whatever the length of [log]. *)
val restore : t -> Op_log.t -> (unit, error) result

(** Committed operations in commit order, restored ones first (both
    kinds).  Exposed for verification in tests; the list is built on
    each call, and the manager keeps the operations in an {!Op_log}. *)
val committed_ops : t -> Op.t list

(** The committed log itself, restored operations first, not a copy:
    read it only (a push would change what the manager has committed). *)
val committed_log : t -> Op_log.t

(** [intentions t tid] is [tid]'s uncommitted operations here, newest
    first: the manager's own list, [[]] for none. *)
val intentions : t -> Tid.t -> Op.t list

(** [attach_metrics t reg] makes the manager count recovery work in
    [reg], labelled by the object (spec) name: committed operations
    ([tm_recovery_committed_ops_total{obj}]), operations undone on a UIP
    abort ([tm_recovery_undone_ops_total{obj,mode="inverse"|"replay"}])
    and intentions discarded on a DU abort
    ([tm_recovery_discarded_ops_total{obj}]).  Called by
    {!Database.create}.

    Each of these handles is resolved in [reg] on its series' first
    event and kept in the manager, so a series is registered only once
    it counts something, and later commits and aborts do not search the
    registry.  Attaching to a different registry drops the kept handles:
    the new registry counts only what happens after it.  Re-attaching to
    the same registry is idempotent. *)
val attach_metrics : t -> Tm_obs.Metrics.t -> unit
