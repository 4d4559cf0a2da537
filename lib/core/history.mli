(** Histories: well-formed finite sequences of events (Section 2).

    A computation is modelled as a finite sequence of events.  A
    {e history} is a well-formed such sequence.  This module provides the
    projections ([H|X], [H|A]), derived sets ([Committed], [Aborted],
    [Active]), the [Opseq] function from histories to operation sequences,
    [permanent], the [precedes] relation, [Serial(H,T)] and the commit
    order — all exactly as defined in Sections 2, 3 and 5 of the paper. *)

type t

(** {1 Construction} *)

val empty : t

(** [snoc h e] appends event [e] in O(1); no well-formedness check is
    performed (use {!well_formedness_errors} to validate). *)
val snoc : t -> Event.t -> t

val events : t -> Event.t list
val length : t -> int
val append : t -> t -> t

(** {1 Well-formedness}

    The paper's constraints: a transaction has at most one pending
    invocation and must wait for its response before invoking again; an
    object responds only to a pending invocation at that object; a
    transaction cannot both commit and abort (atomic commitment); it cannot
    commit while an invocation is pending nor invoke anything after it has
    committed (or aborted); commit/abort events are at most one per object
    per transaction. *)

type violation =
  | Invoke_while_pending of Tid.t
  | Response_without_pending of Tid.t * string
  | Commit_while_pending of Tid.t
  | Commit_and_abort of Tid.t
  | Event_after_finish of Tid.t
  | Duplicate_completion of Tid.t * string

val pp_violation : Format.formatter -> violation -> unit

(** [well_formedness_errors h] is the list of violations in [h], in order
    of occurrence; empty iff [h] is well-formed. *)
val well_formedness_errors : t -> violation list

val is_well_formed : t -> bool

(** {1 Transaction status} *)

(** Transactions that commit (at some object) in [h]. *)
val committed : t -> Tid.Set.t

(** Transactions that abort in [h]. *)
val aborted : t -> Tid.Set.t

(** Transactions appearing in [h] that neither commit nor abort.  (The
    paper defines [Active(H) = ACT − Committed(H) − Aborted(H)]; we
    restrict to transactions that actually appear.) *)
val active : t -> Tid.Set.t

(** All transactions appearing in [h]. *)
val transactions : t -> Tid.Set.t

(** Objects appearing in [h], in order of first appearance. *)
val objects : t -> string list

(** {1 Projections} *)

(** [project_obj h x] is [H|X]: the subsequence of events involving
    object [x]. *)
val project_obj : t -> string -> t

(** [project_tid h a] is [H|A]. *)
val project_tid : t -> Tid.t -> t

(** [project_tids h s] is the subsequence of events whose transaction is
    in [s]. *)
val project_tids : t -> Tid.Set.t -> t

(** {1 Operation sequences} *)

(** [pending_invocation h a] is the invocation (and its object) awaiting a
    response for [a] in [h], if any. *)
val pending_invocation : t -> Tid.t -> (string * Op.invocation) option

(** [opseq h] implements the paper's [Opseq]: the operations of [h] in
    the order of their response events; commit and abort events and pending
    invocations are ignored.  Raises [Invalid_argument] if a response has
    no matching pending invocation. *)
val opseq : t -> Op.t list

(** {1 Derived histories and relations} *)

(** [permanent h] is [H|Committed(H)]. *)
val permanent : t -> t

(** [precedes h] is the paper's relation: [(A,B)] iff some operation
    invoked by [B] responds after [A]'s first commit event, with [A ≠ B].
    Returned as a predicate. *)
val precedes : t -> Tid.t -> Tid.t -> bool

(** [serial h order] is [Serial(H,T)] = [H|A1 · … · H|An] for [order =
    A1…An].  Transactions of [h] missing from [order] are dropped;
    ids in [order] not in [h] contribute nothing. *)
val serial : t -> Tid.t list -> t

(** [equivalent h k]: every transaction performs the same steps in both
    ([H|A = K|A] for all [A]). *)
val equivalent : t -> t -> bool

(** [commit_order h] is the paper's [Commit-order(H)]: transactions that
    commit in [h], ordered by their first commit events. *)
val commit_order : t -> Tid.t list

(** A history is serial if events of different transactions do not
    interleave. *)
val is_serial : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Builder combinators}

    Pipe-friendly helpers for constructing histories in tests and
    examples: [empty |> exec Tid.a op1 |> commit_at Tid.a "BA" |> …]. *)

(** [exec a op h] appends the invocation and response events of operation
    [op] (at [op.obj]) for transaction [a]. *)
val exec : Tid.t -> Op.t -> t -> t

(** [invoke a ~obj inv h] appends just the invocation event. *)
val invoke : Tid.t -> obj:string -> Op.invocation -> t -> t

(** [respond a ~obj res h] appends just the response event. *)
val respond : Tid.t -> obj:string -> Value.t -> t -> t

val commit_at : Tid.t -> string -> t -> t
val abort_at : Tid.t -> string -> t -> t

(** [exec_seq a ops h] executes each operation of [ops] in turn. *)
val exec_seq : Tid.t -> Op.t list -> t -> t

(** {1 Replaying a log} *)

(** A log or trace step: [Commit] and [Abort] finish the transaction at
    every object it executed at. *)
type step =
  | Exec of Tid.t * Op.t
  | Commit of Tid.t
  | Abort of Tid.t

(** [of_steps steps] is the history of [steps], built in linear time:
    [Exec] appends an operation's invocation and response, and a
    [Commit] or [Abort] one commit or abort event per object the
    transaction executed at since it last finished, in the order it first
    executed there.  With [~abort_unfinished:true] every transaction left
    unfinished then aborts the same way, in {!Tid.compare} order. *)
val of_steps : ?abort_unfinished:bool -> step list -> t
