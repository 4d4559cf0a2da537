(** Conflict relations on operations (Section 4).

    The conflict relation is the essential variable in conflict-based
    locking: a response event for operation [Q] by transaction [A] is
    enabled only if [(Q, P)] is not in the relation for any operation [P]
    already executed by another active transaction.

    Relations are {e directional} ([requested] vs. [held]) because right
    backward commutativity — and hence the minimal conflict relation for
    update-in-place recovery — is not symmetric (Section 6.3): requiring
    symmetry would force conflicts that are not necessary. *)

type t

val make : name:string -> (requested:Op.t -> held:Op.t -> bool) -> t
val name : t -> string

(** [conflicts t ~requested ~held] applies the relation.  It allocates
    nothing of its own: a call costs what the relation's test costs. *)
val conflicts : t -> requested:Op.t -> held:Op.t -> bool

(** The empty relation: nothing conflicts.  (An incorrect concurrency
    control for either recovery method on any interesting type; used in
    negative tests.) *)
val none : t

(** The total relation: everything conflicts — serial execution. *)
val all : t

(** [of_pairs ~name pairs] conflicts exactly on the listed
    [(requested, held)] pairs. *)
val of_pairs : name:string -> (Op.t * Op.t) list -> t

(** [without rel pairs] removes the listed [(requested, held)] pairs from
    [rel] (used to build the "dropped one necessary conflict"
    counterexamples of Theorems 9 and 10). *)
val without : t -> (Op.t * Op.t) list -> t

(** [union r1 r2] conflicts when either does. *)
val union : t -> t -> t

(** {1 Coarsenings (ablations)}

    Section 8 credits the UIP+NRBC algorithm with "fewer conflicts than
    previous algorithms": earlier work assumed symmetric relations, and
    most assumed locks determined by the invocation alone.  These
    coarsenings reconstruct those weaker algorithms for comparison. *)

(** [symmetric_closure rel]: conflicts when [rel] does in either
    direction.  [NRBC]'s symmetric closure is (an over-approximation of)
    the conflict relation of the author's earlier update-in-place locking
    algorithm. *)
val symmetric_closure : t -> t

(** [invocation_blind spec rel]: result-independent locking — two
    operations conflict iff {e some} pair of generator operations of
    [spec] with the same invocations conflicts under [rel].  This is how
    a system that must acquire locks {e before} executing (rather than
    from the chosen response) would coarsen [rel]. *)
val invocation_blind : Spec.t -> t -> t

(** {1 Relations derived from a specification}

    Computed with the bounded decision procedures of {!Commutativity} and
    memoised per operation pair.  Shipped ADTs provide equivalent closed
    forms; these derived relations are the reference the closed forms are
    validated against. *)

(** NFC(Spec): [requested] and [held] do not commute forward.  The minimal
    conflict relation correct for deferred-update recovery (Theorem 10). *)
val nfc : Spec.t -> Commutativity.params -> t

(** NRBC(Spec): [requested] does not right-commute-backward with [held].
    The minimal conflict relation correct for update-in-place recovery
    (Theorem 9). *)
val nrbc : Spec.t -> Commutativity.params -> t

(** {1 Baseline}

    Classical read/write locking: two operations conflict unless both are
    reads.  This ignores type semantics entirely and is the implicit
    comparator for the paper's "permits more concurrency" claims. *)
val read_write : name:string -> is_read:(Op.t -> bool) -> t

(** [is_symmetric rel ops] checks symmetry of [rel] over the given
    operation sample. *)
val is_symmetric : t -> Op.t list -> bool

(** [pairs rel ops] lists all conflicting [(requested, held)] pairs over
    the sample. *)
val pairs : t -> Op.t list -> (Op.t * Op.t) list
