(** Forward and right-backward commutativity (Sections 6.2, 6.3).

    Both notions are defined on sequences and specialise to single
    operations; both are relations {e on operations} (invocation and
    result), so a conflict derived from them may depend on an operation's
    result.

    - [β] and [γ] {e commute forward} iff for every [α] with
      [αβ ∈ Spec] and [αγ ∈ Spec]: [αβγ ∈ Spec] and [αβγ] is
      equieffective to [αγβ].  FC and its complement NFC are symmetric
      (Lemma 8).
    - [β] {e right commutes backward} with [γ] iff for every [α],
      [αγβ] looks like [αβγ] (a [β] executed just after [γ] can be pushed
      back before it).  RBC and NRBC are {e not} necessarily symmetric.

    Decision procedures are bounded (see {!Explore}): [alpha_depth] bounds
    the contexts [α] explored (via distinct reachable state-sets) and
    [future_depth] the distinguishing futures.

    Applied to a specification and its parameters, each relation below
    explores the contexts once: [let r = fc spec p] answers every pair
    [r b g] from the same reachable state-sets. *)

type params = {
  alpha_depth : int;
  future_depth : int;
}

(** Defaults: [alpha_depth = 5], [future_depth = 5].  Both searches run
    over the specification's generators. *)
val params : ?alpha_depth:int -> ?future_depth:int -> unit -> params

val default_params : params

type failure = {
  alpha : Op.t list;  (** context in which the condition fails *)
  future : Op.t list option;
      (** distinguishing future, when the failure is observational *)
  reason : string;
}

type verdict =
  | Commutes  (** to the given bounds *)
  | Refuted of failure

val is_commutes : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Sequence-level relations} *)

val commute_forward_seq : Spec.t -> params -> Op.t list -> Op.t list -> verdict

(** {1 Operation-level relations} *)

val commute_forward : Spec.t -> params -> Op.t -> Op.t -> verdict
val right_commutes_backward : Spec.t -> params -> Op.t -> Op.t -> verdict

(** [fc spec p b g] = [is_commutes (commute_forward spec p b g)]; [nfc] is
    its negation; likewise [rbc]/[nrbc]. *)

val fc : Spec.t -> params -> Op.t -> Op.t -> bool
val nfc : Spec.t -> params -> Op.t -> Op.t -> bool
val rbc : Spec.t -> params -> Op.t -> Op.t -> bool
val nrbc : Spec.t -> params -> Op.t -> Op.t -> bool

(** {1 Relation tables (Figures 6-1 and 6-2)}

    The paper presents the relations as tables over operation {e classes}
    (e.g. all [deposit(i)] operations).  A class pair is marked — the
    paper's "X" — when {e some} pair of member operations is refuted. *)

type table = {
  labels : string list;
  marks : bool array array;  (** [marks.(row).(col)] — row relates-not to col *)
}

(** [fc_table spec p classes] marks [(i,j)] iff some [b ∈ classes_i],
    [g ∈ classes_j] do not commute forward. *)
val fc_table : Spec.t -> params -> (string * Op.t list) list -> table

(** [rbc_table spec p classes] marks [(i,j)] iff some [b ∈ classes_i] does
    not right commute backward with some [g ∈ classes_j]. *)
val rbc_table : Spec.t -> params -> (string * Op.t list) list -> table

val pp_table : Format.formatter -> table -> unit

val equal_table : table -> table -> bool

(** [table_of_marks labels pairs] builds the expected table from a list of
    marked label pairs (for comparing against the paper's figures). *)
val table_of_marks : string list -> (string * string) list -> table
