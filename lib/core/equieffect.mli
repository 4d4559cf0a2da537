(** Equieffectiveness of operation sequences (Section 6.1).

    [α] {e looks like} [β] (w.r.t. [Spec]) if for every sequence [γ],
    [αγ ∈ Spec] implies [βγ ∈ Spec] — no future observation distinguishes
    having executed [β] from having executed [α].  [α] and [β] are
    {e equieffective} when each looks like the other.  "Looks like" is
    reflexive and transitive but not necessarily symmetric (Lemma 3);
    equieffectiveness is an equivalence (Lemma 4).

    All checks are bounded semi-decisions (see {!Explore}): [depth] bounds
    the length of distinguishing futures, drawn from the specification's
    generators. *)

type verdict =
  | Holds  (** to the given bound *)
  | Refuted of Op.t list
      (** a witness future [γ] legal after one sequence, not the other *)

val is_holds : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** [looks_like spec ~depth alpha beta] checks that [alpha] looks like
    [beta] with respect to [spec]. *)
val looks_like : Spec.t -> depth:int -> Op.t list -> Op.t list -> verdict

(** [equieffective spec ~depth alpha beta] checks both directions; the
    witness, if any, distinguishes in one of them. *)
val equieffective : Spec.t -> depth:int -> Op.t list -> Op.t list -> verdict
