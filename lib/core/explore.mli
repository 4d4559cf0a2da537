(** Bounded exploration of a specification's sequence space.

    The relations of Sections 6 and 7 quantify over {e all} operation
    sequences α and all futures γ/ρ.  Two observations make them checkable:

    - the truth of each condition depends on a sequence α only through the
      {e set of states} α can reach (subset semantics), so quantifying over
      α reduces to quantifying over reachable state-sets; and
    - [αγ ∈ Spec] iff stepping the state-set of α through γ stays
      non-empty, so language containment between two state-sets can be
      checked by a joint breadth-first search over pairs of sets.

    State spaces may be infinite (e.g. bank balances), so both searches are
    depth-bounded over the specification's {!Spec.S.generators} alphabet;
    the procedures are semi-decisions whose positive answers read
    "holds for all contexts/futures within the bound".  Each shipped ADT
    also provides a closed-form relation carrying the unbounded claim,
    cross-validated against these procedures by property tests.

    A state-set is {!Spec}'s: a sorted ([compare_state]), duplicate-free
    list, stepped by {!Spec.step_states}. *)

(** [reachable (module S) ~depth ~alphabet] enumerates every distinct
    state-set reachable from [[S.initial]] by a sequence of at most
    [depth] operations drawn from [alphabet], paired with one
    representative sequence (a shortest one, found breadth-first). *)
val reachable :
  (module Spec.S with type state = 's) -> depth:int -> alphabet:Op.t list -> (Op.t list * 's list) list

(** [contained (module S) ~depth ~alphabet u t] checks [L(u) ⊆ L(t)] —
    every sequence of at most [depth] alphabet operations executable
    from [u] is executable from [t].  [None] means containment holds to
    the bound; [Some gamma] is a witness sequence executable from [u]
    but not from [t] (possibly the empty sequence, when [u] is non-empty
    and [t] empty). *)
val contained :
  (module Spec.S with type state = 's) ->
  depth:int ->
  alphabet:Op.t list ->
  's list ->
  's list ->
  Op.t list option
