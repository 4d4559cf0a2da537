(** Atomicity, serializability, and dynamic atomicity (Section 3).

    - A serial failure-free history is {e acceptable} at [X] if
      [Opseq(H|X) ∈ Spec(X)]; acceptable if acceptable at every object.
    - A failure-free [H] is {e serializable in order T} if [Serial(H,T)]
      is acceptable, and {e serializable} if some order works.
    - [H] is {e atomic} if [permanent(H)] is serializable.
    - [H] is {e dynamic atomic} if [permanent(H)] is serializable in
      {e every} total order consistent with [precedes(H)].
    - [H] is {e online dynamic atomic} (Section 7) if for every commit set
      [CS], [H|CS] is serializable in every total order consistent with
      [precedes(H|CS)].  Online dynamic atomicity implies dynamic
      atomicity.

    The dynamic-atomicity checkers are exact at any size: they walk the
    downsets of [precedes] one object at a time (Theorem 2), merging the
    orders that reach one state-set, so their cost grows with how many
    transactions are mutually concurrent, not with every order. *)

(** Maps each object name to its serial specification. *)
type env = string -> Spec.t

(** [env_of_list specs] builds an environment from named specifications
    (names taken from [Spec.name]); raises [Not_found] on lookup of an
    unknown object. *)
val env_of_list : Spec.t list -> env

(** [acceptable env h] — [h] must be serial and failure-free. *)
val acceptable : env -> History.t -> bool

(** [serializable_in env h order] — is failure-free [h] serializable in
    [order]?  [order] must contain every transaction of [h]. *)
val serializable_in : env -> History.t -> Tid.t list -> bool

(** [serializable env h] finds an order in which failure-free [h]
    serializes, if any (searched with prefix pruning). *)
val serializable : env -> History.t -> Tid.t list option

val atomic : env -> History.t -> bool

type verdict =
  | Ok
  | Counterexample of Tid.t list
      (** an order consistent with [precedes] in which the history does
          not serialize *)

val is_ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val dynamic_atomic : env -> History.t -> verdict

(** [online_dynamic_atomic env h] checks every commit set
    [Committed(h) ⊆ CS ⊆ Committed(h) ∪ Active(h)]. *)
val online_dynamic_atomic : env -> History.t -> verdict

(** Boolean shorthands. *)

val is_dynamic_atomic : env -> History.t -> bool
val is_online_dynamic_atomic : env -> History.t -> bool
