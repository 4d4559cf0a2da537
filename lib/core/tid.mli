(** Transaction identifiers.

    The paper ranges over transactions with letters A, B, C; identifiers
    here are integers, pretty-printed as letters for the first 26 so that
    example histories render exactly like the paper's. *)

type t

val of_int : int -> t

(** The allocators give out ids below [limit], [max_int], so the next
    id after one they gave never overflows. *)
val limit : int

(** Raised by an allocator asked for an id at or above {!limit}. *)
exception Exhausted

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [pp] renders ids 0..25 as "A".."Z" and larger ids as "T<n>". *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Convenience ids used throughout tests and examples. *)

val a : t
val b : t
val c : t
val d : t
val e : t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
