(** A table keyed by transaction id: open addressing with linear
    probing over two arrays, one of keys and one of values, so an entry
    costs no bucket or cell of its own.  What a database keeps of its
    running transactions ({!Database}, {!Sharded_database}).

    The arrays start at 16 slots and double when more than half would
    be full, never shrinking; {!remove} closes the gap it leaves by
    shifting the entries after it back (backward-shift deletion), so
    the table needs no tombstones and a lookup stops at the first empty
    slot.  Only {!replace} may allocate, and only when it doubles the
    arrays.  An emptied slot holds the table's [dummy], so the table
    keeps no removed value alive.  Not safe to call from two threads on
    one table at a time. *)

open Tm_core

type 'a t

(** [create ~dummy] — an empty table of 16 slots, each holding
    [dummy]. *)
val create : dummy:'a -> 'a t

(** [replace t tid v] binds [tid] to [v], replacing its value if it has
    one. *)
val replace : 'a t -> Tid.t -> 'a -> unit

(** [find t tid] is [tid]'s value.  Raises [Not_found] if it has none. *)
val find : 'a t -> Tid.t -> 'a

val mem : 'a t -> Tid.t -> bool

(** [remove t tid] unbinds [tid]; an unbound [tid] changes nothing. *)
val remove : 'a t -> Tid.t -> unit

(** [wraps t] — whether a cluster of taken slots runs past the last
    slot on to the first, so that a probe or a backward shift wraps
    around.  For tests. *)
val wraps : 'a t -> bool
