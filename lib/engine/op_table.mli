(** A database's operations, shared: a bounded, direct-mapped table
    through which every operation an {!Atomic_object} executes or tests
    is built, so that equal operations are one immutable value.

    An operation is a value (the paper's invocation/response pair at an
    object): legality, the views and the conflict relations read what it
    is, never which copy is held, and the engine compares operations by
    {!Tm_core.Op.equal}, never by [==].  So sharing is invisible, as the
    decode cache's is on restart ({!Wal.Codec}).  It is what makes a
    committed operation cost its log slot alone: the lock holds, the
    recovery manager's suffix or intentions, the WAL's [Operation] frame,
    the replay state and the committed logs all point at the one value.

    Each {!Database} owns one table and hands it to its objects
    ({!Atomic_object.share_ops}).  Its [size] slots are allocated on the
    first lookup, so a database that never invokes pays two words.  A
    slot holds the last operation built for the keys that hash to it: a
    hit returns it and allocates nothing; a miss builds the operation and
    evicts the slot's occupant, which stays valid wherever it is held. *)

open Tm_core

type t

(** The slots of a table once allocated: a power of two. *)
val size : int

(** A table with no slots yet. *)
val create : unit -> t

(** The table of an object in no database: it never allocates slots,
    and [find] on it builds every operation afresh. *)
val detached : t

(** [find t obj inv res] is an operation equal to
    [{ Op.obj; inv; res }]: the table's, if a slot holds one, else a new
    one that then takes the slot.  [obj] is the object's name, the same
    string on every call for that object: operations are matched to it
    by [==], which is how the empty slot, whose object name is a string
    of its own, matches no lookup. *)
val find : t -> string -> Op.invocation -> Value.t -> Op.t
