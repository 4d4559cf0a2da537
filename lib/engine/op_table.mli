(** A database's operations, shared: a bounded table through which
    every operation an {!Atomic_object} executes or tests is built, so
    that equal operations are one immutable value, and equal invocations
    one block.

    An operation is a value (the paper's invocation/response pair at an
    object): legality, the views and the conflict relations read what it
    is, never which copy is held, and the engine compares operations by
    {!Tm_core.Op.equal}, never by [==].  So sharing is invisible, as the
    decode cache's is on restart ({!Wal.Codec}).  It is what makes a
    committed operation cost its log slot and little more: the lock
    holds, the recovery manager's suffix or intentions, the WAL's
    [Operation] frame, the replay state and the committed logs all point
    at the one value, and the value points at the table's invocation,
    not at the block its caller built.

    Each {!Database} owns one table and hands it to its objects
    ({!Atomic_object.share_ops}).  Its [size] operation slots and
    [inv_size] invocation slots are allocated on the first lookup, so a
    database that never invokes pays three words.  The operation slots
    are two-way sets: a key's set holds the last two operations built or
    found for the keys that map to it, the more recent first.  A hit
    returns the operation and allocates nothing; a miss builds the
    operation, 4 words, and evicts the set's older occupant, which stays
    valid wherever it is held.  The invocation slots are direct-mapped
    by name and arguments: a miss takes the slot's invocation if it is
    equal to the caller's, and else gives the slot the caller's.

    On the benchmark's sharded transfers (1,024 accounts over four
    shards, seed 1, the last of two epochs) the 8,000 committed
    operations are 3,526 distinct values.  With direct-mapped operation
    slots and each operation keeping its caller's invocation, they were
    4,705 records with 4,705 invocation blocks, and 58.5k words were
    reachable from them; now they are 4,242 records with 16 invocation
    blocks, four per shard, and 19.2k words. *)

open Tm_core

type t

(** The operation slots of a table once allocated: a power of two. *)
val size : int

(** The invocation slots of a table once allocated: a power of two. *)
val inv_size : int

(** A table with no slots yet. *)
val create : unit -> t

(** The table of an object in no database: it never allocates slots,
    and [find] on it builds every operation afresh. *)
val detached : t

(** [find t obj inv res] is an operation equal to
    [{ Op.obj; inv; res }]: the table's, if a slot holds one, else a new
    one, carrying the table's invocation equal to [inv], that then
    leads its set.  [obj] is the object's name, the same
    string on every call for that object: operations are matched to it
    by [==], which is how the empty slot, whose object name is a string
    of its own, matches no lookup. *)
val find : t -> string -> Op.invocation -> Value.t -> Op.t
