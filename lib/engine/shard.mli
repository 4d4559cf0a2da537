(** One shard of a {!Sharded_database}: a complete single-shard durable
    engine — its own {!Durable_database} (lock tables, atomic objects),
    its own {!Wal} (and therefore its own group-commit flusher), and the
    mutex that serialises engine calls into it.  A shard knows nothing
    about the others; all cross-shard coordination lives in
    {!Sharded_database}. *)

open Tm_core

type t

(** [create ~index ~wal objs] wraps a fresh
    {!Durable_database} over [objs] and [wal].  [index] is the shard's
    position in the router's table — it is also the shard id
    {!Disk_wal} stamps into v2 frames when [wal] is disk-backed. *)
val create : index:int -> wal:Wal.t -> Atomic_object.t list -> t

(** [of_db ~index ~wal db] wraps an already-built engine — how
    {!Sharded_database.recover} assembles shards from per-shard
    {!Durable_database.recover} results. *)
val of_db : index:int -> wal:Wal.t -> Durable_database.t -> t

val index : t -> int
val wal : t -> Wal.t
val db : t -> Durable_database.t

(** The shard's underlying {!Database} (transaction table, objects,
    metrics registry). *)
val database : t -> Database.t

val metrics : t -> Tm_obs.Metrics.t

(** [run m f x y] is [f x y] with [m] held, unlocked if [f] raises:
    [Mutex.protect] without a closure, for a top-level [f].  The router's
    global sections use it too. *)
val run : Mutex.t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

(** [locked t f x] is [run] of [f (db t) x] under the shard's mutex, and
    [invoke] is {!Durable_database.invoke} under it, adopting the
    transaction ({!Database.adopt_txn}) when [first]; neither builds a
    closure.  The durability wait ({!Wal.force_upto}) must happen
    {e outside} them. *)
val locked : t -> (Durable_database.t -> 'a -> 'b) -> 'a -> 'b

val invoke :
  ?choose:(Value.t list -> Value.t) -> t -> first:bool -> Tid.t -> obj:string ->
  Op.invocation -> Atomic_object.outcome
