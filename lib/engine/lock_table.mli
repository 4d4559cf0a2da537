(** Operation-based lock table for one object.

    Locks are implicit in the operations a transaction has executed
    (Section 4 of the paper): a transaction "holds" every operation it has
    performed at the object, and a new operation can execute only if it
    does not conflict — per the object's {!Tm_core.Conflict.t} — with any
    operation held by another active transaction.  Locks are released all
    at once when the transaction commits or aborts. *)

open Tm_core

type t

val create : Conflict.t -> t

(** [attach_metrics t ~obj reg] makes the table count blocking conflict
    pairs in [reg] as [tm_lock_conflicts_total{obj,requested,held}]
    (labelled by operation names).  Called by {!Database.create} for
    every object it manages.

    Each pair's counter is resolved in [reg] on that pair's first
    conflict and kept in the table (at most one per operation-name
    pair), so a series is registered only once it counts something,
    and later conflicts do not search the registry.  Attaching to a
    different registry drops the kept counters: the new registry counts
    only what happens after it.  Re-attaching to the same registry
    under the same name is idempotent. *)
val attach_metrics : t -> obj:string -> Tm_obs.Metrics.t -> unit

(** [blockers t ~requested ~tid] is the set of other transactions holding
    an operation that conflicts with [requested]: strictly increasing by
    {!Tm_core.Tid.compare}, by construction (each holder is inserted in
    order as it is found; no sort runs).  With no blocker it is [[]]; it
    allocates only its answer (the walk over the holders allocates
    nothing). *)
val blockers : t -> requested:Op.t -> tid:Tid.t -> Tid.t list

(** [add t tid op] records [op] as held by [tid]. *)
val add : t -> Tid.t -> Op.t -> unit

(** [release t tid] drops every operation held by [tid]. *)
val release : t -> Tid.t -> unit

(** All (transaction, operation) holds: holder by holder, the newest
    holder first, each one's operations in the order it acquired them. *)
val holds : t -> (Tid.t * Op.t) list
