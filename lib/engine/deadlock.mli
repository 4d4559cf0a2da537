(** Waits-for graph and cycle detection.

    Conflict-based locking blocks transactions behind lock holders;
    a cycle in the waits-for relation is a deadlock.  The scheduler
    registers an edge set per blocked transaction and asks for a cycle;
    the conventional victim is the youngest transaction in the cycle. *)

open Tm_core

type t

val create : unit -> t

(** [set_waiting t tid ~on] replaces [tid]'s outgoing edges. *)
val set_waiting : t -> Tid.t -> on:Tid.t list -> unit

(** [clear t tid] removes [tid]'s outgoing edges {e and} every edge
    pointing at it (call on commit/abort, and whenever [tid] executes).
    Returns at once when the graph has no edges. *)
val clear : t -> Tid.t -> unit

(** [find_cycle t] is some cycle [t1 → t2 → … → t1] (listed without the
    closing repeat) if the graph has one: the first back edge of a
    depth-first search from each source in table order.  The search
    reuses one [visited] table kept in [t], so it allocates only its
    path and, when it finds one, the cycle; with no edges it returns at
    once.  Not safe to call from two threads on one [t] at a time. *)
val find_cycle : t -> Tid.t list option

(** [victim cycle] is the youngest (largest-id) transaction. *)
val victim : Tid.t list -> Tid.t

val waiting : t -> Tid.t -> Tid.t list
