(** Waits-for graph and cycle detection.

    Conflict-based locking blocks transactions behind lock holders;
    a cycle in the waits-for relation is a deadlock.  The database
    registers an edge set per blocked transaction and asks for a cycle;
    the conventional victim is the youngest transaction in the cycle. *)

open Tm_core

type t

val create : unit -> t

(** [set_waiting t tid ~on] replaces [tid]'s outgoing edges.  A list
    that is already strictly increasing (as {!Lock_table.blockers}
    returns it) is stored as it is; any other is sorted and deduplicated
    first.  Re-registering the edges [tid] already has leaves the graph,
    and so the next {!find_cycle}'s answer, untouched. *)
val set_waiting : t -> Tid.t -> on:Tid.t list -> unit

(** [clear t tid] removes [tid]'s outgoing edges {e and} every edge
    pointing at it (call on commit/abort, and whenever [tid] executes).
    Returns at once when the graph has no edges; clearing a transaction
    the graph does not mention changes nothing. *)
val clear : t -> Tid.t -> unit

(** [find_cycle t] is some cycle [t1 → t2 → … → t1] (listed without the
    closing repeat) if the graph has one: the first back edge of a
    depth-first search from each source in table order.

    The answer is kept in [t] and reused until {!set_waiting} or
    {!clear} changes the graph, so a search after a blocked retry that
    re-registered the same edges returns at once and allocates nothing.
    A search that does run keeps its path and visited marks in scratch
    arrays in [t] (grown by doubling, never shrunk; a visited test scans
    the nodes seen so far, which are at most the transactions in the
    graph), so it allocates only the cycle it returns, the 4-word
    closure [Hashtbl.iter] builds for its walk, and the arrays when they
    grow.  Not safe to call from two threads on one [t] at a
    time. *)
val find_cycle : t -> Tid.t list option

(** [victim cycle] is the youngest (largest-id) transaction. *)
val victim : Tid.t list -> Tid.t

val waiting : t -> Tid.t -> Tid.t list

(** [edges t] — every transaction with outgoing edges, paired with them. *)
val edges : t -> (Tid.t * Tid.t list) list
