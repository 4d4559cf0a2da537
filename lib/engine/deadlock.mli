(** Waits-for graph and cycle detection.

    Conflict-based locking blocks transactions behind lock holders;
    a cycle in the waits-for relation is a deadlock.  The database
    registers an edge set per blocked transaction and asks for a cycle;
    the conventional victim is the youngest transaction in the cycle.
    The shards of a {!Sharded_database} share one graph, each source
    tagged with the shard it blocked at ({!clear}; the tag goes with
    ROADMAP item 6's fix).  Every operation takes the graph's mutex and
    no other lock: a commit, under one shard's mutex, races the rest. *)

open Tm_core

type t

val create : unit -> t

(** [set_waiting t tid ~on ~at] replaces [tid]'s outgoing edges and
    tags it with [at], the shard it blocked at.  A list
    that is already strictly increasing (as {!Lock_table.blockers}
    returns it) is stored as it is; any other is sorted and deduplicated
    first.  Re-registering the edges [tid] already has leaves the graph,
    and so the next {!find_cycle}'s answer, untouched.  A [tid] new to
    the graph joins [t]'s array of sources, grown by doubling.  A new or
    changed edge list marks its source for the next {!find_cycle}; the
    mark is kept beside the source in that array and leaves with it, so
    a graph that is fed but never searched keeps no more than its
    sources.  The tag is kept and moves the same way. *)
val set_waiting : t -> Tid.t -> on:Tid.t list -> at:int -> unit

(** [clear t tid ~at] removes [tid]'s outgoing edges {e and} every edge
    pointing at it from a source tagged [at] (call at shard [at] on
    commit/abort, and whenever [tid] executes there: that takes none of
    its locks at another shard away).  Returns at once when the graph
    has no edges; clearing a transaction the graph does not mention
    changes nothing.

    Otherwise it walks the graph's sources from an array [t] keeps of
    them (no closure), and allocates only, for each list that mentions
    [tid], the cells before [tid] (the rest is shared).  A rebuilt list
    keeps its place in the table, so the next {!find_cycle} visits in
    the same order. *)
val clear : t -> Tid.t -> at:int -> unit

(** [find_cycle t] is some cycle [t1 → t2 → … → t1] (listed without the
    closing repeat) if the graph has one: the first back edge of a
    depth-first search from each source in table order.

    The answer is kept in [t] and reused until {!set_waiting} or
    {!clear} changes the graph, so a search after a blocked retry that
    re-registered the same edges returns at once and allocates nothing.
    A search that does run first decides whether there is a cycle, by a
    depth-first walk over the array of sources that builds no closure:
    after a search that found none, from the marked sources alone (only
    a new or changed edge list can close a cycle, and {!clear} only
    takes edges away), so a search that follows only clears walks
    nothing; after one that found a cycle, from every source.  Only
    when there is a cycle does the search in table order run, so the
    cycle, and so the {!victim}, is the one a search from scratch
    finds.  Every walk keeps its path and visited marks in scratch
    arrays in [t] (grown by doubling, never shrunk; a visited test scans
    the nodes seen so far, which are at most the transactions in the
    graph), so a search that finds no cycle allocates nothing but those
    arrays when they grow, and one that finds a cycle the cycle it
    returns and the 4-word closure [Hashtbl.iter] builds for its walk. *)
val find_cycle : t -> Tid.t list option

(** [victim cycle] is the youngest (largest-id) transaction. *)
val victim : Tid.t list -> Tid.t

val waiting : t -> Tid.t -> Tid.t list
