(** A set of transaction ids as an allocator hands them out: one bit per
    tid over a window, and a table for the tids the window does not
    take.  What remains of a finished transaction, both in a log's
    replay state ({!Wal}) and in a {!Database}.

    The window starts at the first tid added (rounded down to a multiple
    of 8) and grows by doubling, but never past the first doubling at or
    above two bytes per tid added since the last {!clear} plus a 32-byte
    floor, so within twice that bound; a run of every 16th tid stays in
    the window at 2 bytes a member.  So an outlier (a fuzzer's
    [max_int], a tid far above the rest) cannot size it by its value: a
    tid beyond the largest window the bound allows goes to the table
    and grows nothing.  A run of tids
    beyond a gap starts in the table, and the window grows over the rest
    of the run once there are enough of them.  Negative tids and tids
    below the first one always go to the table. *)

open Tm_core

type t

val create : unit -> t

(** [add s tid] puts [tid] in [s]; adding a member again changes
    nothing but the count the window's size bound reads. *)
val add : t -> Tid.t -> unit

(** [mem s tid] allocates nothing. *)
val mem : t -> Tid.t -> bool

(** [clear s] empties [s] and forgets its window's start; the window
    keeps its bytes. *)
val clear : t -> unit
