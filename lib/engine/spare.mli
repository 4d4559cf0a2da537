(** Finished records kept for reuse: a stack in an array that grows by
    doubling and never shrinks.  It takes no lock: {!Database} uses its
    own under whatever lock its caller holds, {!Sharded_database} its
    own under its global mutex. *)

type 'a t

(** [create dummy] is an empty stack whose unused slots hold [dummy]. *)
val create : 'a -> 'a t

(** [push s x] puts [x] on top of [s]. *)
val push : 'a t -> 'a -> unit

(** [pop s] takes the top record off [s], or returns [s]'s dummy when
    [s] is empty, so a caller tests [==] and allocates no option. *)
val pop : 'a t -> 'a

(** [grow a fill] is a copy of [a], twice as long (two slots at least),
    whose new slots hold [fill]: the stack's doubling step, which a full
    array of the engine's own (a record's touched objects or shards,
    {!Deadlock}'s sources and search stacks) takes too. *)
val grow : 'a array -> 'a -> 'a array
