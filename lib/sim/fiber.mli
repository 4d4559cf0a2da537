(** Seeded fibers: a deterministic {!Tm_engine.Concurrent.runtime} on
    one domain, built on the stdlib [Effect] module.

    Time advances in {e rounds}.  In each round every runnable fiber
    steps once, in an order drawn from the seeded PRNG: it runs until it
    yields, sleeps, parks on a monitor or returns.  A yielding fiber
    runs again in the next round; [sleep k] sits out [k] rounds first.
    A parked fiber is runnable again in the round after a [broadcast]
    on its monitor.  A run is therefore a pure function of the fibers
    and the PRNG's state: the same seed gives the same interleaving. *)

open Tm_core

type t

(** Raised by {!run} when fibers are parked and none can run or wake
    them: no fiber is runnable or asleep.  Carries the tids the parked
    fibers wait in, in ascending order. *)
exception All_parked of Tid.t list

(** [create ~registry rng] — no fibers yet; the run draws from [rng]
    and counts every round in [registry]'s [tm_sched_rounds_total]. *)
val create : registry:Tm_obs.Metrics.t -> Random.State.t -> t

(** [spawn t f] adds a fiber that runs [f] from the next round on. *)
val spawn : t -> (unit -> unit) -> unit

(** [yield ()] ends the calling fiber's step: it runs again in the next
    round.  Only a fiber may call it. *)
val yield : unit -> unit

(** [sleep k] ends the calling fiber's step and sits out [k] rounds: a
    fiber that sleeps in round [r] runs again in round [r + k + 1]. *)
val sleep : int -> unit

(** [runtime t] — a fresh monitor on [t] for {!Tm_engine.Concurrent}.
    [wait] parks the calling fiber; [broadcast] makes every fiber
    parked on this monitor runnable in the next round; [backoff n]
    sleeps between 1 and [min 16 (2{^n-1})] rounds, drawn from the
    PRNG.  Entering and leaving the monitor costs nothing: a fiber
    switches only in [wait], outside the monitor, or outside any engine
    call. *)
val runtime : t -> Tm_engine.Concurrent.runtime

(** [run t] steps the fibers round by round until every one has
    returned.  Re-raises an exception that escapes a fiber.  Raises
    {!All_parked} instead of hanging; the parked fibers stay parked, and
    [run t] may be called again once a fiber is spawned. *)
val run : t -> unit

(** The current round: after {!run}, the number of rounds the run
    took, idle ones included. *)
val round : t -> int
