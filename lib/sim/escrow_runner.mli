(** Runs the escrow object in its own round loop: each round
    every active transaction attempts its next operation once, in
    seeded random order, and a round in which none progresses aborts
    the youngest.  That abort is counted only as a retry, or as a
    give-up once the program's budget is spent: the victim counts of
    its {!Experiment.stats} stay 0, since they name [Concurrent]'s
    rules.  Committed, rounds and refusals are directly comparable with
    the conflict-based engine's rows in the benchmark tables.

    Escrow never blocks on other transactions' identities (there is no
    waits-for graph), it {e refuses} operations the interval cannot
    guarantee; refusals are counted in [stats.blocked] and retried the
    next round. *)

val run : Tm_engine.Escrow.t -> Workload.t -> Experiment.config -> Experiment.stats

(** [verify ~capacity ~initial e] — the committed operations replay
    legally against the bounded-counter specification with the same
    bounds. *)
val verify : capacity:int -> initial:int -> Tm_engine.Escrow.t -> bool
