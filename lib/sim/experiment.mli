(** Experiment harness: scenarios × engine setups → comparable rows.

    The paper's Section 8 conclusion — the two recovery methods trade off
    {e incomparable} amounts of concurrency — is qualitative; these
    experiments quantify it.  A {e scenario} fixes a workload and the
    objects it touches; a {e setup} fixes the recovery method and how the
    conflict relation is chosen:

    - [Semantic]: the minimal sound relation for the recovery method per
      Theorems 9/10 — NRBC for update-in-place, NFC for deferred-update;
    - [Read_write]: classical strict two-phase locking (the baseline that
      ignores type semantics);
    - [Total]: everything conflicts (serial execution reference). *)

module Atomic_object = Tm_engine.Atomic_object
module Recovery = Tm_engine.Recovery

type conflict_choice =
  | Semantic
  | Read_write
  | Total

type setup = {
  recovery : Recovery.kind;
  choice : conflict_choice;
  occ : bool;
      (** optimistic execution (validation at commit); implies
          deferred-update recovery *)
}

(** [setup ?occ recovery choice] — [occ] defaults to false. *)
val setup : ?occ:bool -> Recovery.kind -> conflict_choice -> setup

val label : setup -> string

type scenario = {
  name : string;
  workload : Workload.t;
  build : setup -> Atomic_object.t list;  (** fresh objects per run *)
}

(** {1 Built-in scenarios} *)

val bank_hotspot : scenario

(** Pure-update mix on one funded account: [withdraw_pct]% withdrawals,
    the rest deposits, no balance reads.  Sweeping [withdraw_pct]
    exhibits the paper's incomparability as a crossover: at 100%
    successful withdrawals commute backward (UIP+NRBC runs them
    concurrently) but not forward (DU+NFC serialises them); at moderate
    mixes deposit/withdraw pairs commute forward (DU) but withdrawals do
    not push back over deposits (UIP). *)
val bank_sweep : withdraw_pct:int -> scenario

(** [accounts] objects, Zipf-skewed access. *)
val bank_accounts : ?accounts:int -> ?skew:float -> unit -> scenario

val inventory : scenario

(** Escrow-pool mirror of {!bank_sweep}: [decr_pct]% reservations vs
    restocks on a half-full pool.  Same-direction updates favour UIP;
    mixed directions favour DU (neither ok-update pushes back over the
    other under UIP, by the capacity/zero bounds). *)
val inventory_sweep : decr_pct:int -> scenario
val queue_semiqueue : scenario
val queue_fifo : scenario
val register_baseline : scenario
val kv_store : ?keys:int -> unit -> scenario

(** Multi-object transfers between funded accounts. *)
val transfer : ?accounts:int -> unit -> scenario

(** Transfers over objects that alternate recovery methods — dynamic
    atomicity is local (Theorem 2), so the mix is still correct; the
    build ignores the setup's recovery choice. *)
val transfer_mixed_recovery : ?accounts:int -> unit -> scenario

val all_scenarios : scenario list

(** {1 Running}

    Every run drives its scenario through {!Tm_engine.Concurrent} on
    {!Fiber}s over a {!Tm_engine.Sharded_database}:
    [concurrency] fibers each take the next of [total_txns] programs
    (generated up front from the seed), run it in
    {!Tm_engine.Concurrent.with_txn} and yield after every invocation
    and every commit.  Deadlock victims, stall victims and validation
    failures retry after the fibers' seeded backoff.  When every fiber
    waits for a response, one more fiber starts the next program (only
    a transaction yet to start can answer them).  With no program left,
    the waiters are aborted and counted as [unanswered]; a transaction
    parked on a conflict instead means a deadlock or stall went
    unbroken, and the run raises [Fiber.All_parked].  Every commit is
    forced before it is acknowledged.  A run is a pure function of
    (scenario, setup, config) and the engine's shard count. *)

type config = {
  concurrency : int;  (** fibers, so simultaneously active transactions *)
  total_txns : int;  (** programs to run *)
  seed : int;
  max_retries : int;  (** per-program restarts after an abort *)
}

val config :
  ?concurrency:int -> ?total_txns:int -> ?seed:int -> ?max_retries:int -> unit -> config

(** A run's counts, read from its registry but for [unanswered]. *)
type stats = {
  committed : int;
  deadlock_victims : int;  (** [tm_deadlock_victims_total] *)
  stall_victims : int;  (** [tm_stall_victims_total] *)
  validation_aborts : int;  (** [tm_validation_failures_total] *)
  retries : int;  (** [tm_txn_retries_total] *)
  gave_up : int;  (** [tm_txn_gave_up_total] *)
  unanswered : int;
      (** transactions still waiting for a response when the programs
          ran out, aborted by the harness; not in the registry *)
  rounds : int;  (** [tm_sched_rounds_total], counted by the fibers *)
  attempts : int;  (** invocation attempts, [tm_invocations_total] *)
  executed : int;
  blocked : int;  (** attempts that hit a conflict *)
  no_response : int;  (** attempts on a partial op with no response *)
}

type row = {
  scenario : string;
  setup : string;
  stats : stats;
  consistent : bool;
      (** post-run invariant: at every object the committed operations
          replay legally in commit order *)
  metrics : Tm_obs.Metrics.t;
      (** the engine's and its shard's series, merged without a [shard]
          label, for exporters *)
  trace : Tm_obs.Trace.t option;  (** populated when [record_trace] *)
}

(** [drive ~checkpoint_every scenario setup cfg engine] — the one
    driver: runs [scenario] under [setup] on [engine], which the caller
    built over [scenario.build setup] with as many shards and logs of
    whatever kind it chose (the crash harness records them with
    {!Tm_engine.Crash.of_drive}).  When [checkpoint_every = n > 0] a
    fuzzy checkpoint is taken after every [n]th commit, while other
    transactions are typically in flight.  The row's [trace] is the
    recorder attached to [engine], if any. *)
val drive :
  checkpoint_every:int -> scenario -> setup -> config -> Tm_engine.Sharded_database.t ->
  row

(** [run ?record_trace scenario setup cfg] — {!drive} on a one-shard
    in-memory engine, without checkpoints.  When [record_trace] (default
    false) a {!Tm_obs.Trace} recorder is attached before the run and
    returned in the row for JSONL export or trace→history replay. *)
val run : ?record_trace:bool -> scenario -> setup -> config -> row

(** [run_custom] — for ablations with hand-built objects (custom conflict
    relations, mixed policies); [label] is the setup column text. *)
val run_custom :
  ?record_trace:bool -> name:string -> label:string -> workload:Workload.t ->
  build:(unit -> Atomic_object.t list) -> config -> row

(** [run_matrix scenario cfg] runs UIP+NRBC, DU+NFC, OCC+NFC, UIP+RW,
    DU+RW and UIP+Total. *)
val run_matrix : ?record_trace:bool -> scenario -> config -> row list

(** Render rows as an aligned table (one line per row): [abort] counts
    victims of both kinds plus validation failures, [effcy] commits per
    invocation attempt (1.0 = never blocked or retried). *)
val pp_table : Format.formatter -> row list -> unit
