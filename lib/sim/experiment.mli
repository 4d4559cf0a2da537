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
module Database = Tm_engine.Database
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

(** The comparison run by default benches: UIP+NRBC, DU+NFC, OCC+NFC,
    UIP+RW, DU+RW, UIP+Total. *)
val default_setups : setup list

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

(** {1 Running} *)

type row = {
  scenario : string;
  setup : string;
  stats : Scheduler.stats;
  consistent : bool;
      (** post-run invariant: at every object the committed operations
          replay legally in commit order *)
  deadlock_victims : int;  (** [tm_deadlock_victims_total] after the run *)
  retries : int;  (** [tm_txn_retries_total] after the run *)
  metrics : Tm_obs.Metrics.t;  (** the database registry, for exporters *)
  trace : Tm_obs.Trace.t option;  (** populated when [record_trace] *)
}

(** [run ?record_trace scenario setup cfg] — when [record_trace] (default
    false) a {!Tm_obs.Trace} recorder is attached before the run and
    returned in the row for JSONL export or trace→history replay. *)
val run : ?record_trace:bool -> scenario -> setup -> Scheduler.config -> row

(** [run_durable ?wal ?checkpoint_every scenario setup cfg] runs the
    scenario through a WAL-backed {!Tm_engine.Durable_database} and
    returns the row together with the log, ready for the crash-injection
    harness ({!Tm_engine.Crash.of_log}).  [wal] defaults to a fresh
    in-memory log; pass a {!Tm_engine.Disk_wal}-backed one to drive the
    workload against real (or fault-injected) storage.  When
    [checkpoint_every = n > 0] a fuzzy checkpoint is appended after every
    [n]th commit, i.e. while other transactions are typically in flight.
    [group_commit] (default 1) is {!Scheduler.run_durable}'s
    deterministic batching knob: the durability barrier runs after every
    [n]th commit instead of every commit.  [record_trace] behaves as in
    {!run}; durable runs additionally emit [wal_flush_wait]/[durable]
    spans around the group-commit watermark. *)
val run_durable :
  ?record_trace:bool -> ?wal:Tm_engine.Wal.t -> ?checkpoint_every:int ->
  ?group_commit:int -> scenario -> setup -> Scheduler.config ->
  row * Tm_engine.Wal.t

(** [run_custom] — for ablations with hand-built objects (custom conflict
    relations, mixed policies); [label] is the setup column text. *)
val run_custom :
  ?record_trace:bool -> name:string -> label:string -> workload:Workload.t ->
  build:(unit -> Atomic_object.t list) -> Scheduler.config -> row

(** [run_matrix scenario cfg] runs {!default_setups}. *)
val run_matrix : ?record_trace:bool -> scenario -> Scheduler.config -> row list

val pp_row : Format.formatter -> row -> unit

(** Render rows as an aligned table (one line per row). *)
val pp_table : Format.formatter -> row list -> unit

(** [verify_database db] — the per-object commit-order replay check. *)
val verify_database : Database.t -> bool
