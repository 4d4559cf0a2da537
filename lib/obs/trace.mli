(** Transaction trace spans: structured engine events with monotonic
    logical timestamps.

    A recorder is attached to a {!Tm_engine.Database} (or the durable /
    sharded / threaded front ends built on it); the engine emits one
    event per transaction-lifecycle step.  Every kind has a reader in
    the test suite: the lifecycle kinds in the obs and analytics span
    tests and {!to_history}, [deadlock_victim] in the concurrent tests,
    [wal_flush_wait] and [durable] in the durable span tests,
    [recovery_phase] in the walinspect tests and the four 2PC kinds in
    the sharded tests.  Waiting, log volume and restart
    totals are read from metrics instead ([tm_lock_wait_ticks],
    [tm_wal_appends_total], [tm_wal_forces_total], the
    [tm_recovery_*] family).  Timestamps are logical — each emitted
    event advances the recorder's clock by one — so traces are
    deterministic whenever the run is.

    The two consumers are {!to_jsonl} (a JSON-lines dump, one object per
    line, for external tooling) and {!to_history}, which converts a
    recorded trace back into a paper history so the run can be re-checked
    by {!Tm_core.Atomicity}'s dynamic-atomicity checkers — observability
    that double-checks the theory. *)

open Tm_core

type kind =
  | Begin
  | Invoke of { obj : string; inv : Op.invocation }  (** an invocation attempt *)
  | Executed of { op : Op.t }
  | Blocked of { obj : string; inv : Op.invocation; holders : Tid.t list }
  | No_response of { obj : string; inv : Op.invocation }
      (** partial operation with no legal response yet *)
  | Validating  (** commit-time validation begins (optimistic objects) *)
  | Validated of { ok : bool }  (** optimistic commit-time validation *)
  | Commit
  | Abort
  | Deadlock_victim of { cycle : Tid.t list }
  | Lock_release of { obj : string }
      (** the transaction's holds at [obj] released (commit or abort) *)
  | Wal_flush_wait of { upto : int }
      (** a committer parking on the group-commit watermark until
          [flushed_lsn >= upto] *)
  | Durable of { lsn : int }
      (** the watermark passed [lsn]: the commit is acknowledged durable *)
  | Recovery_phase of { phase : string; wall_us : int; items : int }
      (** one restart-profiler phase ({!Recovery_profile.phase_name}):
          wall time in microseconds and the phase's item count *)
  | Prepare_append of { shard : int; gtid : int }
      (** a participant shard logged its 2PC yes vote; [gtid] is the
          engine-wide trace id of the distributed transaction *)
  | Prepare_force of { shard : int; lsn : int; gtid : int }
      (** the participant's vote reached disk ([lsn] durable) — from
          here until the decision forces, the prepare is in doubt *)
  | Decision_force of { shard : int; lsn : int; gtid : int; commit : bool }
      (** the coordinator shard's decision record is durable: the
          global commit point of transaction [gtid] *)
  | Completion of { shard : int; gtid : int; commit : bool }
      (** phase 2 applied on a participant (lazy, unforced) *)

type event = {
  ts : int;  (** monotonic logical timestamp, unique per recorder *)
  tid : Tid.t option;  (** [None] for system-wide events (restart phases) *)
  kind : kind;
}

type t

val create : unit -> t

val emit : t -> tid:Tid.t -> kind -> unit

(** [emit_system t kind] — an event not attributable to one transaction
    (a restart phase); serialized with [tid:null]. *)
val emit_system : t -> kind -> unit

(** Events in emission order. *)
val events : t -> event list

val length : t -> int
val kind_name : kind -> string

(** {1 Exporters} *)

(** One JSON object per line: [{"ts":..,"tid":..,"event":..,...}].
    [extra] appends constant string fields to every line (e.g.
    [("setup", "UIP+NRBC")] when several runs share a file). *)
val to_jsonl : ?extra:(string * string) list -> t -> string

(** {1 Replay} *)

(** [to_history t] reconstructs the global event history of the traced
    run: each [Executed] operation contributes its invocation/response
    pair, and [Commit]/[Abort] expand into per-object completion events
    for exactly the objects the transaction executed at, oldest first
    (the order in which [Database] releases them).  The result can be
    fed to {!Tm_core.Atomicity.is_online_dynamic_atomic}; it is the one
    way to get the history of an engine run. *)
val to_history : t -> History.t
