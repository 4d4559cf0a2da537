(** Restart profiler: per-phase timing and volume accounting for one
    crash recovery.

    A single value is created by the caller that drives a restart and
    threaded through the whole path.  {!Tm_engine.Disk_wal.load} charges
    the storage scan, frame decode and CRC verification (via
    {!Tm_engine.Wal.Codec.verify_frames} over every frame and
    {!Tm_engine.Wal.restore_frames} from the last checkpoint on), and —
    since that pass steps the log's replay state from the frames — the
    log scan and checkpoint seeding too.  {!Tm_engine.Shard.recover} then
    charges bucketing the committed operations by object (more log
    scan), loser resolution and per-object replay.
    Each layer also records what it processed (bytes, frames, records,
    per-object operation counts), so a restart is no longer one opaque
    call: the profile says where the time went and what the log
    contained.

    Wall times come from an injectable [clock] (default
    [Unix.gettimeofday]); tests inject a deterministic one.  Phases
    {e tile}: nested work is charged to the inner phase only
    ({!time_excluding}), so phase walls sum to (approximately) the
    instrumented time rather than double counting. *)

type phase =
  | Storage_scan  (** reading the backend's bytes *)
  | Frame_decode  (** frame parsing, excluding CRC verification *)
  | Checksum_verify  (** CRC-32 over each frame payload *)
  | Checkpoint_seed  (** installing a checkpoint snapshot during the scan *)
  | Log_scan
      (** folding records into replay state and bucketing the committed
          operations by object, excluding seeding *)
  | Object_replay  (** re-applying committed operations per object *)
  | Loser_undo
      (** resolving the loser set.  The log is redo-only, so "undo" is
          identifying the transactions that must count as aborted —
          no state is rolled back. *)

val all_phases : phase list
val phase_name : phase -> string

type t

(** [create ?clock ()] — [clock] defaults to [Unix.gettimeofday]. *)
val create : ?clock:(unit -> float) -> unit -> t

(** [time t ph f] runs [f], charging its wall time (and one call) to
    [ph]. *)
val time : t -> phase -> (unit -> 'a) -> 'a

(** [time_excluding t ph f] charges [f]'s wall time to [ph] {e minus}
    whatever [f] itself charged to other phases — so an outer phase and
    the phases nested in it stay disjoint. *)
val time_excluding : t -> phase -> (unit -> 'a) -> 'a

(** {1 Volume accounting} *)

val note_bytes_scanned : t -> int -> unit
val note_torn_bytes : t -> int -> unit
val note_frame : t -> unit

val note_records_scanned : t -> int -> unit
val note_checkpoint_seed : t -> ops:int -> unit

(** [note_object_replay t ~obj n] — [n] committed operations re-applied
    to [obj]. *)
val note_object_replay : t -> obj:string -> int -> unit

val note_losers : t -> int -> unit

(** [finish t] stamps the end-to-end wall time (creation to now). *)
val finish : t -> unit

(** {1 Accessors} *)

val phase_wall : t -> phase -> float
val phase_calls : t -> phase -> int

(** End-to-end wall if {!finish} ran, else the sum of phase walls. *)
val total_wall : t -> float

(** End-to-end wall less the sum of phase walls, floored at 0: the time
    charged to no phase, so that the phases and this add up to
    {!total_wall}.  {!pp} prints it as the [unprofiled] row and
    {!to_json} as [unprofiled_seconds]. *)
val unprofiled : t -> float

val bytes_scanned : t -> int

(** Every frame a load verified (header, CRC and payload walk), whether
    it was then decoded or, before the last checkpoint, only verified. *)
val frames_decoded : t -> int

(** Every record stepped into the replay state: from the last checkpoint
    on, so fewer than {!frames_decoded} when a checkpoint supersedes a
    prefix. *)
val records_scanned : t -> int
val replayed_ops : t -> int
val loser_txns : t -> int

(** [(obj, replayed ops)] sorted by object name. *)
val per_object : t -> (string * int) list

(** {1 Exports} *)

(** [export t reg] publishes the profile as the [tm_recovery_*] metric
    family: [tm_recovery_phase_seconds{phase}] per phase,
    [tm_recovery_wall_seconds], the volume counters
    ([tm_recovery_bytes_scanned_total], [tm_recovery_torn_bytes_total],
    [tm_recovery_frames_decoded_total],
    [tm_recovery_checkpoint_seed_ops_total]) and
    [tm_recovery_object_replayed_ops_total{obj}].  The call counts,
    records scanned and checkpoints seen stay in the profile
    ({!to_json}, {!pp}). *)
val export : t -> Metrics.t -> unit

(** The phases as trace-span payloads [(phase, wall microseconds,
    items)], omitting phases that neither ran nor counted anything.
    [items] is the count most characteristic of the phase (bytes for the
    storage scan, frames for decode/verify, records for the log scan,
    operations for seeding/replay, transactions for loser resolution). *)
val spans : t -> (string * int * int) list

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
