(** Crash-injection torture harness for WAL recovery.

    The paper's thesis is that recovery and concurrency control must be
    designed together; this module adversarially exercises the join.  A
    workload is driven through a {!Durable_database}; then, for {e every}
    append point of the resulting log (every [Wal.prefix], i.e. every
    possible torn tail), the harness crashes, recovers and checks three
    invariants:

    + {b replay legality / dynamic atomicity} — every object's restored
      operation sequence is legal for its specification, and the history
      the recovered prefix stands for (committed transactions in their
      logged interleaving, crash losers aborted) passes the paper's
      dynamic-atomicity checker;
    + {b prefix stability} — the committed operation sequence at each
      crash point extends the one at the previous crash point: one more
      surviving record can never un-commit work (this is also what makes
      a fuzzy checkpoint record a faithful snapshot of its prefix);
    + {b idempotence} — recovering, taking a fuzzy checkpoint, truncating
      the log to it and recovering again reproduces exactly the same
      committed state and loser set.

    The checks follow Börger–Schewe–Wang's discipline (PAPERS.md) of
    verifying recovery against the specification instead of trusting the
    implementation. *)

open Tm_core

type violation = {
  cut : int;  (** how many log records survived the crash *)
  invariant : string;  (** ["replay-legality"], ["dynamic-atomicity"],
                           ["prefix-stability"] or ["idempotence"] *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type report = {
  cuts : int;  (** crash points exercised (log length + 1) *)
  atomicity_checked : int;
      (** cuts on which the exact dynamic-atomicity check ran (it is
          skipped above [max_atomicity_txns] transactions) *)
  violations : violation list;
}

(** [ok r] — no invariant was violated. *)
val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

(** [history_of_records recs] — the post-crash history a recovered log
    stands for: the latest checkpoint's committed base as one synthetic
    committed transaction, then the logged operations in execution order,
    commits in commit-record order, and every unfinished transaction
    aborted (recovery implicitly aborts crash losers).  Exposed for
    tests. *)
val history_of_records : Wal.record list -> History.t

(** [torture ?max_atomicity_txns ~rebuild wal] crashes at every
    append point of [wal] (which must already contain a driven workload)
    and checks the three invariants; [rebuild] supplies fresh objects
    exactly as for {!Durable_database.recover}.  [max_atomicity_txns]
    (default 8) gates the exponential atomicity check.  [wal] itself
    is never mutated — each cut works on a {!Wal.prefix} copy. *)
val torture :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_bytes ~rebuild wal] is {!torture} at byte granularity: the
    log is serialised with {!Wal.Codec.encode_all} and the crash is
    injected at {e every byte offset} of the encoding — so cuts land in
    the middle of frames, not just between records.  Each cut is decoded
    with {!Wal.Codec.decode_all}; a prefix cut must always classify as a
    clean log or a torn tail (an interior-corruption verdict on a pure
    prefix is reported as a ["torn-tail"] violation), and the surviving
    records then pass the full invariant battery.  Cuts that decode to
    the same record list as the previous cut are skipped — the recovered
    state cannot differ.  [cuts] in the report counts byte offsets. *)
val torture_bytes :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_truncation ~rebuild wal] sweeps the crash-atomic
    log compaction of {!Disk_wal.checkpoint_truncate}: it replays the
    compaction [wal] would perform (journal = [Truncate_intent] frame +
    compacted image appended after the old log; install = image
    rewritten from offset 0) and reconstructs {e every} intermediate
    backend state — each byte prefix of the journal write, each byte
    prefix of the install write over the journaled file, and the final
    image.  Every state is reloaded through {!Disk_wal.load} and
    recovered; a reload refusal, or any difference from the
    pre-compaction committed state / loser set, is a
    ["truncate-atomicity"] violation.  A log whose truncation would drop
    nothing (no checkpoint) reports zero cuts.  [wal] is not mutated. *)
val torture_truncation :
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_upgrade ~rebuild wal] sweeps the incremental
    v1→v2 format migration: the log's records are laid down as pure
    {e v1} frames (what a pre-versioning binary left on disk), the
    compacted replacement image is encoded as v2 (what
    {!Disk_wal.checkpoint_truncate} writes today), and {e every} byte
    state of the journal + install rewrite is reloaded and recovered —
    crash mid-journal leaves the readable v1 log (torn v2 debris rolled
    back), crash mid-install redoes from the journaled image, and every
    state must recover the exact pre-upgrade committed state and loser
    set (zero acknowledged-commit loss across the migration; violations
    are ["upgrade-atomicity"]).  Unlike {!torture_truncation} the sweep
    runs even when no records would be dropped: the rewrite is then a
    pure v1→v2 re-encode.  [wal] is not mutated. *)
val torture_upgrade :
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** {1 Batch-prefix torture (group commit)} *)

type batch_report = {
  byte_cuts : int;  (** byte offsets exercised (encoded length + 1) *)
  frontiers : int;  (** durability barriers the driven run performed *)
  acked_max : int;  (** commits acknowledged by the final barrier *)
  batch_violations : violation list;
}

(** [batch_ok r] — every cut inside a batch recovered to a prefix of the
    batch's commit order, and no acknowledged commit was lost. *)
val batch_ok : batch_report -> bool

val pp_batch_report : Format.formatter -> batch_report -> unit

(** [torture_batched ~group_every wal] replays the ack discipline of a
    group-commit run over [wal] — a barrier after every
    [group_every]-th commit record plus a final one, as
    {!Tm_sim.Scheduler.run_durable}'s [~group_commit] knob produces —
    and cuts the encoded log at every byte offset.  Each cut must
    decode as a clean log or torn tail (["torn-tail"] violation
    otherwise), recover a commit order that is a {e prefix} of the full
    one (["batch-prefix"]), and retain at least every commit
    acknowledged at the last barrier at or before the cut
    (["acked-durability"] — the no-lost-acked-commit guarantee: a
    commit is acked only once the flushed-LSN watermark passes its
    commit record). *)
val torture_batched : group_every:int -> Wal.t -> batch_report

type sweep_report = {
  flips : int;  (** single-bit corruptions injected (one per byte offset) *)
  interior_detected : int;
      (** flips detected as interior corruption (typed [Corrupt_log]) *)
  tail_losses : int;
      (** flips absorbed as a torn tail — records lost but the survivors
          are a prefix of the original log (crash-equivalent, safe) *)
  harmless : int;  (** flips that decoded to the identical record list *)
  sweep_violations : violation list;
      (** silent corruptions: decode succeeded with a record list that is
          {e not} a prefix of the original — the framing failed *)
}

(** [sweep_ok r] — every injected corruption was detected or contained. *)
val sweep_ok : sweep_report -> bool

val pp_sweep_report : Format.formatter -> sweep_report -> unit

(** [corruption_sweep wal] flips one bit in every byte of the encoded log
    (bit position rotating with the offset) and decodes each corrupted
    copy, classifying the outcome; see {!sweep_report}.  [wal] is not
    mutated. *)
val corruption_sweep : Wal.t -> sweep_report

(** {1 Sharded torture (cross-shard 2PC)} *)

type sharded_report = {
  shard_count : int;
  byte_cuts : int;  (** byte offsets swept, summed over all shard logs *)
  forced_states : int;  (** distinct forced-frontier crash states checked *)
  cross_txns : int;  (** transactions that entered 2PC in the driven run *)
  cross_checked : int;
      (** (state, transaction) pairs on which the evidence-implies-survival
          check ran *)
  sharded_violations : violation list;
}

(** [sharded_ok r] — no invariant was violated at any crash state. *)
val sharded_ok : sharded_report -> bool

val pp_sharded_report : Format.formatter -> sharded_report -> unit

(** [torture_sharded ~shards:n ~rebuild ~drive ()] drives a workload
    through a fresh {!Sharded_database} over [n] recording WALs, then
    checks crash states spanning {e all} the shard logs:

    - {b forced frontiers} — at every global clock tick, every shard
      retains exactly what its last durability barrier covered (all
      unforced appends lost at once).  This sweeps the 2PC force
      ordering itself — participants' operations and [Prepare]s must be
      durable before the coordinator's [Decision] exists, the
      [Decision] durable before any completion is trusted;
    - {b byte cuts} — for every shard and every byte offset of its
      encoded log (frames stamped with the shard's id), the shard keeps
      that byte prefix (a misclassified torn tail is a ["torn-tail"]
      violation) while the others keep their maximal consistent
      prefixes: everything appended before the first record the cut
      shard lost.

    Each state passes an evidence-driven battery: a transaction with
    surviving commit evidence ([Decision{commit}] anywhere, or a
    phase-2 [Commit] of a prepared transaction) must retain {e all} its
    operations and end committed on every participant whose [Prepare]
    survived; one without evidence must end committed {e nowhere}
    (presumed abort) — so no shard ever installs a cross-shard
    transaction another shard aborted, and no acknowledged cross-shard
    commit is ever lost (acknowledgement happens only after the forced
    [Decision]).  Each recovered state must also be legal per object
    specification, equal to a direct replay of its resolved logs, and
    stable under a second recovery (which must append nothing). *)
val torture_sharded :
  shards:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  drive:(Sharded_database.t -> unit) ->
  unit -> sharded_report

(** [run ~rebuild ~drive ()] builds a fresh durable database over
    [rebuild ()], lets [drive] run a workload against it (including any
    mid-run {!Durable_database.checkpoint} calls), then tortures the
    resulting log. *)
val run :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  drive:(Durable_database.t -> unit) ->
  unit -> report
