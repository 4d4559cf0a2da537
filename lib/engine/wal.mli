(** Write-ahead log for crash recovery.

    The paper restricts itself to recovery from transaction aborts and
    notes that "crash recovery mechanisms are frequently similar to abort
    recovery mechanisms" (Section 1), leaving their analysis as future
    work.  This module and {!Durable_object} implement that extension for
    the engine: a logical redo log of operations, with commit records
    forced before a commit is acknowledged, and fuzzy checkpoints.

    Stable storage is modelled in-memory; a {e crash} loses every
    volatile object state but none of the appended log records (append is
    atomic and forced).  Torn tails are modelled by recovering from a
    {e prefix} of the log: the crash-injection tests recover from every
    prefix. *)

open Tm_core

(** A {e fuzzy} checkpoint: a faithful snapshot of the replay state at
    the instant it was taken, valid even with transactions in flight.

    [committed] is every committed operation so far in commit order;
    [live] carries the per-transaction operation log (oldest first,
    possibly empty) of each transaction that had begun but not finished —
    so the log prefix before the checkpoint can be discarded without
    losing a loser or the pre-checkpoint operations of a transaction that
    commits later; [next_tid] is the transaction-id allocator's
    high-water mark, so recovery never reissues a tid that may still
    appear in the log. *)
type checkpoint = {
  committed : Op.t list;
  live : (Tid.t * Op.t list) list;
  next_tid : int;
}

type record =
  | Begin of Tid.t
  | Operation of Tid.t * Op.t
  | Commit of Tid.t
  | Abort of Tid.t
  | Checkpoint of checkpoint
  | Truncate_intent of { old_len : int; new_len : int }
      (** The compaction journal marker written by
          {!Disk_wal.checkpoint_truncate}: the old log ([old_len] bytes)
          is about to be replaced by a compacted image ([new_len]
          bytes).  It lives only in the journal region of the backend —
          never appended to an in-memory log — and {!Disk_wal.load}
          resolves it (redo or roll back the compaction) before the log
          reaches replay; {!replay} and {!plan} ignore a stray one (it
          carries no transaction state). *)
  | Prepare of Tid.t
      (** Two-phase-commit vote record, logged and {e forced} by a
          participant shard before it answers yes: the shard's operations
          for the transaction are all in the log before this record, so
          a recovered shard holding a [Prepare] can install the
          transaction in full if the global decision was commit.
          {!replay}/{!plan} read it as {e presumed abort}: a prepared
          transaction with no later local [Commit]/[Abort] is a loser —
          {!Sharded_database.recover} resolves such in-doubt
          transactions against the other shards' logs first. *)
  | Decision of { tid : Tid.t; commit : bool }
      (** The coordinator's 2PC outcome, logged and forced on the
          coordinator's own shard — the {e global commit point} of a
          cross-shard transaction.  Pure coordination state: it does not
          mark the transaction as begun on the coordinator's shard (a
          shard that only coordinated must not grow a phantom loser);
          recovery consults it to resolve other shards' in-doubt
          prepares. *)

val pp_record : Format.formatter -> record -> unit

(** Structural equality (used by the corruption sweep to check that a
    damaged log is never silently accepted as something new). *)
val equal_record : record -> record -> bool

type t

val create : unit -> t

(** [of_records recs] builds a log holding exactly [recs] (no metrics,
    no sink) — e.g. one decoded from disk by {!Disk_wal.load}. *)
val of_records : record list -> t

(** A stable-storage mirror: {!append} forwards every record,
    {!force} is the durability barrier, and a metrics attachment is
    forwarded so storage counters join the log's registry.  Installed by
    {!Disk_wal}; {!prefix} copies never carry the sink (a recovered
    prefix is a volatile artifact, not the stable log). *)
type sink = {
  sink_append : record -> unit;
  sink_force : unit -> unit;
  sink_attach : Tm_obs.Metrics.t -> unit;
}

(** [set_sink t sink] installs the mirror and moves the durability
    watermark to the current end of the log: whatever the log already
    holds was decoded {e from} stable storage, so it is durable by
    construction. *)
val set_sink : t -> sink -> unit

(** {2 The staged durability pipeline}

    Every {!append} is assigned the next monotone {e log sequence
    number} (1-based over the log's lifetime; {!truncate_to_checkpoint}
    does not rewind it).  [flushed_lsn] is the watermark below which the
    sink has certified durability; a commit may be acknowledged exactly
    when the watermark passes its commit record's LSN.

    {!force_upto} is a {e group-commit combiner}: the first thread to
    need a flush becomes the flusher and forces everything appended so
    far, while threads arriving during the barrier park on a condition
    and piggyback on the result (or on the next round if their record
    landed after the flusher's snapshot).  One [sink_force] thereby
    covers a whole batch of commits.  If the flusher's barrier raises,
    the round is handed over — every parked waiter is woken, one of them
    retries the flush — and the failure propagates to the failed
    flusher's caller only, so no thread is left blocked on a dead
    flusher. *)

(** The LSN of the newest fully-appended record (0 for an empty log). *)
val last_lsn : t -> int

(** The durability watermark.  For a sink-less log stable storage is
    modelled in-memory — every append is durable by fiat, so this equals
    {!last_lsn}. *)
val flushed_lsn : t -> int

(** [force_upto t lsn] blocks until [flushed_lsn t >= lsn], flushing or
    piggybacking as described above.  A no-op for a sink-less log.  Each
    actual barrier bumps [tm_wal_forces_total] and
    [tm_wal_group_commits_total] and records the number of commit
    records it covered in the [tm_wal_group_commit_batch] histogram. *)
val force_upto : t -> int -> unit

(** [force t] is [force_upto t (last_lsn t)]. *)
val force : t -> unit

(** [mark_all_flushed t] moves the watermark to the end of the log
    without a barrier — for callers that have just forced the backend
    through a side channel (e.g. {!Disk_wal.checkpoint_truncate}'s
    rewrite). *)
val mark_all_flushed : t -> unit

(** [attach_metrics t reg] counts appends per record kind as
    [tm_wal_appends_total{kind}], observes checkpoint sizes in the
    [tm_wal_checkpoint_ops] histogram and counts records dropped by
    {!truncate_to_checkpoint} as [tm_wal_truncated_records_total].
    {!Durable_database.create} attaches its database registry
    automatically; a log rebuilt by {!prefix} keeps the attachment.
    Per-append and per-force series are looked up in [reg] once, on
    their first event, and bumped through the cached handle after
    that. *)
val attach_metrics : t -> Tm_obs.Metrics.t -> unit

val append : t -> record -> unit

(** The record kind as a short lower-case string (metric/trace label). *)
val record_kind : record -> string

(** The retained records, oldest first (truncated records excluded). *)
val records : t -> record list

(** Number of retained records. *)
val length : t -> int

(** Cumulative records dropped by {!truncate_to_checkpoint}. *)
val truncated : t -> int

(** [prefix t n] — the stable log as it would read after a crash that
    persisted only the first [n] retained records.  The metrics
    attachment is carried over (the crash loses volatile object state,
    not the log's accounting); recovery re-attaches the new database's
    registry on top. *)
val prefix : t -> int -> t

(** [truncate_to_checkpoint t] drops every record preceding the latest
    [Checkpoint] in place, bounding log growth; the checkpoint itself and
    its tail are retained.  Returns the number of records dropped (0 when
    there is no checkpoint or nothing precedes it).  Replay of the
    truncated log equals replay of the full log: the fuzzy snapshot
    carries the committed prefix and every in-flight transaction's
    operations. *)
val truncate_to_checkpoint : t -> int

(** [replay records] folds a log into the durable outcome: the committed
    operations in commit order and the set of transactions that must be
    considered aborted (begun or operating — including those known only
    from the latest checkpoint's [live] snapshot — but with no commit
    record).  Operations of a transaction are redone only if its commit
    record is present; a transaction live at the latest checkpoint that
    commits afterwards replays its snapshot operations followed by the
    ones it logged after the checkpoint.

    With [profile], the fold is charged to the restart profiler:
    records scanned, checkpoint seeding (time and seeded ops), the scan
    itself, and loser resolution. *)
val replay :
  ?profile:Tm_obs.Recovery_profile.t -> record list -> Op.t list * Tid.Set.t

(** [max_tid records] is the highest transaction id mentioned anywhere in
    the log — by a record or by a checkpoint's [live]/[next_tid] snapshot
    — or [None] for a log that mentions none.  Recovery seeds tid
    allocation strictly above it. *)
val max_tid : record list -> Tid.t option

(** {2 The restart fold}

    {!plan} is the pass {!Durable_database.recover} runs: the same fold
    as {!replay}, checkpoint seeding included, but committed operations
    are grouped by object instead of forming one global list, so each
    rebuilt object is restored with one lookup.  {!replay} stays the
    independent reference the crash checks compare it against. *)

type plan = {
  plan_objects : (string, Op.t list) Hashtbl.t;
      (** committed operations per object name, in commit order; an
          object the log never commits to has no entry *)
  plan_loser_tids : Tid.Set.t;  (** = {!replay}'s loser set *)
  plan_ops : int;  (** committed operations across all objects *)
  plan_next_tid : int;
      (** first tid strictly above every tid the log mentions (0 for a
          log that mentions none): {!max_tid} + 1, computed in the same
          pass *)
}

(** [partition_of_object ~workers name] — [Hashtbl.hash name mod
    workers], deterministic across runs: the shard router of
    {!Sharded_database}. *)
val partition_of_object : workers:int -> string -> int

(** [plan ~workers records] — the per-object replay plan.  With
    [profile], the pass charges the same phases as {!replay} (records
    scanned, checkpoint seeding, log scan, loser resolution).

    [workers] must be 1 ([Invalid_argument] otherwise): restart is
    serial, and the argument survives only so existing benchmark probes
    that pass [~workers:1] keep compiling; it is due to be dropped. *)
val plan :
  ?profile:Tm_obs.Recovery_profile.t -> workers:int -> record list -> plan

(** [fuzzy_checkpoint ?next_tid records] computes the checkpoint snapshot
    of [records]: committed operations in commit order, the operation log
    of every unfinished transaction, and a high-water mark covering both
    every tid in the log and the caller's allocator position [next_tid]
    (default 0 — callers without an allocator rely on the log scan). *)
val fuzzy_checkpoint : ?next_tid:int -> record list -> checkpoint

(** Binary record framing for the on-disk log — a {e versioned},
    forward-compatible contract (docs/WAL_FORMAT.md is the generated
    spec).

    Each record is one frame.  Two frame formats are readable:

    - {b v1}: 2-byte magic, version byte [0x01], 4-byte little-endian
      payload length, 4-byte CRC32 of the payload, payload;
    - {b v2}: 2-byte magic, version byte [0x02], 2-byte little-endian
      shard id, then length/CRC/payload as in v1.

    The payload encoding (record tag + body) is identical across
    versions, so version negotiation is purely per-frame header
    dispatch: a decoded v1 log replays bit-for-bit to the same state it
    always did.  New frames are written as {!write_version} (v2), so a
    log loaded from an old binary grows as a readable mixed-version log
    until {!Disk_wal.checkpoint_truncate} rewrites it pure-v2.

    {!Codec.decode_all} never guesses: a frame that fails its CRC (or
    any other check) with {e no} intact frame after it is a {e torn
    tail} — dropped and reported in [torn], recovery proceeds treating
    it as crash loss — while a failing frame {e followed} by an intact
    one proves bytes beyond the damage were durably written, so it is
    {e interior corruption} and decoding returns an error carrying the
    byte offset and (when readable) the frame's version rather than
    silently skipping records.

    {b What the codec allocates.}  {!Codec.encode} sizes a record
    before writing it, so a frame is one allocation: the returned
    string, written once with its header, payload, length and CRC;
    {!Codec.encode_all} writes every frame into one buffer of the total
    size.  The CRC keeps its running value in an [int] and allocates
    nothing.  {!Codec.decode_all} checks each CRC over the source string
    in place and reads the payload there, bounded by the frame's end: it
    copies no payload, and per frame it allocates only the decoded
    record (its strings, lists and values) and one list cell.  None of
    this shows in the bytes: every frame must match the plain two-buffer
    encoder kept as the oracle in [test/codec_reference.ml]. *)
module Codec : sig
  val v1 : int
  val v2 : int

  (** The version every new frame is encoded with (currently {!v2}). *)
  val write_version : int

  (** Versions this binary decodes ([[v1; v2]], ascending). *)
  val supported_versions : int list

  val is_supported : int -> bool

  (** [header_size v] — frame-header bytes (before the payload) of a
      version-[v] frame: 11 for v1, 13 for v2.  Raises
      [Invalid_argument] on an unsupported version. *)
  val header_size : int -> int

  (** The smallest supported header — what a scanner needs before it can
      read the version byte and dispatch. *)
  val min_header_size : int

  (** The two frame-magic bytes, exposed for forensic scanners
      ({!Wal_inspect}, {!Disk_wal}'s compaction-journal search) that
      anchor on them. *)
  val magic0 : char

  val magic1 : char

  (** CRC-32 (IEEE), exposed for tests and the format document.  Only
      the returned [int32] is allocated. *)
  val crc32 : string -> int32

  (** [encode r] is the full frame (header + payload) for [r], encoded
      as [version] (default {!write_version}), written into one
      allocation of exactly the frame's size.  [shard] (default 0, v2
      only) is the frame's shard id; encoding v1 demands [shard = 0].
      Encoding as {!v1} exists for the migration tests and the v1-log
      harvest — production writes are always {!write_version}.  Record
      kinds that postdate the v1 header ([Prepare], [Decision]) travel
      only under v2 frames; encoding them as v1 raises
      [Invalid_argument]. *)
  val encode : ?version:int -> ?shard:int -> record -> string

  (** [v2_only_record r] — does [r] require a v2 frame?  True exactly
      for the record kinds introduced after the v1 header was frozen
      ([Prepare], [Decision]). *)
  val v2_only_record : record -> bool

  (** [encode_all recs] is the concatenation of the frames of [recs],
      written into one allocation of the total size. *)
  val encode_all : ?version:int -> ?shard:int -> record list -> string

  type corruption = {
    offset : int;  (** byte offset of the unreadable frame *)
    version : int option;
        (** the frame's version byte when it was readable — including a
            foreign (unsupported) version, so a reader can say exactly
            which format it refused; [None] when the damage precedes
            the version byte (bad magic, truncated header) *)
    reason : string;
  }

  val pp_corruption : Format.formatter -> corruption -> unit

  (** A parsed, validated frame header — the per-frame version
      negotiation point every reader dispatches through. *)
  type header = {
    h_version : int;
    h_shard : int;  (** 0 for v1 frames *)
    h_payload_len : int;
    h_size : int;  (** header bytes before the payload *)
  }

  (** [check_header s pos] is the one header parse: it validates the
      frame header at [pos] (magic, supported version, plausible payload
      length — no CRC) and returns the payload length, or a negative
      number when the header is unreadable.  It allocates nothing;
      {!Disk_wal}'s journal search calls it on every magic byte. *)
  val check_header : string -> int -> int

  (** [read_header s pos] is {!check_header} with the parsed header, or
      the corruption that makes it unreadable, as a [result].  Exposed
      for scanners that walk frames by extent ({!Wal_inspect}'s
      histograms, {!Disk_wal}'s mixed-version offset walk). *)
  val read_header : string -> int -> (header, corruption) result

  (** [decode_frame s pos] decodes the single frame starting at byte
      [pos]: [Ok (record, next_pos)] or the corruption that makes it
      unreadable.  The forensic walker ({!Wal_inspect}) uses this to
      attribute each record to its byte extent.  The frame is checked
      and read in place: no payload copy, and a payload-length field
      that lies cannot pull a byte of a neighbouring frame into the
      record.  With [profile], CRC verification is charged to the
      [Checksum_verify] phase. *)
  val decode_frame :
    ?profile:Tm_obs.Recovery_profile.t ->
    string ->
    int ->
    (record * int, corruption) result

  (** [valid_frame_after s pos] — is there an intact frame anywhere at or
      after [pos]?  The resynchronisation scan behind the torn-tail /
      interior-corruption distinction.  The cursor anchors on the magic
      bytes and rejects implausible headers before paying for a CRC, so
      damaged regions are skipped at search speed rather than one full
      decode attempt per byte.  [budget] (default 16 MiB) caps the
      payload bytes spent CRC-probing plausible candidates; exhausting
      it returns [true] — the {e conservative} verdict (interior
      corruption, decoding refuses) — never a silent torn-tail drop. *)
  val valid_frame_after : ?budget:int -> string -> int -> bool

  type decoded = {
    records : record list;
    clean_bytes : int;  (** length of the intact prefix *)
    torn : corruption option;
        (** a trailing torn/corrupt frame that was dropped as crash loss *)
  }

  (** [decode_all s] — [Ok] with the decoded records (and possibly a
      truncated torn tail), or [Error] on interior corruption.  Frames
      are decoded in place as by {!decode_frame}, but with no per-frame
      [Ok], header record or reader: a clean frame costs its record and
      one list cell.  With
      [profile], frame decode and CRC verification are charged as
      separate phases, and decoded frames / torn bytes are counted. *)
  val decode_all :
    ?profile:Tm_obs.Recovery_profile.t ->
    string ->
    (decoded, corruption) result
end
