(** Write-ahead log for crash recovery.

    The paper restricts itself to recovery from transaction aborts and
    notes that "crash recovery mechanisms are frequently similar to abort
    recovery mechanisms" (Section 1), leaving their analysis as future
    work.  This module and {!Shard} implement that extension
    for the engine: a logical redo log of operations, with commit records
    forced before a commit is acknowledged, and fuzzy checkpoints.

    One fold reads a log back: its {e replay state} is the committed
    operations, the operations of every unfinished transaction, the
    finished tids and the tid high-water mark, and, for two-phase
    commit, the prepares still in doubt and the outcome evidence the log
    holds.  A log keeps that state, not its records: every {!append}
    (once the sink holds the record) and every frame {!Disk_wal.load}
    reads from the last checkpoint on ({!restore_frames}) steps it, so a restart, a
    checkpoint or the 2PC resolution of a sharded restart reads it in
    O(state) instead of rescanning the log ({!plan_of},
    {!checkpoint_of}, {!in_flight}, {!in_doubt}).  {!replay}, {!max_tid}
    and {!plan} are the same fold over a record list.  The state's committed
    operations are an {!Op_log}, about one word per operation: a
    [Commit] pushes the transaction's operations and a checkpoint's seed
    takes a log of its [committed] operations over (a load decodes them
    straight into it), and only {!replay} and a snapshot
    ({!checkpoint_of}) build a list of them.  The
    log still grows with every committed operation.

    The records themselves live on stable storage.  With a {!sink}
    ({!Disk_wal}), that is the sink's backend, and {!records} and
    {!truncate_to_checkpoint} read the log back from it.
    A sink-less log ({!create}, {!of_records}) models stable storage in
    memory as its own record list; a {e crash} loses every volatile
    object state but none of the appended log records (append is atomic
    and forced).  Torn tails are modelled by recovering from a
    {e prefix} of the log ({!of_records} of the first records): the
    crash-injection tests recover from every prefix. *)

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
      (** Opens a transaction.  {!Shard} no longer writes it (the first
          [Operation] opens the transaction in the replay state just as
          well), but every version still encodes and replays it, so old
          logs read as they always did. *)
  | Operation of Tid.t * Op.t
  | Commit of Tid.t
  | Abort of Tid.t
  | Checkpoint of checkpoint
  | Truncate_intent of { old_len : int; new_len : int }
      (** The compaction journal marker written by {!Disk_wal}'s
          compaction for {!truncate_to_checkpoint}: the old log
          ([old_len] bytes) is about to be replaced by a compacted image
          ([new_len] bytes).  It lives only in the journal region of the backend —
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

(** [of_records recs] builds a sink-less log holding exactly [recs] (no
    metrics). *)
val of_records : record list -> t

(** Stable storage for a log, installed by {!Disk_wal}: it holds the
    records, and the log keeps only their replay state.
    [sink_append] persists a record ({!append} forwards every record
    before the log counts it), [sink_force] is the durability barrier,
    [sink_attach] forwards a metrics attachment so storage counters join
    the log's registry, [sink_records] reads the stored log back, oldest
    first, and [sink_rewrite recs] durably replaces it with [recs] (the
    barrier is part of the call). *)
type sink = {
  sink_append : record -> unit;
  sink_force : unit -> unit;
  sink_attach : Tm_obs.Metrics.t -> unit;
  sink_records : unit -> record list;
  sink_rewrite : record list -> unit;
}

(** [set_sink t sink] installs the sink and moves the durability
    watermark to the current end of the log: whatever the log already
    holds is taken to be what the sink's storage holds (a log built by
    {!Disk_wal.load}), so it is durable by construction, and the log
    drops its record list. *)
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
    records it covered in the [tm_wal_group_commit_batch] histogram.
    The combiner is a top-level recursive function and a failed barrier
    travels as its own exception, so a force allocates nothing beyond
    what the sink's barrier and the metrics do (a {!Disk_wal} log with
    no metrics attached: nothing). *)
val force_upto : t -> int -> unit

(** [force t] is [force_upto t (last_lsn t)]. *)
val force : t -> unit

(** [attach_metrics t reg] counts appends per record kind as
    [tm_wal_appends_total{kind}] and counts records dropped by
    {!truncate_to_checkpoint} as [tm_wal_truncated_records_total].
    {!Shard.create} attaches its database registry
    automatically.
    Per-append and per-force series are looked up in [reg] once, on
    their first event, and bumped through the cached handle after
    that. *)
val attach_metrics : t -> Tm_obs.Metrics.t -> unit

(** [append t r] hands [r] to the sink first; only once the sink
    returns does the log count it, assign its LSN and step its replay
    state.  A sink that raises (e.g. {!Disk_wal.Storage_unavailable})
    leaves the log exactly as it was. *)
val append : t -> record -> unit

(** [restore t r] takes in a record that stable storage already holds:
    as {!append}, but [r] is not handed to the sink and counts as
    durable.  {!of_records} calls it on every record. *)
val restore : t -> record -> unit

(** [restore_frames t ~superseded ~superseded_commits ~superseded_hwm s
    ~from ~upto] takes in a log that stable storage holds as the bytes
    [s], every frame of which {!Codec.verify_frames} passed: the
    [superseded] frames before byte [from], which a [Checkpoint] at
    [from] stands for, and the frames from [from] up to [upto].

    The superseded frames are not stepped.  They count toward {!length},
    as durable toward {!last_lsn} and {!flushed_lsn}, and
    [superseded_commits] of them as commit records; [superseded_hwm],
    the first tid above every tid they mention (a checkpoint's
    [next_tid] as it stands), raises the tid high-water mark, which
    stays the maximum over every record.

    The frames from [from] on step the replay state straight from their
    bytes, as {!restore} of their decoded records would: an [Operation]
    is read as its tid and operation, a [Commit] as its tid, and a
    checkpoint's committed operations go straight into the state's
    {!Op_log}, so none of these builds a record or a list.  The pass
    reads through the decode cache {!Codec.decode_verified} uses.
    {!Disk_wal.load} calls it once, with the last checkpoint's offset as
    [from] (0 without one).

    With [profile], the pass is charged to the frame-decode phase, each
    step to the log scan, and a checkpoint's decode and seed to its own
    phase; every frame from [from] on counts as a scanned record.
    Raises [Invalid_argument] on a sink-less log, which holds its
    records itself, or where the bytes do not parse as a run of
    verified frames. *)
val restore_frames :
  ?profile:Tm_obs.Recovery_profile.t ->
  t ->
  superseded:int ->
  superseded_commits:int ->
  superseded_hwm:int ->
  string ->
  from:int ->
  upto:int ->
  unit

(** The record kinds as lower-case labels (metrics, traces, forensics),
    indexed by tag, payload byte 0: ["begin"] is 0, ["decision"] 7. *)
val record_kinds : string array

val record_kind : record -> string

(** The retained records, oldest first (truncated records excluded).
    With a sink, read back from stable storage (for {!Disk_wal}, decoded
    from its backend's bytes; [Failure] if they no longer decode
    intact). *)
val records : t -> record list

(** Number of retained records. *)
val length : t -> int

(** [truncate_to_checkpoint t] drops every record preceding the latest
    [Checkpoint], bounding log growth; the checkpoint itself and its tail
    are retained — in place for a sink-less log, through [sink_rewrite]
    with a sink (for {!Disk_wal}, its crash-atomic compaction, described
    there).  The
    replay state is unchanged.  Returns the number of records dropped (0 when
    there is no checkpoint or nothing precedes it).  Replay of the
    truncated log equals replay of the full log: the fuzzy snapshot
    carries the committed prefix and every in-flight transaction's
    operations. *)
val truncate_to_checkpoint : t -> int

(** {2 The replay state}

    What the log reads back to, kept up to date by {!append} and
    {!restore} and {!restore_frames}.  Each read costs O(state), never
    a scan of the log. *)

(** [in_flight t tid] — does the log hold records of [tid] ([Begin],
    [Operation] or [Prepare]) and no [Commit] or [Abort] for it?  What
    {!Shard} asks before logging a transaction's [Abort]. *)
val in_flight : t -> Tid.t -> bool

(** [checkpoint_of ~next_tid t] is the checkpoint snapshot of the log:
    committed operations in commit order, the operation log of every
    unfinished transaction, and a high-water mark covering both every
    tid in the log and the caller's allocator position [next_tid] (0 for
    a caller without an allocator, which relies on the log scan).  It is
    read from the state, O(committed + live operations); the snapshot of
    a record list [recs] is [checkpoint_of ~next_tid (of_records recs)]. *)
val checkpoint_of : next_tid:int -> t -> checkpoint

(** {3 What 2PC recovery asks}

    {!Two_phase.analyze} reads these of each shard's log.  Like the rest
    of the state they cover the log from its last checkpoint on, which
    loses nothing: {!Sharded_database.checkpoint} refuses while a
    cross-shard transaction is between its first prepare and its
    completion, so no 2PC outcome spans a checkpoint.  The sets are
    {!Tid_bits} and the in-doubt list is pruned at each local outcome,
    so an append's cost stays flat. *)

(** [in_doubt t] — the tids this log prepared with no [Commit] or
    [Abort] since, in the order of the [Prepare] that left each in
    doubt (the first one: tids are never reused). *)
val in_doubt : t -> Tid.t list

(** [decided t tid] — does the log hold a [Decision] for [tid]? *)
val decided : t -> Tid.t -> bool

(** [phase2 t tid] — does the log hold a [Commit] or [Abort] of [tid]
    after a [Prepare] of it?  A participant logs the outcome the
    coordinator decided, so such a record is as good as the decision. *)
val phase2 : t -> Tid.t -> bool

(** [commit_evidence t tid] — does the log prove [tid] committed: a
    [Decision { commit = true }], or a phase-2 [Commit]? *)
val commit_evidence : t -> Tid.t -> bool

(** {2 The fold over a record list} *)

(** [replay records] folds a log into the durable outcome: the committed
    operations in commit order and the set of transactions that must be
    considered aborted (begun or operating — including those known only
    from the latest checkpoint's [live] snapshot — but with no commit
    record).  Operations of a transaction are redone only if its commit
    record is present; a transaction live at the latest checkpoint that
    commits afterwards replays its snapshot operations followed by the
    ones it logged after the checkpoint.

    The global commit order is what the pinned replay digests
    ([test/golden/logs/DIGESTS], [walinspect --digest]) hash. *)
val replay : record list -> Op.t list * Tid.Set.t

(** [max_tid records] is the highest transaction id mentioned anywhere in
    the log — by a record or by a checkpoint's [live]/[next_tid] snapshot
    — or [None] for a log that mentions none.  Recovery seeds tid
    allocation strictly above it. *)
val max_tid : record list -> Tid.t option

(** {2 The restart fold}

    {!plan} is the restart view of the fold: the same state as
    {!replay}, checkpoint seeding included, with the committed
    operations grouped by object instead of forming one global list, so
    each rebuilt object is restored with one lookup.  Each object's
    operations are an {!Op_log}, which {!Shard.recover} hands to the
    rebuilt object's restore ({!Atomic_object.restore_log}): the object
    steps its state through it and keeps it as its committed log, with
    no copy.  {!Shard.recover} reads the plan from the log's state
    ({!plan_of}).  The independent
    reference the crash checks compare every view against is the
    pre-fold implementation kept in [test/wal_replay_reference.ml]. *)

type plan = {
  plan_objects : (string, Op_log.t) Hashtbl.t;
      (** committed operations per object name, in commit order; an
          object the log never commits to has no entry.  Each bucket is
          the plan's own (no other plan or log shares it), so a restore
          may take it over as the object's committed log, after which
          the object's commits push onto it in place *)
  plan_loser_tids : Tid.Set.t;  (** = {!replay}'s loser set *)
  plan_ops : int;  (** committed operations across all objects *)
  plan_next_tid : int;
      (** first tid strictly above every tid the log mentions (0 for a
          log that mentions none): {!max_tid} + 1, computed in the same
          pass *)
}

(** [partition_of_object ~workers name] — [Hashtbl.hash name mod
    workers], deterministic across runs: the body of
    {!Sharded_database.home_shard}, the router's name.  Only the
    benchmark's probes and workloads call it under this name; the body
    moves to [home_shard] once they call that. *)
val partition_of_object : workers:int -> string -> int

(** [plan_of t] = [plan ~workers:1 (records t)], read from the state:
    only the bucketing of committed operations by object and the loser
    set are computed.  The buckets are split from the state's committed
    {!Op_log} ({!Op_log.by_object}), one chunk slot per operation, and
    are fresh on every call.  With [profile], the bucketing is charged
    to the log scan and loser resolution to its own phase. *)
val plan_of : ?profile:Tm_obs.Recovery_profile.t -> t -> plan

(** [plan ~workers records] — the per-object replay plan of a record
    list: the same fold {!restore} runs, over a fresh state.

    [workers] must be 1 ([Invalid_argument] otherwise): restart is
    serial, and the argument survives only so existing benchmark probes
    that pass [~workers:1] keep compiling; it is due to be dropped. *)
val plan : workers:int -> record list -> plan

(** Binary record framing for the on-disk log — a {e versioned},
    forward-compatible contract (docs/WAL_FORMAT.md is the generated
    spec).

    Each record is one frame.  Three frame formats are readable:

    - {b v1}: 2-byte magic, version byte [0x01], 4-byte little-endian
      payload length, 4-byte CRC32 of the payload, payload;
    - {b v2}: 2-byte magic, version byte [0x02], 2-byte little-endian
      shard id, then length/CRC/payload as in v1;
    - {b v3}: v2's header with version byte [0x03]; the payload's
      integers are zigzag LEB128 varints instead of 8 fixed bytes
      (a [Truncate_intent]'s two lengths excepted).

    The record layout (tag + body) is identical across versions, so
    version negotiation is per-frame dispatch on the version byte,
    which also names the integer width: a decoded v1 or v2 log replays
    bit-for-bit to the same state it always did.  New frames are
    written as {!write_version} (v3), so a log loaded from an old
    binary grows as a readable mixed-version log until
    {!truncate_to_checkpoint} rewrites it pure-v3.

    {!Codec.decode_all} never guesses: a frame that fails its CRC (or
    any other check) with {e no} intact frame after it is a {e torn
    tail} — dropped and reported in [torn], recovery proceeds treating
    it as crash loss — while a failing frame {e followed} by an intact
    one proves bytes beyond the damage were durably written, so it is
    {e interior corruption} and decoding returns an error carrying the
    byte offset and (when readable) the frame's version rather than
    silently skipping records.

    {b What the codec allocates.}  A frame is sized before it is
    written: {!Codec.frame_size} walks the record without allocating,
    and {!Codec.put_frame} writes header, payload, length and CRC in
    place into a caller's buffer, allocating nothing — {!Disk_wal}
    encodes every append this way into one scratch buffer per log.
    {!Codec.encode} is that pair over a fresh string of the frame's
    size, so a frame it returns is one allocation;
    {!Codec.encode_all} writes every frame into one buffer of the total
    size.  The CRC keeps its running value in an [int] and allocates
    nothing.  {!Codec.decode_all} checks each CRC over the source string
    in place and reads the payload there, bounded by the frame's end: it
    copies no payload, and per frame it allocates only the decoded
    record (its strings, lists and values); {!Codec.verify_frames}
    checks a frame and allocates nothing, {!Codec.decode_verified} hands
    each record on, and {!Codec.decode_all} adds the cells of the list
    it returns.  {!restore_frames} builds no record at all for an
    [Operation], [Commit] or [Checkpoint] frame: it steps a log's state
    from the bytes.  A pass over 64 KB or more of frames
    ({!Codec.decode_verified}, {!restore_frames}) shares what repeats:
    it keeps a bounded, direct-mapped cache, keyed by each operation's
    encoded bytes in the source, so an operation equal to one still in
    the cache is not rebuilt but shared ([==]).  A miss copies no key.
    The cache watches its hit rate and stands idle through a stretch of
    the log that does not repeat, so a log of distinct operations pays
    for lookups on only about one operation in eight.  An operation the
    pass does build takes its object and operation names of up to 32
    bytes from a second table keyed by the string's bytes, so equal
    names are shared too; object names are watched the same way, and
    argument and result strings, which need not repeat, are built
    afresh.  A shorter log,
    {!Codec.decode_frame} and {!Codec.valid_frame_after} have no
    cache.  None of this shows in
    the bytes: every frame must match the plain two-buffer
    encoder kept as the oracle in [test/codec_reference.ml]. *)
module Codec : sig
  val v1 : int
  val v2 : int

  (** v2's header with a smaller payload: every integer in it is a
      zigzag LEB128 varint (at most 9 bytes) instead of 8 fixed bytes,
      except a [Truncate_intent]'s two lengths, which stay 8 bytes so
      that an intent frame has one size. *)
  val v3 : int

  (** The version every new frame is encoded with (currently {!v3}). *)
  val write_version : int

  (** Versions this binary decodes ([[v1; v2; v3]], ascending).  The
      reader picks the integer width of each frame from its version
      byte, so a log may mix versions frame by frame. *)
  val supported_versions : int list

  val is_supported : int -> bool

  (** [header_size v] — frame-header bytes (before the payload) of a
      version-[v] frame: 11 for v1, 13 for v2 and v3.  Raises
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
      allocation of exactly the frame's size.  [shard] (default 0; v2
      and v3) is the frame's shard id; encoding v1 demands [shard = 0].
      Encoding as {!v1} or {!v2} exists for the migration tests and the
      old-log harvests — production writes are always {!write_version}.
      Record kinds that postdate the v1 header ([Prepare], [Decision])
      travel only under v2 and later frames; encoding them as v1 raises
      [Invalid_argument]. *)
  val encode : ?version:int -> ?shard:int -> record -> string

  (** [frame_size ~version ~shard r] is the number of bytes [r]'s frame
      occupies: the header and the payload that {!put_frame}'s writer,
      in its counting mode, walks without writing.  It raises
      [Invalid_argument] exactly where {!encode} does, and allocates
      nothing otherwise. *)
  val frame_size : version:int -> shard:int -> record -> int

  (** [put_frame b pos ~version ~shard r] writes [r]'s frame into [b] at
      [pos] — the bytes {!encode} returns — and returns the position
      after it.  [b] must hold [frame_size ~version ~shard r] bytes from
      [pos]; check the arguments with {!frame_size} first.  Into a
      shorter buffer it raises [Invalid_argument] rather than drop a
      byte.  Allocates nothing. *)
  val put_frame : Bytes.t -> int -> version:int -> shard:int -> record -> int

  (** [v2_only_record r] — does [r] require a v2 or later frame?  True exactly
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

  (** [check_header s pos] is the one header parse: it validates the
      frame header at [pos] (magic, supported version, plausible payload
      length — no CRC) and returns the payload length, or a negative
      number when the header is unreadable.  It allocates nothing;
      {!Disk_wal}'s journal search calls it on every magic byte. *)
  val check_header : string -> int -> int

  (** [decode_frame s pos] decodes the single frame starting at byte
      [pos]: [Ok (record, next_pos)] or the corruption that makes it
      unreadable.  {!Disk_wal}'s journal search decodes a candidate
      intent frame with it.  The frame is checked
      and read in place: no payload copy, and a payload-length field
      that lies cannot pull a byte of a neighbouring frame into the
      record. *)
  val decode_frame : string -> int -> (record * int, corruption) result

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

  (** [verify_frames f s] checks the frames of [s] in order, each in
      full — header, CRC and the decoder's own walk of its payload with
      building off, so it makes every check decoding makes, in the same
      order — and builds nothing.  Each intact frame goes to
      [f pos tag mark]: its byte offset, its record tag (payload byte 0,
      docs/WAL_FORMAT.md: 2 is [Commit], 4 [Checkpoint], 5
      [Truncate_intent]) and the first tid above every tid the record
      mentions (a checkpoint's [next_tid] as it stands; 0 for none), so
      the loop allocates nothing per frame.  The result is
      [Ok (clean_bytes, torn)] — the length of the intact prefix and the
      torn tail dropped as crash loss, if any — or [Error] on interior
      corruption, with the verdict and offset decoding would give.  Each
      CRC is computed here once; {!decode_verified} does not repeat it.
      With [profile], the walk is charged to the frame-decode phase and
      CRC verification to its own, and verified frames and torn bytes
      are counted ([frames_decoded] counts every frame verified,
      decoded or not). *)
  val verify_frames :
    ?profile:Tm_obs.Recovery_profile.t ->
    (int -> int -> int -> unit) ->
    string ->
    (int * corruption option, corruption) result

  (** [decode_verified f s ~from ~upto] decodes the frames of [s] from
      byte [from] up to [upto], a run of frames {!verify_frames} passed,
      and passes each record, with its frame's byte offset, to [f]; it
      builds no list and computes no CRC.  Frames are read in place as
      by {!decode_frame}, but with no per-frame [Ok], header record or
      reader, and through the pass's decode cache: a frame costs its
      record, less the operation and names it shares with earlier
      frames.  {!Wal_inspect} and {!decode_all} read logs with it;
      restart does not build records ({!restore_frames} runs the same
      frame loop, stepping a log's state instead).  Raises
      [Invalid_argument] where the bytes do not parse as such a run. *)
  val decode_verified :
    (int -> record -> unit) ->
    string ->
    from:int ->
    upto:int ->
    unit

  (** [decode_all s] — {!verify_frames}, then {!decode_verified} over the
      intact prefix, collecting the records: [Ok] with the decoded
      records (and possibly a truncated torn tail), or [Error] on
      interior corruption.  A clean frame costs what {!decode_verified}
      builds for it and two list cells.  {!records} of a {!Disk_wal}
      log reads through it; restart does not: {!Disk_wal.load} steps
      the log's state from the frames from the last checkpoint on
      ({!restore_frames}). *)
  val decode_all : string -> (decoded, corruption) result
end
