(** A {!Wal} persisted through a {!Storage} backend.

    Storage holds the records; the log holds their replay state.  This
    module is the log's {!Wal.sink}: it persists every append as a
    {!Wal.Codec} frame, makes {!Wal.force} a real backend barrier, reads
    the records back for {!Wal.records} (decoding the intact prefix of
    the backend's bytes), and compacts the backend for
    {!Wal.truncate_to_checkpoint}.

    The compaction is {e crash-atomic}, in two forced steps: (1)
    {b journal} — a [Truncate_intent] frame and the complete compacted
    image are appended after the live log; (2) {b install} — the image
    is rewritten from offset 0, its trailing truncation erasing the
    journal.  A crash during (1) rolls back on reload (the old log is
    untouched); a crash during (2) finds the journal and redoes the
    install.  At no byte offset of the sequence can reload misclassify
    the log or replay pre-checkpoint records — swept exhaustively by
    {!Crash.rewrite}.  An image longer than the log it replaces (a v1
    log re-encoded in the write version, where its records' integers
    outgrow the varints' savings) pads the journal so the install never
    overwrites it ({!journal}).  The intent frame has one size in every
    version: its two lengths stay 8 fixed bytes in v3, whose other
    payload integers are varints, so the journal search probes for one
    payload length and each placeholder intent adds a known number of
    bytes.

    After a crash, {!load} checks every frame of the backend's bytes —
    truncating a torn tail, refusing interior corruption — and decodes
    the frames from the last checkpoint on straight into a fresh log's
    replay state; it builds no record list, and the prefix the
    checkpoint supersedes costs only its checks.

    Transient storage faults ({!Storage.Transient}) are absorbed by a
    bounded retry loop: a torn append is re-issued at the same offset
    (overwriting the torn prefix — the backend's {!Storage.write}
    contract), up to 8 attempts in all with no backoff between them, so
    a run over faulty storage stays deterministic.  Faults that outlive
    the budget surface as {!Storage_unavailable}.
    Every write and force of the log goes through that one loop —
    appends, forces, compaction, {!create}'s truncation and {!load}'s
    redo of an interrupted compaction.

    {b What an append costs.}  Each log keeps one scratch buffer.  It is
    empty until the first append (so {!create} and {!load} allocate
    none), and it doubles whenever a frame does not fit.  An append
    encodes its frame into the buffer in place ({!Wal.Codec.put_frame})
    and writes that slice ({!Storage.write}); the retry loop is
    first-order.  So after warm-up an append allocates nothing beyond
    what the log keeps of the record, and a force allocates nothing.
    The buffer is why {b appends to one log must be serialised}: two
    concurrent appends would encode into the same bytes.  They are
    already — {!Sharded_database} appends to a shard's log only under
    that shard's mutex, and the log's logical end offset, which each
    append advances, assumes it too. *)

(** A write or force still failing after [attempts] tries (8). *)
exception Storage_unavailable of { attempts : int; last : string }

type t

(** [create ?shard storage] starts a fresh, empty log on
    [storage] (discarding any previous contents; the truncation is
    forced, so a crash before this log's first commit flush cannot
    resurrect a stale previous-incarnation log).  [shard] (default 0)
    is stamped into the header of every frame this log writes (v2 and
    later headers carry it) —
    {!Sharded_database} gives each shard's log its own id, so a frame
    found on the wrong backend is attributable.  Raises
    [Invalid_argument] outside [0, 0xFFFF]. *)
val create : ?shard:int -> Storage.t -> t

(** [load storage] rebuilds the log from the backend's bytes in two
    walks.  The first verifies every frame — header, CRC and a walk of
    its payload that makes every check a decode makes — and builds
    nothing ({!Wal.Codec.verify_frames}); each CRC is computed there
    once.  The second, one call of {!Wal.restore_frames}, steps the
    log's replay state from the bytes of the frames from the last
    [Checkpoint] on, building no [Operation] or [Commit] record and no
    list of the checkpoint's committed operations: the redo log's
    checkpoint stands for everything before it, so the frames before it
    count toward the log's length, LSNs and tid high-water mark but are
    neither decoded nor stepped.  The same call runs with and without
    [profile].  The loaded log holds the replay state
    {!Shard.recover} reads and no records, the same state a
    decode of every frame would give.  A torn or corrupt tail is
    truncated (crash loss; recovery proceeds); interior corruption is
    returned as [Error] with its byte offset — never skipped — wherever
    it lies.  With [profile], the storage read is charged to the restart
    profiler's storage-scan phase, both walks to the frame-decode and
    checksum-verify phases, stepping the replay state to the log-scan
    phase, and decoding and seeding the checkpoint to the
    checkpoint-seed phase; every verified frame counts as decoded, and
    only the stepped frames count as scanned records.

    An interrupted compaction is resolved before decoding:
    a {e complete} compaction journal (intent frame + verified image) is
    redone — the install is idempotent — while an incomplete one is
    rolled back, reloading exactly the pre-compaction log: the frames
    after its intent are still verified, but not restored, and the
    checkpoint decoding starts from is the last one before the intent.  A journal
    whose intent committed but whose image no longer verifies is
    refused as corruption (never silently dropped).

    [shard] (default 0) is the id stamped on {e subsequent} appends;
    the decoded frames keep whatever shard their headers carry (decode
    accepts any id — the shard is forensic, not a filter). *)
val load :
  ?shard:int ->
  ?profile:Tm_obs.Recovery_profile.t ->
  Storage.t ->
  (t, Wal.Codec.corruption) result

(** The log.  Appends to it are persisted (with retry) before it counts
    them; {!Wal.force} forces the backend; {!Wal.records} decodes the
    backend's bytes. *)
val wal : t -> Wal.t

val storage : t -> Storage.t

(** The shard id this log stamps on appended frames (0 unless given). *)
val shard : t -> int

(** Bytes appended to the backend so far. *)
val bytes_written : t -> int

(** Transient faults absorbed by the retry loop so far (also counted as
    [tm_storage_retries_total] once metrics are attached; {!load}'s redo
    of a compaction counts here only). *)
val retries : t -> int

(** [journal ~shard ~old_len image] — the bytes a compaction writes at
    [old_len], the end of the live log, before it installs [image]: a
    [Truncate_intent] frame and [image].  When [image] is longer than
    [old_len], placeholder intents, each naming an offset it does not
    sit at, come first, so the real intent lies past [image]'s install
    range.  Exposed for {!Crash.rewrite}, which builds every byte state
    of the protocol from it. *)
val journal : shard:int -> old_len:int -> string -> string
