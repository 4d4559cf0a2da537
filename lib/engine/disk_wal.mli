(** A {!Wal} persisted through a {!Storage} backend.

    The in-memory log stays the source of truth for replay and the
    crash-torture harness; this module mirrors every append onto stable
    storage as a {!Wal.Codec} frame, makes {!Wal.force} a real backend
    barrier, and reloads a log from the backend's bytes after a crash —
    truncating a torn tail, refusing interior corruption.

    Transient storage faults ({!Storage.Transient}) are absorbed by a
    bounded retry loop: a torn append is re-issued at the same offset
    (overwriting the torn prefix — the backend's {!Storage.write_at}
    contract), with a deterministic backoff hook between attempts.
    Faults that outlive the budget surface as {!Storage_unavailable}. *)

(** Retry policy for transient faults.  [backoff n] is called after the
    [n]th failed attempt (n = 1, 2, ...) before retrying; the default
    does nothing (deterministic tests) — a production caller can sleep
    exponentially here. *)
type retry = {
  max_attempts : int;
  backoff : int -> unit;
}

val default_retry : retry

(** A write or force still failing after [attempts] tries. *)
exception Storage_unavailable of { attempts : int; last : string }

type t

(** [create ?retry ?shard storage] starts a fresh, empty log on
    [storage] (discarding any previous contents; the truncation is
    forced, so a crash before this log's first commit flush cannot
    resurrect a stale previous-incarnation log).  [shard] (default 0)
    is stamped into the v2 header of every frame this log writes —
    {!Sharded_database} gives each shard's log its own id, so a frame
    found on the wrong backend is attributable.  Raises
    [Invalid_argument] outside [0, 0xFFFF]. *)
val create : ?retry:retry -> ?shard:int -> Storage.t -> t

(** [load ?retry storage] rebuilds the log from the backend's bytes.  A
    torn or corrupt tail is truncated (crash loss; recovery proceeds);
    interior corruption is returned as [Error] with its byte offset —
    never skipped.  With [profile], the storage read is charged to the
    restart profiler's storage-scan phase and decoding to the
    frame-decode / checksum-verify phases.

    An interrupted {!checkpoint_truncate} is resolved before decoding:
    a {e complete} compaction journal (intent frame + verified image) is
    redone — the install is idempotent — while an incomplete one is
    rolled back, reloading exactly the pre-compaction log.  A journal
    whose intent committed but whose image no longer verifies is
    refused as corruption (never silently dropped).

    [shard] (default 0) is the id stamped on {e subsequent} appends;
    the decoded frames keep whatever shard their headers carry (decode
    accepts any id — the shard is forensic, not a filter). *)
val load :
  ?retry:retry ->
  ?shard:int ->
  ?profile:Tm_obs.Recovery_profile.t ->
  Storage.t ->
  (t, Wal.Codec.corruption) result

(** The in-memory mirror.  Appends to it are persisted (with retry) as
    they happen; {!Wal.force} forces the backend. *)
val wal : t -> Wal.t

val storage : t -> Storage.t

(** The shard id this log stamps on appended frames (0 unless given). *)
val shard : t -> int

(** [checkpoint_truncate t] = {!Wal.truncate_to_checkpoint} on the
    mirror plus a {e crash-atomic} compaction of the backend, in two
    forced steps: (1) {b journal} — a [Truncate_intent] frame and the
    complete compacted image are appended after the live log; (2)
    {b install} — the image is rewritten from offset 0, its trailing
    truncation erasing the journal.  A crash during (1) rolls back on
    reload (the old log is untouched); a crash during (2) finds the
    journal and redoes the install.  At no byte offset of the sequence
    can reload misclassify the log or replay pre-checkpoint records —
    swept exhaustively by {!Crash.torture_truncation}.  Returns the
    number of records dropped. *)
val checkpoint_truncate : t -> int

(** Bytes appended to the backend so far (also counted as
    [tm_wal_bytes_total]). *)
val bytes_written : t -> int

(** Transient faults absorbed by the retry loop so far (also counted as
    [tm_storage_retries_total]). *)
val retries : t -> int
