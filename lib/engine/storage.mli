(** Pluggable byte storage for the on-disk write-ahead log.

    {!Wal} up to PR 2 modelled stable storage in-memory with an append
    that is atomic and incorruptible.  Real logs live on real devices
    that tear writes, rot bits, return short reads and fail transiently;
    this module is the seam where those behaviours enter the system.  A
    backend is a flat byte store with WAL-shaped positional writes:
    {!write} replaces everything from a position onward, which is how
    {!Disk_wal} retries a torn append — rewriting from the last
    known-good offset instead of appending garbage after a torn prefix.

    Each backend implements one write, of a slice of a [Bytes.t], so a
    caller can encode into a buffer it reuses and write part of it;
    {!write_at} of a string is a wrapper over it.  No backend keeps the
    caller's buffer: the buffer is the caller's again when {!write}
    returns (or raises).

    Three backends: {!memory} (tests, sweeps), {!file} (a real
    fsync-able file via [Unix]), and {!faulty}, a wrapper that deals
    storage faults from a seeded RNG so every failure mode is
    reproducible. *)

(** A retryable I/O failure.  A torn write may have persisted a prefix
    of the data before raising; the caller must re-issue the {e whole}
    write at the {e same} position (which overwrites the torn prefix),
    not append. *)
exception Transient of string

type t

val name : t -> string

(** [write t ~pos b ~off ~len] — the contents become the old contents
    up to [pos] followed by the [len] bytes of [b] from [off]; anything
    previously beyond [pos + len] is discarded (WAL semantics: writes
    happen only at or before the logical end, never leaving stale bytes
    after the tail).  Raises [Invalid_argument] if [pos] exceeds the
    current size or the slice is not within [b], {!Transient} on a
    retryable fault. *)
val write : t -> pos:int -> Bytes.t -> off:int -> len:int -> unit

(** [write_at t ~pos data] is {!write} of all of [data]. *)
val write_at : t -> pos:int -> string -> unit

(** Barrier: data from every completed {!write} is durable when
    [force] returns.  Raises {!Transient} on a retryable fault. *)
val force : t -> unit

(** The full contents.  Under {!faulty} the result may be corrupted
    (flipped bit) or short — decoding, not this module, is responsible
    for detecting that. *)
val read_all : t -> string

val size : t -> int
val close : t -> unit

(** In-memory backend (volatile; for tests and corruption sweeps).  The
    image is kept in 4 KB pages: a {!write} copies only its own slice,
    and pages past the new end are released. *)
val memory : ?name:string -> unit -> t

(** In-memory backend pre-seeded with [contents].  [contents] is served
    uncopied by {!read_all} until the first {!write}. *)
val of_string : ?name:string -> string -> t

(** File backend: [write] is a seek, a write of the slice straight from
    the caller's buffer (no copy) and an ftruncate; [force] is fsync.
    The file is created if missing.  [EINTR]/[EAGAIN] surface as
    {!Transient}; other I/O errors propagate as [Unix.Unix_error]. *)
val file : string -> t

(** {1 Observation hooks} *)

(** [probe ?on_write ?on_force inner] — a transparent wrapper that calls
    [on_write ~pos len] before each {!write} and [on_force] before
    each {!force}, then delegates.  For tests that assert the {e order}
    of writes and barriers (e.g. that {!Disk_wal.create} forces the
    truncation of a stale log before anything else relies on it), and
    for a device whose barrier dominates: [~on_force:(fun () ->
    Thread.delay d)] makes group-commit batching form over {!memory}. *)
val probe :
  ?on_write:(pos:int -> int -> unit) -> ?on_force:(unit -> unit) -> t -> t

(** {1 Fault injection} *)

(** Per-call fault probabilities, all in [0,1].  Write-side faults are
    retryable ({!Transient}); read-side faults are {e silent} — they
    return damaged data and let recovery find out. *)
type fault_config = {
  torn_write : float;
      (** a strict prefix of the slice is persisted, then {!Transient} *)
  write_error : float;  (** nothing persisted, {!Transient} *)
  force_error : float;  (** barrier fails with {!Transient} *)
  bit_flip : float;  (** {!read_all} returns data with one flipped bit *)
  short_read : float;  (** {!read_all} returns a strict prefix *)
}

val no_faults : fault_config

(** Moderate write-side faults only (torn writes + transient errors);
    reads are clean.  The configuration used by [crashtest --fault]. *)
val write_faults : fault_config

(** [faulty ~seed cfg inner] wraps [inner] with seeded fault injection.
    Each injected fault is counted as
    [tm_storage_faults_total{backend,kind}] once {!attach_metrics} has
    been called (kinds: [torn_write], [write_error], [force_error],
    [bit_flip], [short_read]). *)
val faulty : seed:int -> fault_config -> t -> t

(** Total faults injected so far (0 for non-faulty backends). *)
val fault_count : t -> int

val attach_metrics : t -> Tm_obs.Metrics.t -> unit
