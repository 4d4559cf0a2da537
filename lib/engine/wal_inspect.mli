(** Forensic inspection of an on-disk log's bytes — without replay.

    The walk is the loader's own ({!Disk_wal.load}), not a second frame
    walker: {!Wal.Codec.verify_frames} classifies damage — a failing
    frame with {e no} intact frame after it is a {!Torn_tail} (a restart
    drops it as crash loss), a failing frame {e followed} by an intact
    one is {!Interior} corruption (a restart refuses the log) — and
    {!Wal.Codec.decode_verified} reads the intact prefix, each record at
    its frame's byte offset.  What this module
    reports is therefore exactly what {!Disk_wal.load} will do, plus the
    record-kind histogram, bytes by kind, LSN range, checkpoint coverage
    and the live-transaction set at each checkpoint.

    [bin/walinspect.exe] is the thin CLI over this module; keeping the
    summary a library value lets tests assert reported corruption
    offsets against the byte positions a fault injector actually
    damaged. *)

open Tm_core

type kind_stat = { count : int; bytes : int  (** frame bytes incl. header *) }

type checkpoint_info = {
  cp_lsn : int;  (** 1-based record position in the decoded log *)
  cp_offset : int;  (** byte offset of the checkpoint's frame *)
  cp_committed_ops : int;
  cp_live : (Tid.t * int) list;
      (** transactions live at the checkpoint, with the number of
          operations its snapshot carries for each *)
  cp_next_tid : int;
}

type damage =
  | Clean
  | Torn_tail of Wal.Codec.corruption
      (** trailing damage; a restart truncates it *)
  | Interior of Wal.Codec.corruption
      (** damage with intact frames after it; a restart refuses the log *)

type t = {
  total_bytes : int;
  clean_bytes : int;  (** length of the intact prefix *)
  records : int;
  by_kind : (string * kind_stat) list;
      (** every record kind in fixed order, zero entries included *)
  by_version : (int * int) list;
      (** per-frame format-version histogram (version, frame count),
          ascending — a mixed-version log (v1 frames from an older
          binary, v2 appends after them) shows both *)
  by_shard : (int * int) list;
      (** per-frame shard-id histogram (shard, frame count), ascending.
          v1 frames carry no shard and count as shard 0; a log written
          by one shard of {!Sharded_database} shows a single non-zero
          entry, an unsharded log shows [[(0, n)]]. *)
  foreign_version : (int * int) option;
      (** the first frame whose header is intact up to a format version
          this binary does not support: its exact byte offset and the
          version byte found there ([None] when the damage, if any, is
          not a foreign version) *)
  lsn_range : (int * int) option;
      (** 1-based record positions within this file ([None] when empty).
          Compaction ({!Wal.truncate_to_checkpoint}) rewrites the file
          from its latest checkpoint, so positions restart at 1 after a
          truncation — the range measures {e this} file, not the log's
          lifetime LSNs. *)
  tids_seen : int;  (** distinct transaction ids mentioned by any record *)
  committed_txns : int;
  aborted_txns : int;
  max_tid : Tid.t option;
  checkpoints : checkpoint_info list;
  records_after_last_checkpoint : int;
      (** the replay tail a restart must scan after seeding from the
          latest checkpoint (= [records] when there is none) *)
  damage : damage;
}

(** [inspect bytes] walks the raw log image (e.g.
    [Storage.read_all storage] or a file's contents). *)
val inspect : string -> t

(** Short damage class: ["clean"], ["torn_tail"],
    ["interior_corruption"]. *)
val damage_kind : damage -> string

(** [select_shard bytes shard] — the concatenation of exactly the intact
    frames stamped with [shard] (v1 frames count as shard 0), in log
    order.  The forensic view behind [walinspect --shard]: feeding the
    result back to {!inspect} or {!replay_digest} answers "what did this
    shard contribute / what would its records alone replay to" for a
    mixed-shard dump.  Damaged tail bytes are dropped — run the
    unfiltered {!inspect} for the damage verdict. *)
val select_shard : string -> int -> string

(** [replay_digest bytes] — a stable digest of the recovered state the
    log replays to: the committed operations in commit order plus the
    loser set, rendered canonically and MD5-hashed.  The harvested v1
    logs under [test/golden/logs/] are pinned by this digest — every
    future binary must replay those bytes to the digest recorded at
    harvest time.  [Error] on interior corruption (a torn tail digests
    its intact prefix, exactly as recovery would). *)
val replay_digest : string -> (string, Wal.Codec.corruption) result

val pp : Format.formatter -> t -> unit
val to_json : t -> Tm_obs.Json.t

(** {1 2PC forensics}

    The view behind [walinspect --two-phase]: per-shard counts of the
    2PC record kinds plus every in-doubt prepare — a vote with no later
    local outcome — with its byte offset and the verdict recovery will
    reach for it ({!Two_phase.analyze} over the per-shard record lists
    of the same image). *)

type tp_prepare = {
  tpp_tid : Tid.t;
  tpp_offset : int;  (** byte offset of the (first) [Prepare] frame *)
  tpp_commit : bool;  (** the outcome recovery will append *)
  tpp_evidence : string;
      (** ["decision"], ["phase2"] or ["presumed"]
          ({!Two_phase.evidence_name}) *)
}

type tp_shard = {
  tp_shard : int;
  tp_prepares : int;
  tp_decisions : int;
  tp_completions : int;
      (** phase-2 [Commit]/[Abort] records of ever-prepared
          transactions on this shard *)
  tp_in_doubt : tp_prepare list;  (** first-[Prepare] order *)
}

(** [two_phase bytes] — one entry per shard id appearing in the image's
    intact frames (v1 frames count as shard 0), ascending.  Damaged
    tails are dropped exactly as recovery drops them. *)
val two_phase : string -> tp_shard list

val pp_two_phase : Format.formatter -> tp_shard list -> unit
val two_phase_to_json : tp_shard list -> Tm_obs.Json.t
