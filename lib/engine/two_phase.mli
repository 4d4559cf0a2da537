(** Presumed-abort two-phase-commit resolution.

    A cross-shard transaction leaves its outcome scattered across the
    participants' write-ahead logs: a forced [Prepare] on every
    participant (the phase-1 yes vote), a forced [Decision] on the
    coordinator's shard (the global commit point), and a lazy [Commit]
    or [Abort] on each participant (phase 2, may be lost by a crash).
    This module answers the only question recovery needs: for every
    transaction a shard prepared but never locally finished, did the
    system as a whole commit it?

    It reads no records.  Each shard's {!Wal.t} already keeps, in its
    replay state, the prepares in doubt and the outcome evidence it
    holds ({!Wal.in_doubt}, {!Wal.decided}, {!Wal.phase2},
    {!Wal.commit_evidence}), so the
    answer costs a lookup per in-doubt prepare per shard, and a sharded
    restart decodes each stored byte once.

    The protocol is {e presumed abort}: absence of commit evidence is an
    abort.  Commit evidence for a transaction is either a
    [Decision { commit = true }] frame anywhere, or — because
    transaction ids are allocated globally and never reused — a phase-2
    [Commit] record on any shard where the transaction was prepared
    (a participant only logs [Commit] after the coordinator decided
    commit, so a surviving phase-2 record is as good as the decision
    itself).  The record walk this replaced is kept as the oracle in
    [test/two_phase_reference.ml]. *)

open Tm_core

(** What a resolution rested on. *)
type evidence =
  | Decision_record  (** the coordinator's [Decision] frame survived *)
  | Phase2_record
      (** a phase-2 [Commit]/[Abort] of the prepared transaction
          survived on some shard *)
  | Presumed  (** no surviving witness: the presumed-abort default *)

val evidence_name : evidence -> string
(** ["decision"], ["phase2"] or ["presumed"] — the label values of
    [tm_2pc_resolved_total]. *)

(** The outcome recovery must append for one in-doubt prepare. *)
type resolution = {
  shard : int;  (** the shard whose prepare is in doubt *)
  tid : Tid.t;
  commit : bool;
      (** some shard holds commit evidence for [tid]; otherwise the
          presumed abort *)
  evidence : evidence;
}

(** [analyze wals] — one resolution per in-doubt prepare, [wals.(s)]
    being shard [s]'s log, ordered by shard and then by first [Prepare].
    {!Sharded_database.recover} appends a real [Commit]/[Abort] record
    per entry to the shard's log and forces it, completing the
    interrupted protocol before ordinary replay; it hands the same list
    to its [~audit] callback and counts it in
    [tm_2pc_resolved_total{evidence,outcome}].  A log set with nothing
    in doubt (in particular: one already resolved by a previous
    recovery) yields [[]], so re-analysis is idempotent. *)
val analyze : Wal.t array -> resolution list

val pp_resolution : Format.formatter -> resolution -> unit
