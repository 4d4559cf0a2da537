(** Presumed-abort two-phase-commit log analysis.

    A cross-shard transaction leaves its outcome scattered across the
    participants' write-ahead logs: a forced [Prepare] on every
    participant (the phase-1 yes vote), a forced [Decision] on the
    coordinator's shard (the global commit point), and a lazy [Commit]
    or [Abort] on each participant (phase 2, may be lost by a crash).
    This module reads the per-shard record lists after a crash and
    answers the only question recovery needs: for every transaction a
    shard prepared but never locally finished, did the system as a
    whole commit it?

    The protocol is {e presumed abort}: absence of commit evidence is an
    abort.  Commit evidence for a transaction is either a
    [Decision { commit = true }] frame anywhere, or — because
    transaction ids are allocated globally and never reused — a phase-2
    [Commit] record on any shard where the transaction was prepared
    (a participant only logs [Commit] after the coordinator decided
    commit, so a surviving phase-2 record is as good as the decision
    itself). *)

open Tm_core

type analysis = {
  in_doubt : Tid.t list array;
      (** Per shard, in first-[Prepare] order: transactions prepared on
          that shard with no later local [Commit]/[Abort] — the ones
          whose locks recovery may not release without consulting the
          other shards. *)
  commit_evidence : Tid.Set.t;
      (** Transactions proven committed somewhere: a
          [Decision { commit = true }] on any shard, or a [Commit] of a
          transaction some shard prepared. *)
  abort_evidence : Tid.Set.t;
      (** Transactions with an explicit abort outcome somewhere
          (a [Decision { commit = false }], or an [Abort] of a prepared
          transaction).  Informational — presumed abort never needs it
          — but useful for forensics and metrics. *)
  decision_evidence : Tid.Set.t;
      (** Transactions whose [Decision] frame itself survived on some
          shard (either outcome). *)
  phase2_evidence : Tid.Set.t;
      (** Ever-prepared transactions witnessed by a surviving phase-2
          [Commit]/[Abort] record on some shard. *)
}

(** [analyze logs] scans every shard's record list once.  [logs.(s)] is
    shard [s]'s log in append order (as returned by {!Wal.records}). *)
val analyze : Wal.record list array -> analysis

(** The outcome recovery must append for one in-doubt transaction. *)
type resolution = { tid : Tid.t; commit : bool }

(** [resolutions a ~shard] — the in-doubt transactions of [shard] paired
    with their resolved outcomes ([commit = true] iff the transaction is
    in [a.commit_evidence]; everything else is presumed aborted), in
    first-[Prepare] order.  {!Sharded_database.recover} appends a real
    [Commit]/[Abort] record per entry to the shard's log and forces it,
    completing the interrupted protocol before ordinary replay. *)
val resolutions : analysis -> shard:int -> resolution list

val pp_resolution : Format.formatter -> resolution -> unit

(** {1 Audit trail}

    Recovery's in-doubt resolutions, as structured events naming the
    evidence each rested on — what {!Sharded_database.recover} hands its
    [~audit] callback and counts in
    [tm_2pc_resolved_total{evidence,outcome}]. *)

type evidence =
  | Decision_record  (** the coordinator's [Decision] frame survived *)
  | Phase2_record
      (** a phase-2 [Commit]/[Abort] of the prepared transaction
          survived on some shard *)
  | Presumed  (** no surviving witness: the presumed-abort default *)

val evidence_name : evidence -> string
(** ["decision"], ["phase2"] or ["presumed"] — the label values of
    [tm_2pc_resolved_total]. *)

type resolution_event = {
  ev_shard : int;
  ev_tid : Tid.t;
  ev_commit : bool;  (** the outcome record recovery appends *)
  ev_evidence : evidence;
}

val resolution_events : analysis -> resolution_event list
(** One event per in-doubt prepare, in shard order then first-[Prepare]
    order — exactly the records {!Sharded_database.recover} appends.  A
    log with nothing in doubt (in particular: one already resolved by a
    previous recovery) yields [[]], so re-analysis is idempotent. *)
