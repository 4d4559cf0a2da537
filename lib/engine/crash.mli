(** Crash-state enumerator for WAL recovery.

    The paper's thesis is that recovery and concurrency control must be
    designed together; this module adversarially exercises the join.  A
    workload is recorded ({!of_drive}: the logs of a {!Sharded_database}
    of one or more shards, with every append and durability barrier on
    one global clock); a {e generator} turns the recording into crash states; and
    one {e battery} recovers each state and checks it against the
    specification, following Börger–Schewe–Wang's discipline (PAPERS.md)
    of verifying recovery instead of trusting the implementation.

    A {b crash state} is a label plus one record list per shard — what
    each shard's stable log holds after the crash; a single log is a
    one-shard state.  The generators:

    - {!append_points}: every global append point — each shard keeps
      everything appended before it;
    - {!byte_cuts}: every byte offset of each shard's encoding — the
      other shards keep their maximal consistent prefixes;
    - {!forced_frontiers}: every distinct forced frontier — each shard
      keeps exactly what its last completed barrier covered;
    - {!rewrite}: every journal and install byte state of each shard's
      checkpoint-truncation rewrite, from the write version, from v2 or
      from v1 (a log holding 2PC records has no v1 form, so no upgrade
      from v1);
    - {!given}: hand-built states, each checked on its own.

    Every state passes the same battery, after {e one} recovery through
    {!Sharded_database.recover}:

    + {b replay legality} — every object's restored sequence is legal
      for its specification;
    + {b dynamic atomicity} — each shard's resolved log, read as a
      history ({!history_of_records}), passes the paper's checker
      ({!Tm_core.Atomicity.dynamic_atomic}, at any size);
    + {b prefix stability} — within a run of states that only grow,
      each shard's committed operation sequence extends the previous
      state's: one more surviving byte can never un-commit work;
    + {b replay consistency} — each shard's recovered objects equal a
      direct {!Wal.replay} of its resolved log.  [replay] and the
      restart's {!Wal.plan} are views of one fold, so this checks the
      per-object bucketing and restore; the fold itself is checked
      against the reference kept in [test/wal_replay_reference.ml];
    + {b global atomicity} — a transaction with surviving commit evidence
      ([Decision{commit}] anywhere, or a phase-2 [Commit] of a prepared
      transaction) retains {e all} its operations and ends committed on
      every participant whose [Prepare] survived; one without evidence
      ends committed nowhere (presumed abort).  States with no [Prepare]
      pass trivially;
    + {b idempotence} — the resolved logs hold nothing left in doubt,
      and a post-recovery fuzzy checkpoint, truncation and second
      recovery reproduce the same committed state and loser set.

    Checks that belong to one generator travel with it: {!byte_cuts}
    demands every byte prefix decode as a clean log or a torn tail
    (["torn-tail"]), its commit order be a prefix of the full one
    (["batch-prefix"]) and every commit acknowledged at a barrier the cut
    did not reach survive (["acked-durability"]); {!rewrite} demands
    every byte state reload, and recover exactly the pre-rewrite state
    (["truncate-atomicity"] / ["upgrade-atomicity"]). *)

open Tm_core

type violation = {
  label : string;  (** the crash state's label: generator, shard, position *)
  cut : int;
      (** the state's ordinal in its generator's enumeration, from 0 (for
          {!corruption_sweep}: the ordinal of the flipped byte) *)
  invariant : string;
      (** e.g. ["replay-legality"], ["dynamic-atomicity"],
          ["prefix-stability"], ["replay-consistency"],
          ["global-atomicity"], ["idempotence"], or a generator's own *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type report = {
  states : int;  (** crash states the generator enumerated *)
  atomicity_checked : int;
      (** states on which the dynamic-atomicity check ran: all but those
          with no image, an image equal to the previous one, or a failed recovery *)
  cross_txns : int;
      (** transactions with a [Prepare] in the recorded logs: the ones
          the global-atomicity checks cover *)
  evidence_checked : int;
      (** (state, transaction) pairs on which the evidence-implies-survival
          check ran *)
  tally : (string * int) list;
      (** generator-specific counts: durability barriers and acknowledged
          commits for {!byte_cuts}, outcome classes for
          {!corruption_sweep} *)
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

(** {1 Recordings} *)

(** A driven workload: every shard's records, and every append and
    completed durability barrier stamped on one global clock. *)
type recording

(** [of_drive ~shards:n ~rebuild drive] runs [drive] against a fresh
    {!Sharded_database} over [n] recording in-memory WALs, stamping every
    append and completed force under one lock: a recording's barriers
    are exactly the forces its run made.  Every recording is made this
    way, by hand-written drives and by [Tm_sim.Experiment.drive]. *)
val of_drive :
  shards:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  (Sharded_database.t -> unit) -> recording

(** [logs r] — every shard's records, whole, in append order. *)
val logs : recording -> Wal.record list array

(** {1 Generators} *)

(** A crash state: [logs.(s)] is what shard [s]'s log holds after the
    crash. *)
type state = { label : string; logs : Wal.record list array }

type generator

val append_points : recording -> generator

(** Each state is labelled with the commits acknowledged at the last
    barrier before the cut. *)
val byte_cuts : recording -> generator

val forced_frontiers : recording -> generator

(** [rewrite ~from r] — the crash-atomic rewrite of
    {!Wal.truncate_to_checkpoint} on a {!Disk_wal} log, per shard with the others whole: the
    log as frames of version [from], then every prefix of the journal
    (intent + compacted image in {!Wal.Codec.write_version}), every
    prefix of the install over the journaled file, and the installed
    image.  From an older version the rewrite is the upgrade to the
    write version, and its states are labelled ["upgrade-v<from>"].
    From {!Wal.Codec.v1}, whose frames carry no shard id, it runs on
    every shard log with no {!Wal.Codec.v2_only_record}; from
    {!Wal.Codec.v2}, on every shard log.  From the write version a log
    without a checkpoint to truncate to yields no states. *)
val rewrite : from:int -> recording -> generator

(** [in_doubt r] — the last forced frontier of [r] (see
    {!forced_frontiers}) in which some shard holds a prepare in doubt
    whose commit decision survived: the state 2PC's lazy phase 2 leaves
    after a crash.  [None] when no such frontier exists (in particular
    on one shard). *)
val in_doubt : recording -> state option

(** [given ~reference states] — hand-built states, each with as many
    shards as [reference], the full logs they are cut from (what "all its
    operations" means for global atomicity). *)
val given : reference:Wal.record list array -> state list -> generator

(** [states g] — the crash states {!enumerate} runs the battery on, in
    order (positions that yield no state are skipped). *)
val states : generator -> state Seq.t

(** [enumerate ~rebuild g] runs every state of [g] through the battery;
    [rebuild] supplies fresh objects exactly as for
    {!Sharded_database.recover}.  A state equal to the previous one of its
    run is counted but not recovered again. *)
val enumerate : rebuild:(unit -> Atomic_object.t list) -> generator -> report

(** {1 Corruption} *)

(** [corruption_sweep r] flips one bit in every byte of each shard's
    encoded log (bit position rotating with the offset) and decodes each
    corrupted copy: it must be detected as interior corruption or
    contained as a torn tail whose records are a prefix of the original;
    a silent decode to anything else is a ["corruption-detection"]
    violation.  [states] counts flips; [tally] the classes. *)
val corruption_sweep : recording -> report
