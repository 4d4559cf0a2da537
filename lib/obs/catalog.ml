(* The metrics catalog: a declarative inventory of every metric family
   the codebase registers.  docs/METRICS.md is generated from this
   (bin/metricsdoc.exe) and the test suite checks live registries
   against it, so code and documentation cannot drift apart. *)

type kind = Counter | Gauge | Histogram

type entry = {
  name : string;
  kind : kind;
  labels : string list;
  help : string;
  section : string;
}

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let e section name kind labels help = { name; kind; labels; help; section }

(* Sections appear in the generated document in first-mention order;
   keep related families adjacent. *)
let all =
  let txn = "Transactions" in
  let obj = "Objects and locking" in
  let sched = "Fiber runtime" in
  let wal = "Write-ahead log" in
  let storage = "Storage backends" in
  let sharding = "Sharding and cross-shard 2PC" in
  let recovery = "Recovery (logical)" in
  let profiler = "Restart profiler" in
  [
    e txn "tm_txn_begins_total" Counter []
      "Transactions begun.";
    e txn "tm_txn_committed_total" Counter []
      "Transactions committed.";
    e txn "tm_txn_aborted_total" Counter []
      "Transactions aborted (user aborts and deadlock victims alike).";
    e txn "tm_invocations_total" Counter [ "outcome" ]
      "Operation invocations by outcome: `executed`, `blocked` or \
       `no_response`.";
    e txn "tm_txn_retries_total" Counter []
      "Transactions re-submitted after a deadlock or stall abort.";
    e txn "tm_txn_gave_up_total" Counter []
      "Transactions abandoned after exhausting their retry budget.";
    e txn "tm_deadlock_victims_total" Counter []
      "Transactions aborted by the deadlock detector.";
    e txn "tm_stall_victims_total" Counter []
      "Transactions aborted while waiting for a response and holding a \
       lock a blocked transaction needed, when every transaction waited \
       with no waits-for cycle (`Concurrent` only).";
    e txn "tm_futile_wakeups_total" Counter []
      "Blocked transactions woken by a broadcast that still could not \
       run.";
    e obj "tm_lock_conflicts_total" Counter [ "obj"; "requested"; "held" ]
      "Lock conflicts: a requested operation found a non-commuting \
       operation held by another transaction.";
    e obj "tm_lock_wait_ticks" Histogram [ "obj" ]
      "Attempt ticks a transaction spent blocked on an object before \
       being woken.";
    e obj "tm_object_blocked_total" Counter [ "obj"; "op" ]
      "Invocations that blocked because every legal response conflicted.";
    e obj "tm_object_no_response_total" Counter [ "obj"; "op" ]
      "Invocations with no legal response in the current state set.";
    e obj "tm_validation_failures_total" Counter [ "obj"; "op" ]
      "Optimistic validations that failed, by object and the failing \
       transaction's operation.";
    e sched "tm_sched_rounds_total" Counter []
      "Rounds run by the seeded fiber runtime (`Tm_sim.Fiber`), idle \
       rounds included.";
    e wal "tm_wal_appends_total" Counter [ "kind" ]
      "Records appended to the log, by record kind (`begin`, \
       `operation`, `commit`, `abort`, `checkpoint`, and the \
       cross-shard 2PC kinds `prepare` and `decision`).";
    e wal "tm_wal_truncated_records_total" Counter []
      "Records dropped from the prefix by log truncation at a \
       checkpoint.";
    e wal "tm_wal_forces_total" Counter []
      "Log forces (fsync barriers) issued.";
    e wal "tm_wal_group_commits_total" Counter []
      "Group-commit flushes (one force amortised over a batch).";
    e wal "tm_wal_group_commit_batch" Histogram []
      "Transactions riding each group-commit flush.";
    e storage "tm_storage_retries_total" Counter []
      "Storage writes retried after a transient fault.";
    e storage "tm_storage_faults_total" Counter [ "backend"; "kind" ]
      "Faults injected by the faulty storage wrapper, by kind.";
    e sharding "tm_2pc_prepares_total" Counter []
      "Participant yes votes logged (one `Prepare` record per \
       participant shard of each cross-shard transaction).";
    e sharding "tm_2pc_aborts_total" Counter [ "phase" ]
      "Cross-shard transactions rolled back by the 2PC machinery: \
       `phase=\"prepare\"` counts live transactions whose vote failed \
       validation, `phase=\"recovery\"` counts per-participant \
       presumed-abort resolutions of in-doubt prepares at restart.";
    e sharding "tm_2pc_resolved_total" Counter [ "evidence"; "outcome" ]
      "In-doubt prepares resolved by recovery, by the evidence that \
       decided each (`decision` = the coordinator's Decision frame \
       survived, `phase2` = a participant's phase-2 outcome record \
       survived, `presumed` = no witness, the presumed-abort default) \
       and the outcome appended (`commit` or `abort`).";
    e sharding "tm_shard_cross_txn_total" Counter []
      "Transactions whose commit spanned more than one shard (took the \
       two-phase path instead of the single-shard fast path).";
    e recovery "tm_recovery_committed_ops_total" Counter [ "obj" ]
      "Operations made durable at commit, per object.";
    e recovery "tm_recovery_undone_ops_total" Counter [ "obj"; "mode" ]
      "Operations undone at abort, per object and undo mode \
       (`inverse` or `replay`).";
    e recovery "tm_recovery_discarded_ops_total" Counter [ "obj" ]
      "Loser-transaction operations discarded during restart, per \
       object.";
    e recovery "tm_recovery_replayed_ops_total" Counter []
      "Committed operations replayed during restart.";
    e profiler "tm_recovery_phase_seconds" Gauge [ "phase" ]
      "Wall seconds the last restart spent in each profiler phase \
       (phases tile: they do not overlap).";
    e profiler "tm_recovery_wall_seconds" Gauge []
      "End-to-end wall seconds of the last restart.";
    e profiler "tm_recovery_bytes_scanned_total" Counter []
      "Log-image bytes read back from storage during restart.";
    e profiler "tm_recovery_torn_bytes_total" Counter []
      "Trailing bytes discarded as a torn tail during restart.";
    e profiler "tm_recovery_frames_decoded_total" Counter []
      "Log frames checksum-verified during restart (decoded from the last checkpoint on).";
    e profiler "tm_recovery_checkpoint_seed_ops_total" Counter []
      "Committed operations seeded from the newest checkpoint.";
    e profiler "tm_recovery_object_replayed_ops_total" Counter [ "obj" ]
      "Committed operations replayed into each object during restart.";
  ]

let find name = List.find_opt (fun entry -> entry.name = name) all

(* ------------------------------------------------------------------ *)
(* Registry check                                                      *)

let metric_kind = function
  | Metrics.Counter _ -> Counter
  | Metrics.Gauge _ -> Gauge
  | Metrics.Histogram _ -> Histogram

let check reg =
  let problems =
    Metrics.fold reg
      (fun acc name labels metric ->
        match find name with
        | None -> Fmt.str "%s: registered but not in the catalog" name :: acc
        | Some entry ->
            let acc =
              if metric_kind metric <> entry.kind then
                Fmt.str "%s: registered as a %s, catalogued as a %s" name
                  (kind_name (metric_kind metric))
                  (kind_name entry.kind)
                :: acc
              else acc
            in
            (* Extra keys are fine (Metrics.merge adds e.g. [setup]);
               missing a catalogued key means the registration site and
               the catalog disagree. *)
            let keys = List.map fst labels in
            List.fold_left
              (fun acc k ->
                if List.mem k keys then acc
                else
                  Fmt.str "%s: catalogued label %S missing (has {%s})" name
                    k
                    (String.concat ", " keys)
                  :: acc)
              acc entry.labels)
      []
  in
  match problems with
  | [] -> Ok ()
  | ps -> Error (List.sort_uniq compare ps)

(* ------------------------------------------------------------------ *)
(* Markdown generation                                                 *)

let to_markdown () =
  let buf = Buffer.create 4096 in
  let pf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pf "# Metrics catalog\n\n";
  pf
    "Generated by `bin/metricsdoc.exe` from `lib/obs/catalog.ml` — do \
     not edit by hand.\nThe test suite checks every live registry \
     against this catalog, so the table\nbelow is exhaustive: a metric \
     the code can register appears here.\n\nCounters are monotonic \
     integers and end in `_total`; gauges are point-in-time\nfloats; \
     histograms export cumulative `_bucket{le=...}` series plus `_sum` \
     and\n`_count`.  Merged snapshots (`Metrics.merge`) may add \
     distinguishing labels\nsuch as `scenario` or `setup` on top of the \
     keys listed.\n";
  let sections =
    List.fold_left
      (fun secs entry ->
        if List.mem entry.section secs then secs else secs @ [ entry.section ])
      [] all
  in
  List.iter
    (fun section ->
      pf "\n## %s\n\n" section;
      pf "| Metric | Kind | Labels | Meaning |\n";
      pf "|---|---|---|---|\n";
      List.iter
        (fun entry ->
          if entry.section = section then
            pf "| `%s` | %s | %s | %s |\n" entry.name (kind_name entry.kind)
              (match entry.labels with
              | [] -> "—"
              | ls ->
                  String.concat ", "
                    (List.map (fun l -> Fmt.str "`%s`" l) ls))
              (String.concat " "
                 (String.split_on_char '\n' entry.help
                 |> List.concat_map (String.split_on_char ' ')
                 |> List.filter (fun w -> w <> ""))))
        all)
    sections;
  Buffer.contents buf
