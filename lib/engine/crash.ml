open Tm_core

type violation = {
  cut : int;
  invariant : string;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "cut %d [%s]: %s" v.cut v.invariant v.detail

type report = {
  cuts : int;
  atomicity_checked : int;
  violations : violation list;
}

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "%d crash points, 0 violations (%d atomicity-checked)" r.cuts
      r.atomicity_checked
  else
    Fmt.pf ppf "%d crash points, %d VIOLATIONS (%d atomicity-checked)@,%a" r.cuts
      (List.length r.violations) r.atomicity_checked
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

(* ------------------------------------------------------------------ *)
(* Log → history: the history "as replayed" after a crash.             *)

(* Reconstruct the post-crash history a recovered prefix stands for:
   committed transactions' operations in log (execution) order with their
   commit events in commit-record order, and every unfinished transaction
   — a crash loser — explicitly aborted (recovery implicitly aborts it).
   The latest checkpoint's committed base is installed as one synthetic
   committed transaction at the head (it is the initial state of the
   post-checkpoint world); its live snapshot seeds the in-flight
   transactions.  The result feeds the paper's dynamic-atomicity checker:
   the logged interleaving of transactions must serialize in every order
   consistent with commit precedence. *)
let history_of_records recs =
  let fresh_tid =
    match Wal.max_tid recs with Some m -> Tid.to_int m + 1 | None -> 0
  in
  (* Split at the latest checkpoint; the scan restarts there. *)
  let base_cp, tail =
    let rec latest acc pending = function
      | [] -> (acc, List.rev pending)
      | Wal.Checkpoint cp :: rest -> latest (Some cp) [] rest
      | r :: rest -> latest acc (r :: pending) rest
    in
    latest None [] recs
  in
  let h = ref History.empty in
  let touched : (Tid.t, string list) Hashtbl.t = Hashtbl.create 16 in
  let finished : (Tid.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let touch tid (op : Op.t) =
    let objs = Option.value (Hashtbl.find_opt touched tid) ~default:[] in
    if not (List.mem op.Op.obj objs) then Hashtbl.replace touched tid (op.Op.obj :: objs)
  in
  let exec tid op =
    touch tid op;
    h := History.exec tid op !h
  in
  let complete at tid =
    List.iter
      (fun obj -> h := at tid obj !h)
      (List.rev (Option.value (Hashtbl.find_opt touched tid) ~default:[]));
    Hashtbl.replace finished tid ()
  in
  (match base_cp with
  | None -> ()
  | Some cp ->
      let base = Tid.of_int fresh_tid in
      List.iter (exec base) cp.Wal.committed;
      if cp.Wal.committed <> [] then complete History.commit_at base;
      List.iter (fun (tid, ops) -> List.iter (exec tid) ops) cp.Wal.live);
  List.iter
    (fun r ->
      match r with
      | Wal.Begin _ | Wal.Checkpoint _ | Wal.Truncate_intent _
      | Wal.Prepare _ | Wal.Decision _ ->
          (* Prepare/Decision are 2PC coordination records: they change
             no object state and carry no operations, so the replayed
             history sees through them (the transaction's outcome is its
             local Commit/Abort record, appended by the protocol or by
             recovery's in-doubt resolution). *)
          ()
      | Wal.Operation (tid, op) -> exec tid op
      | Wal.Commit tid -> complete History.commit_at tid
      | Wal.Abort tid -> complete History.abort_at tid)
    tail;
  (* Crash losers: recovery implicitly aborts every unfinished txn. *)
  Hashtbl.iter
    (fun tid _ -> if not (Hashtbl.mem finished tid) then complete History.abort_at tid)
    (Hashtbl.copy touched);
  !h

(* ------------------------------------------------------------------ *)
(* The torture loop.                                                   *)

(* The exact checker enumerates serialization orders, so it only runs on
   histories with at most this many transactions (crashtest workloads are
   sized to stay under it). *)
let default_max_atomicity_txns = 8

let is_prefix ~equal xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> equal x y && go (xs, ys)
  in
  go (xs, ys)

let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp)

let committed_by_object db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Database.objects (Durable_database.database db))

(* One crash point: recover [log] (a private copy — the idempotence leg
   mutates it) and check all invariants.  [prev_committed] threads the
   prefix-stability state between successive cuts of one torture run. *)
let check_cut ~env ~max_atomicity_txns ~atomicity_checked ~prev_committed
    ~rebuild ~cut log =
  let recs = Wal.records log in
  let bad invariant detail = Some { cut; invariant; detail } in
  match Durable_database.recover ~wal:log ~rebuild () with
  | exception exn ->
      [
        {
          cut;
          invariant = "replay-legality";
          detail = Fmt.str "recovery raised %s" (Printexc.to_string exn);
        };
      ]
  | Error e ->
      [
        {
          cut;
          invariant = "replay-legality";
          detail = Fmt.str "recovery failed: %a" Recovery.pp_error e;
        };
      ]
  | Ok (db, losers) ->
      let committed, _ = Wal.replay recs in
      (* Invariant 1a: every object's restored sequence is legal. *)
      let legality =
          List.filter_map
            (fun (name, ops) ->
              let o = Database.find_object (Durable_database.database db) name in
              if Spec.legal (Atomic_object.spec o) ops then None
              else bad "replay-legality" (Fmt.str "%s replays illegally: [%a]" name pp_ops ops))
            (committed_by_object db)
        in
        (* Invariant 1b: the replayed history is dynamically atomic. *)
        let atomicity =
          let h = history_of_records recs in
          if not (History.is_well_formed h) then
            Option.to_list (bad "dynamic-atomicity" "replayed history not well-formed")
          else if Tid.Set.cardinal (History.transactions h) > max_atomicity_txns then []
          else begin
            incr atomicity_checked;
            match Atomicity.dynamic_atomic env h with
            | Atomicity.Ok -> []
            | Atomicity.Counterexample order ->
                Option.to_list
                  (bad "dynamic-atomicity"
                     (Fmt.str "not serializable in %a"
                        Fmt.(list ~sep:(any "-") Tid.pp)
                        order))
          end
        in
        (* Invariant 2: committed work is prefix-stable across crash points —
           one more surviving record can only extend it (this is also what
           makes a checkpoint record a faithful snapshot of its prefix). *)
        let stability =
          if is_prefix ~equal:Op.equal !prev_committed committed then begin
            prev_committed := committed;
            []
          end
          else
            Option.to_list
              (bad "prefix-stability"
                 (Fmt.str "committed [%a] does not extend previous cut's [%a]" pp_ops
                    committed pp_ops !prev_committed))
        in
        (* Invariant 3: a second crash-recover is idempotent, through a
           post-recovery fuzzy checkpoint and log truncation. *)
        let idempotence =
          Durable_database.checkpoint db;
          ignore (Wal.truncate_to_checkpoint log);
          match Durable_database.recover ~wal:log ~rebuild () with
          | exception exn ->
              Option.to_list
                (bad "idempotence"
                   (Fmt.str "second recovery raised %s" (Printexc.to_string exn)))
          | Error e ->
              Option.to_list
                (bad "idempotence"
                   (Fmt.str "second recovery failed: %a" Recovery.pp_error e))
          | Ok (db2, losers2) ->
              let diffs =
                List.filter_map
                  (fun ((name, ops1), (_, ops2)) ->
                    if List.equal Op.equal ops1 ops2 then None
                    else
                      bad "idempotence"
                        (Fmt.str "%s: [%a] after first recovery, [%a] after second" name
                           pp_ops ops1 pp_ops ops2))
                  (List.combine (committed_by_object db) (committed_by_object db2))
              in
              if Tid.Set.equal losers losers2 then diffs
              else
                diffs
                @ Option.to_list
                    (bad "idempotence"
                       (Fmt.str "losers {%a} became {%a}"
                          Fmt.(list ~sep:comma Tid.pp)
                          (Tid.Set.elements losers)
                          Fmt.(list ~sep:comma Tid.pp)
                          (Tid.Set.elements losers2)))
        in
        legality @ atomicity @ stability @ idempotence

let torture ?(max_atomicity_txns = default_max_atomicity_txns) ~rebuild wal =
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (rebuild ())) in
  let atomicity_checked = ref 0 in
  let prev_committed = ref [] in
  let check cut =
    check_cut ~env ~max_atomicity_txns ~atomicity_checked ~prev_committed
      ~rebuild ~cut (Wal.prefix wal cut)
  in
  let cuts = Wal.length wal + 1 in
  let violations = List.concat_map check (List.init cuts Fun.id) in
  { cuts; atomicity_checked = !atomicity_checked; violations }

(* ------------------------------------------------------------------ *)
(* Byte-granularity torture and corruption sweeps over the encoded log. *)

let torture_bytes ?(max_atomicity_txns = default_max_atomicity_txns) ~rebuild
    wal =
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (rebuild ())) in
  let atomicity_checked = ref 0 in
  let prev_committed = ref [] in
  let bytes = Wal.Codec.encode_all (Wal.records wal) in
  let len = String.length bytes in
  (* Only cuts that change the decoded record list need the full invariant
     battery; intermediate byte positions inside a frame decode to the same
     records (the torn frame is dropped) and would re-check identical state. *)
  let prev_count = ref (-1) in
  let check cut =
    match Wal.Codec.decode_all (String.sub bytes 0 cut) with
    | Error c ->
        (* A pure prefix of a well-formed log can only tear the tail —
           there is no later intact frame to resynchronise on — so an
           interior-corruption verdict here is itself a bug. *)
        [
          {
            cut;
            invariant = "torn-tail";
            detail =
              Fmt.str "prefix cut misclassified as interior corruption: %a"
                Wal.Codec.pp_corruption c;
          };
        ]
    | Ok decoded ->
        let n = List.length decoded.Wal.Codec.records in
        if n = !prev_count then []
        else begin
          prev_count := n;
          check_cut ~env ~max_atomicity_txns ~atomicity_checked
            ~prev_committed ~rebuild ~cut
            (Wal.of_records decoded.Wal.Codec.records)
        end
  in
  let cuts = len + 1 in
  let violations = List.concat_map check (List.init cuts Fun.id) in
  { cuts; atomicity_checked = !atomicity_checked; violations }

(* ------------------------------------------------------------------ *)
(* Batch-prefix torture: crash cuts inside a group commit.             *)

type batch_report = {
  byte_cuts : int;
  frontiers : int;
  acked_max : int;
  batch_violations : violation list;
}

let batch_ok r = r.batch_violations = []

let pp_batch_report ppf r =
  if batch_ok r then
    Fmt.pf ppf "%d byte cuts over %d ack frontiers (%d commits acked), 0 violations"
      r.byte_cuts r.frontiers r.acked_max
  else
    Fmt.pf ppf "%d byte cuts over %d ack frontiers, %d VIOLATIONS@,%a" r.byte_cuts
      r.frontiers
      (List.length r.batch_violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.batch_violations

let commit_tids recs =
  List.filter_map (function Wal.Commit tid -> Some tid | _ -> None) recs

(* The log was driven with a durability barrier after every
   [group_every]-th commit (plus a final one), so commits are
   acknowledged in batches: at the byte offset of each barrier, every
   commit record before it is acked.  Cut the encoded log at every byte
   and check the two group-commit guarantees: (1) the recovered commit
   order is a {e prefix} of the full commit order — a crash inside a
   batch admits some leading part of it, never a subset with holes —
   and (2) at least the commits acked at the last barrier at or before
   the cut survive: once the watermark passed a commit's LSN and the
   client was told [Ok], no crash may lose it. *)
let torture_batched ~group_every wal =
  if group_every < 1 then invalid_arg "Crash.torture_batched: group_every < 1";
  let recs = Wal.records wal in
  let frontiers_rev = ref [] in
  let off = ref 0 in
  let commits = ref 0 in
  List.iter
    (fun r ->
      off := !off + String.length (Wal.Codec.encode r);
      match r with
      | Wal.Commit _ ->
          incr commits;
          if !commits mod group_every = 0 then
            frontiers_rev := (!off, !commits) :: !frontiers_rev
      | _ -> ())
    recs;
  (* The run's final flush acks everything appended. *)
  (match !frontiers_rev with
  | (o, n) :: _ when o = !off && n = !commits -> ()
  | _ -> frontiers_rev := (!off, !commits) :: !frontiers_rev);
  let frontiers = List.rev !frontiers_rev in
  let acked_at cut =
    List.fold_left (fun acc (b, n) -> if b <= cut then max acc n else acc) 0 frontiers
  in
  let all_commits = commit_tids recs in
  let bytes = Wal.Codec.encode_all recs in
  let len = String.length bytes in
  let prev = ref (-1, -1) in
  let check cut =
    let acked = acked_at cut in
    match Wal.Codec.decode_all (String.sub bytes 0 cut) with
    | Error c ->
        [
          {
            cut;
            invariant = "torn-tail";
            detail =
              Fmt.str "prefix cut misclassified as interior corruption: %a"
                Wal.Codec.pp_corruption c;
          };
        ]
    | Ok decoded ->
        let n = List.length decoded.Wal.Codec.records in
        if (n, acked) = !prev then []
        else begin
          prev := (n, acked);
          let recovered = commit_tids decoded.Wal.Codec.records in
          let prefix_bad =
            if is_prefix ~equal:Tid.equal recovered all_commits then []
            else
              [
                {
                  cut;
                  invariant = "batch-prefix";
                  detail =
                    Fmt.str
                      "recovered commit order [%a] is not a prefix of [%a]"
                      Fmt.(list ~sep:comma Tid.pp)
                      recovered
                      Fmt.(list ~sep:comma Tid.pp)
                      all_commits;
                };
              ]
          in
          let acked_bad =
            if List.length recovered >= acked then []
            else
              [
                {
                  cut;
                  invariant = "acked-durability";
                  detail =
                    Fmt.str
                      "cut at byte %d recovers %d commits but %d were \
                       acknowledged at the last flush frontier"
                      cut (List.length recovered) acked;
                };
              ]
          in
          prefix_bad @ acked_bad
        end
  in
  let batch_violations = List.concat_map check (List.init (len + 1) Fun.id) in
  {
    byte_cuts = len + 1;
    frontiers = List.length frontiers;
    acked_max = !commits;
    batch_violations;
  }

type sweep_report = {
  flips : int;  (** single-bit corruptions injected *)
  interior_detected : int;  (** flips reported as interior [Corrupt_log] *)
  tail_losses : int;  (** flips absorbed as a torn tail (records lost) *)
  harmless : int;  (** flips that left the decoded records identical *)
  sweep_violations : violation list;
}

let sweep_ok r = r.sweep_violations = []

let pp_sweep_report ppf r =
  if sweep_ok r then
    Fmt.pf ppf
      "%d bit flips: %d detected as interior corruption, %d torn-tail losses, \
       %d harmless, 0 silent corruptions"
      r.flips r.interior_detected r.tail_losses r.harmless
  else
    Fmt.pf ppf "%d bit flips, %d SILENT CORRUPTIONS@,%a" r.flips
      (List.length r.sweep_violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.sweep_violations

(* Flip one bit in every byte of the encoded log (bit index rotates with
   the offset, so all eight positions are exercised) and demand that every
   corruption is either {e detected} — an interior [Corrupt_log] — or
   {e contained} — decoded as a torn tail whose records are a prefix of
   the originals.  Any decode that silently yields different records is a
   violation: checksummed framing failed. *)
let corruption_sweep wal =
  let original = Wal.records wal in
  let bytes = Wal.Codec.encode_all original in
  let len = String.length bytes in
  let interior_detected = ref 0 in
  let tail_losses = ref 0 in
  let harmless = ref 0 in
  let check off =
    let b = Bytes.of_string bytes in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (off mod 8))));
    match Wal.Codec.decode_all (Bytes.to_string b) with
    | Error _ ->
        incr interior_detected;
        None
    | Ok decoded ->
        let recs = decoded.Wal.Codec.records in
        if List.equal Wal.equal_record recs original then begin
          incr harmless;
          None
        end
        else if is_prefix ~equal:Wal.equal_record recs original then begin
          incr tail_losses;
          None
        end
        else
          Some
            {
              cut = off;
              invariant = "corruption-detection";
              detail =
                Fmt.str
                  "bit flip at offset %d decoded silently to a non-prefix \
                   record list (%d records vs %d original)"
                  off (List.length recs) (List.length original);
            }
  in
  let sweep_violations = List.filter_map check (List.init len Fun.id) in
  {
    flips = len;
    interior_detected = !interior_detected;
    tail_losses = !tail_losses;
    harmless = !harmless;
    sweep_violations;
  }

(* ------------------------------------------------------------------ *)
(* Truncation torture: crash cuts inside a crash-atomic log compaction. *)

(* [Disk_wal.checkpoint_truncate] promises that no byte offset of its
   journal + install sequence can make reload misclassify the log or
   change the recovered state.  Sweep that promise exhaustively: build
   every intermediate backend image the protocol can leave behind —
   {ol
   {- {b journal phase}: the old log followed by the first [k] bytes of
      the intent + compacted-image journal, for every [k];}
   {- {b install phase}: the first [k] bytes of the new image spliced
      over the full journaled file, for every [k] (the memory backend's
      [write_at] is atomic, so the torn states of the file backend's
      write-then-shrink are constructed explicitly);}
   {- {b done}: the installed image alone.}}
   — reload each through {!Disk_wal.load} (which must never refuse:
   every such state is a legal crash point, violations are reported as
   ["truncate-atomicity"]) and demand that recovery reproduces exactly
   the pre-compaction committed state (per object) and loser set. *)
(* The shared journal+install byte sweep behind [torture_truncation] and
   [torture_upgrade]: given the pre-rewrite on-disk bytes and the
   compacted image that is to replace them, construct every intermediate
   backend state the protocol can leave behind, reload each through
   {!Disk_wal.load} and demand recovery reproduces exactly what [recs]
   (the pre-rewrite log) replays to. *)
let sweep_rewrite ~invariant ~rebuild ~recs ~old_bytes ~image () =
  let new_len = String.length image in
  let intent =
    Wal.Codec.encode
      (Wal.Truncate_intent { old_len = String.length old_bytes; new_len })
  in
  let journal = intent ^ image in
  (* Expected outcome: whatever the pre-rewrite log replays to. *)
  let exp_committed, exp_losers = Wal.replay recs in
  let expected_for name =
    List.filter (fun (op : Op.t) -> String.equal op.Op.obj name) exp_committed
  in
  let states =
    (* Journal phase: old log + k bytes of the journal. *)
    List.init
      (String.length journal + 1)
      (fun k -> ("journal", k, old_bytes ^ String.sub journal 0 k))
    (* Install phase: k bytes of the image over the journaled file.
       (k = new_len is the shrink itself still pending: image bytes
       followed by the stale remainder of the journaled file.) *)
    @ (let full = old_bytes ^ journal in
       let flen = String.length full in
       List.init (new_len + 1) (fun k ->
           ( "install",
             k,
             String.sub image 0 k ^ String.sub full k (flen - k) )))
    @ [ ("done", 0, image) ]
  in
  let check i (phase, k, state) =
    let cut = i in
    let bad detail = { cut; invariant; detail } in
    let where = Fmt.str "%s phase, byte %d" phase k in
    match Disk_wal.load (Storage.of_string state) with
    | exception exn ->
        [ bad (Fmt.str "%s: reload raised %s" where (Printexc.to_string exn)) ]
    | Error c ->
        [
          bad
            (Fmt.str "%s: reload refused a legal crash state: %a" where
               Wal.Codec.pp_corruption c);
        ]
    | Ok dw -> (
        match Durable_database.recover ~wal:(Disk_wal.wal dw) ~rebuild () with
        | exception exn ->
            [
              bad
                (Fmt.str "%s: recovery raised %s" where
                   (Printexc.to_string exn));
            ]
        | Error e ->
            [ bad (Fmt.str "%s: recovery failed: %a" where Recovery.pp_error e) ]
        | Ok (db, losers) ->
            let state_bad =
              List.filter_map
                (fun (name, ops) ->
                  let want = expected_for name in
                  if List.equal Op.equal ops want then None
                  else
                    Some
                      (bad
                         (Fmt.str "%s: %s recovered [%a], expected [%a]" where
                            name pp_ops ops pp_ops want)))
                (committed_by_object db)
            in
            let loser_bad =
              if Tid.Set.equal losers exp_losers then []
              else
                [
                  bad
                    (Fmt.str "%s: losers {%a}, expected {%a}" where
                       Fmt.(list ~sep:comma Tid.pp)
                       (Tid.Set.elements losers)
                       Fmt.(list ~sep:comma Tid.pp)
                       (Tid.Set.elements exp_losers));
                ]
            in
            state_bad @ loser_bad)
  in
  let violations = List.concat (List.mapi check states) in
  { cuts = List.length states; atomicity_checked = 0; violations }

let torture_truncation ~rebuild wal =
  let recs = Wal.records wal in
  let mirror = Wal.of_records recs in
  let dropped = Wal.truncate_to_checkpoint mirror in
  if dropped = 0 then { cuts = 0; atomicity_checked = 0; violations = [] }
  else
    sweep_rewrite ~invariant:"truncate-atomicity" ~rebuild ~recs
      ~old_bytes:(Wal.Codec.encode_all recs)
      ~image:(Wal.Codec.encode_all (Wal.records mirror))
      ()

(* Upgrade torture: the incremental v1→v2 migration is "checkpoint +
   truncate under the new binary" — the old log sits on disk as pure v1
   frames, and [Disk_wal.checkpoint_truncate] journals and installs a
   pure-v2 image over it.  Sweep every byte state of that rewrite,
   exactly as [torture_truncation] does, but with the pre-rewrite bytes
   encoded as v1: a crash at any offset leaves either the readable v1
   log (with torn v2 journal debris the loader rolls back over), a
   committed journal to redo, or the installed v2 image — and recovery
   must always reproduce the pre-upgrade committed state and loser set,
   so no acknowledged commit is ever lost to the format migration.
   Unlike truncation, the sweep runs even when nothing would be dropped
   (the rewrite is then a pure v1→v2 re-encode of the same records). *)
let torture_upgrade ~rebuild wal =
  let recs = Wal.records wal in
  let mirror = Wal.of_records recs in
  ignore (Wal.truncate_to_checkpoint mirror);
  sweep_rewrite ~invariant:"upgrade-atomicity" ~rebuild ~recs
    ~old_bytes:(Wal.Codec.encode_all ~version:Wal.Codec.v1 recs)
    ~image:(Wal.Codec.encode_all (Wal.records mirror))
    ()

(* ------------------------------------------------------------------ *)
(* Sharded torture: crash states across the WALs of a sharded engine.  *)

type sharded_report = {
  shard_count : int;
  byte_cuts : int;
  forced_states : int;
  cross_txns : int;
  cross_checked : int;
  sharded_violations : violation list;
}

let sharded_ok r = r.sharded_violations = []

let pp_sharded_report ppf r =
  if sharded_ok r then
    Fmt.pf ppf
      "%d shards: %d byte cuts + %d forced-frontier states, %d cross-shard \
       txns (%d evidence checks), 0 violations"
      r.shard_count r.byte_cuts r.forced_states r.cross_txns r.cross_checked
  else
    Fmt.pf ppf "%d shards: %d byte cuts + %d forced-frontier states, %d VIOLATIONS@,%a"
      r.shard_count r.byte_cuts r.forced_states
      (List.length r.sharded_violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.sharded_violations

let ops_of_tid tid recs =
  List.filter_map
    (function
      | Wal.Operation (t, op) when Tid.equal t tid -> Some op | _ -> None)
    recs

let sharded_committed db =
  List.map
    (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o))
    (Sharded_database.objects db)

let take k l = List.filteri (fun i _ -> i < k) l

let torture_sharded ~shards:n ~rebuild ~drive () =
  if n < 1 then invalid_arg "Crash.torture_sharded: shards < 1";
  (* Drive the workload over recording in-memory WALs.  Every append and
     every completed force is stamped with one global clock under a
     single lock, so both the true cross-shard append order and each
     shard's durability frontier over time are known exactly — the two
     ingredients every legal crash state is made of. *)
  let glock = Mutex.create () in
  let clock = ref 0 in
  let append_log = Array.init n (fun _ -> ref []) in
  let force_log = Array.init n (fun _ -> ref []) in
  let appended = Array.make n 0 in
  let wals =
    Array.init n (fun i ->
        let w = Wal.create () in
        Wal.set_sink w
          {
            Wal.sink_append =
              (fun r ->
                Mutex.lock glock;
                incr clock;
                appended.(i) <- appended.(i) + 1;
                append_log.(i) := (!clock, r) :: !(append_log.(i));
                Mutex.unlock glock);
            sink_force =
              (fun () ->
                Mutex.lock glock;
                incr clock;
                force_log.(i) := (!clock, appended.(i)) :: !(force_log.(i));
                Mutex.unlock glock);
            sink_attach = (fun _ -> ());
          };
        w)
  in
  let db0 = Sharded_database.create ~wals (rebuild ()) in
  drive db0;
  let indexed = Array.map (fun r -> List.rev !r) append_log in
  let full = Array.map (List.map snd) indexed in
  let forces = Array.map (fun r -> List.rev !r) force_log in
  let prepared_tids =
    Array.fold_left
      (fun acc recs ->
        List.fold_left
          (fun acc -> function Wal.Prepare t -> Tid.Set.add t acc | _ -> acc)
          acc recs)
      Tid.Set.empty full
  in
  let cross_checked = ref 0 in
  let cut_no = ref 0 in
  (* One crash state: [cut_recs.(p)] is what shard [p]'s log holds after
     the crash.  The invariant battery is evidence-driven: whether the
     state carries commit evidence for a cross-shard transaction decides
     what recovery must do with it — no reference to what the full run
     "intended", only to what the logs prove. *)
  let check ~where cut_recs =
    incr cut_no;
    let cut = !cut_no in
    let bad invariant detail =
      { cut; invariant; detail = Fmt.str "%s: %s" where detail }
    in
    let analysis = Two_phase.analyze cut_recs in
    let evidence = analysis.Two_phase.commit_evidence in
    (* (i) Evidence implies complete survival: every participant's
       operations and Prepare are forced before the coordinator's
       Decision is even appended, so no legal crash state can hold
       commit evidence while missing any committed operation. *)
    let survival =
      Tid.Set.fold
        (fun tid acc ->
          if not (Tid.Set.mem tid evidence) then acc
          else begin
            incr cross_checked;
            let probs = ref [] in
            Array.iteri
              (fun p recs ->
                let got = ops_of_tid tid recs in
                let want = ops_of_tid tid full.(p) in
                if not (List.equal Op.equal got want) then
                  probs :=
                    bad "global-atomicity"
                      (Fmt.str
                         "txn %a has commit evidence but shard %d retains \
                          %d/%d of its operations"
                         Tid.pp tid p (List.length got) (List.length want))
                    :: !probs)
              cut_recs;
            !probs @ acc
          end)
        prepared_tids []
    in
    let rwals = Array.map Wal.of_records cut_recs in
    match Sharded_database.recover ~wals:rwals ~rebuild () with
    | exception exn ->
        survival
        @ [
            bad "replay-legality"
              (Fmt.str "recovery raised %s" (Printexc.to_string exn));
          ]
    | Error e ->
        survival
        @ [
            bad "replay-legality"
              (Fmt.str "recovery failed: %a" Recovery.pp_error e);
          ]
    | Ok (db, losers) ->
        let post = Array.map Wal.records rwals in
        (* (ii) Global atomicity of outcomes: with evidence, every shard
           whose Prepare survived must end with the transaction
           committed; without evidence (presumed abort) no shard
           anywhere may commit it.  "No shard installs a cross-shard
           transaction another shard aborted" is this check. *)
        let shard_ids = List.init n Fun.id in
        let outcome_bad =
          Tid.Set.fold
            (fun tid acc ->
              let committed_on p =
                List.exists
                  (function Wal.Commit t -> Tid.equal t tid | _ -> false)
                  post.(p)
              in
              let prepared_on p =
                List.exists
                  (function Wal.Prepare t -> Tid.equal t tid | _ -> false)
                  cut_recs.(p)
              in
              (if Tid.Set.mem tid evidence then
                 List.filter_map
                   (fun p ->
                     if prepared_on p && not (committed_on p) then
                       Some
                         (bad "global-atomicity"
                            (Fmt.str
                               "txn %a has commit evidence but participant \
                                shard %d did not install it"
                               Tid.pp tid p))
                     else None)
                   shard_ids
               else
                 List.filter_map
                   (fun p ->
                     if committed_on p then
                       Some
                         (bad "global-atomicity"
                            (Fmt.str
                               "txn %a has no commit evidence (presumed \
                                abort) but shard %d installed it"
                               Tid.pp tid p))
                     else None)
                   shard_ids)
              @ acc)
            prepared_tids []
        in
        (* (iii) Per-object legality, and recovered state == replay of
           the resolved logs (ties the outcome records recovery appended
           to the state it actually installed). *)
        let legality =
          List.filter_map
            (fun o ->
              let ops = Atomic_object.committed_ops o in
              if Spec.legal (Atomic_object.spec o) ops then None
              else
                Some
                  (bad "replay-legality"
                     (Fmt.str "%s replays illegally: [%a]"
                        (Atomic_object.name o) pp_ops ops)))
            (Sharded_database.objects db)
        in
        let consistency =
          List.concat_map
            (fun p ->
              let committed, _ = Wal.replay post.(p) in
              let sh = (Sharded_database.shards db).(p) in
              List.filter_map
                (fun o ->
                  let name = Atomic_object.name o in
                  let want =
                    List.filter
                      (fun (op : Op.t) -> String.equal op.Op.obj name)
                      committed
                  in
                  let got = Atomic_object.committed_ops o in
                  if List.equal Op.equal got want then None
                  else
                    Some
                      (bad "replay-consistency"
                         (Fmt.str
                            "shard %d %s recovered [%a] but its resolved \
                             log replays [%a]"
                            p name pp_ops got pp_ops want)))
                (Database.objects (Shard.database sh)))
            shard_ids
        in
        (* (iv) A second crash-recover over the resolved logs reproduces
           the same state, losers, and appends nothing new: recovery
           completed the protocol, it did not merely patch state. *)
        let idempotence =
          let rwals2 = Array.map Wal.of_records post in
          match Sharded_database.recover ~wals:rwals2 ~rebuild () with
          | exception exn ->
              [
                bad "idempotence"
                  (Fmt.str "second recovery raised %s" (Printexc.to_string exn));
              ]
          | Error e ->
              [
                bad "idempotence"
                  (Fmt.str "second recovery failed: %a" Recovery.pp_error e);
              ]
          | Ok (db2, losers2) ->
              let diffs =
                List.filter_map
                  (fun ((name, ops1), (_, ops2)) ->
                    if List.equal Op.equal ops1 ops2 then None
                    else
                      Some
                        (bad "idempotence"
                           (Fmt.str
                              "%s: [%a] after first recovery, [%a] after \
                               second"
                              name pp_ops ops1 pp_ops ops2)))
                  (List.combine (sharded_committed db) (sharded_committed db2))
              in
              let stability =
                if
                  Array.for_all2
                    (List.equal Wal.equal_record)
                    (Array.map Wal.records rwals2)
                    post
                then []
                else
                  [
                    bad "idempotence"
                      "second recovery appended further resolution records";
                  ]
              in
              let loser_bad =
                if Tid.Set.equal losers losers2 then []
                else
                  [
                    bad "idempotence"
                      (Fmt.str "losers {%a} became {%a}"
                         Fmt.(list ~sep:comma Tid.pp)
                         (Tid.Set.elements losers)
                         Fmt.(list ~sep:comma Tid.pp)
                         (Tid.Set.elements losers2));
                  ]
              in
              diffs @ stability @ loser_bad
        in
        survival @ outcome_bad @ legality @ consistency @ idempotence
  in
  let violations = ref [] in
  (* Leg A — forced-frontier states: at every global clock tick, every
     shard retains exactly what its last completed force covered (all
     unforced appends lost everywhere at once — the adversarial power
     cut).  This sweeps the protocol's force ordering itself: a decision
     forced before its participants' prepares, or a completion trusted
     before the decision, shows up here as surviving evidence with
     missing operations. *)
  let forced_states = ref 0 in
  let seen = Hashtbl.create 64 in
  for tau = 0 to !clock + 1 do
    let counts =
      Array.init n (fun i ->
          List.fold_left
            (fun acc (t, k) -> if t < tau then max acc k else acc)
            0 forces.(i))
    in
    let key = Array.to_list counts in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr forced_states;
      let cut_recs = Array.mapi (fun i k -> take k full.(i)) counts in
      violations :=
        !violations
        @ check
            ~where:
              (Fmt.str "forced frontier at tick %d [%a]" tau
                 Fmt.(array ~sep:comma int)
                 counts)
            cut_recs
    end
  done;
  (* Leg B — byte-granularity cuts: for every shard and every byte
     offset of its encoded log, the shard crashes with exactly that byte
     prefix (torn frame dropped by the codec — a misclassification is a
     violation as in {!torture_bytes}); the other shards retain their
     maximal consistent prefixes — every record appended before the
     first record this shard lost. *)
  let byte_cuts = ref 0 in
  for s = 0 to n - 1 do
    let bytes = Wal.Codec.encode_all ~shard:s full.(s) in
    let times = Array.of_list (List.map fst indexed.(s)) in
    let prev_count = ref (-1) in
    for cutb = 0 to String.length bytes do
      incr byte_cuts;
      match Wal.Codec.decode_all (String.sub bytes 0 cutb) with
      | Error c ->
          violations :=
            !violations
            @ [
                {
                  cut = cutb;
                  invariant = "torn-tail";
                  detail =
                    Fmt.str
                      "shard %d: prefix cut at byte %d misclassified as \
                       interior corruption: %a"
                      s cutb Wal.Codec.pp_corruption c;
                };
              ]
      | Ok d ->
          let k = List.length d.Wal.Codec.records in
          if k <> !prev_count then begin
            prev_count := k;
            let tau = if k = Array.length times then max_int else times.(k) in
            let cut_recs =
              Array.mapi
                (fun p ixs ->
                  if p = s then d.Wal.Codec.records
                  else
                    List.filter_map
                      (fun (t, r) -> if t < tau then Some r else None)
                      ixs)
                indexed
            in
            violations :=
              !violations
              @ check ~where:(Fmt.str "shard %d cut at byte %d" s cutb) cut_recs
          end
    done
  done;
  {
    shard_count = n;
    byte_cuts = !byte_cuts;
    forced_states = !forced_states;
    cross_txns = Tid.Set.cardinal prepared_tids;
    cross_checked = !cross_checked;
    sharded_violations = !violations;
  }

let run ?max_atomicity_txns ~rebuild ~drive () =
  let wal = Wal.create () in
  let db = Durable_database.create ~wal (rebuild ()) in
  drive db;
  torture ?max_atomicity_txns ~rebuild wal
