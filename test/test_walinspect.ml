(* The restart observability surface: Wal_inspect forensics (reported
   corruption offsets must equal the byte positions the injector
   actually damaged), the restart profiler (deterministic-clock timing,
   phase tiling, metric export, end-to-end threading through
   Disk_wal.load + Shard.recover), and the report side of
   the tm_recovery_* family. *)

open Tm_core
module Wal = Tm_engine.Wal
module Wal_inspect = Tm_engine.Wal_inspect
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module Shard = Tm_engine.Shard
module Atomic_object = Tm_engine.Atomic_object
module Recovery = Tm_engine.Recovery
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
module Profile = Tm_obs.Recovery_profile
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"

let rebuild () =
  [
    Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ();
  ]

(* A representative log: two commits, a mid-run fuzzy checkpoint, and
   one transaction left in flight (a loser). *)
let sample_records () =
  let wal = Wal.create () in
  let db = Shard.create ~wal (rebuild ()) in
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "a commits" true (Shard.try_commit db a = Ok ());
  let b = Shard.begin_txn db in
  ignore (Shard.invoke db b ~obj:"BA" (deposit_inv 2));
  Shard.checkpoint db;
  Helpers.check_bool "b commits" true (Shard.try_commit db b = Ok ());
  let c = Shard.begin_txn db in
  ignore (Shard.invoke db c ~obj:"BA" (deposit_inv 1));
  (* crash with c in flight *)
  (Wal.records wal, b)

(* Byte offset of each record's frame, from the codec itself — the
   ground truth the inspector's reports are checked against. *)
let frame_offsets recs =
  let off = ref 0 in
  List.map
    (fun r ->
      let here = !off in
      off := !off + String.length (Wal.Codec.encode r);
      here)
    recs

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let kind_count s kind =
  match List.assoc_opt kind s.Wal_inspect.by_kind with
  | Some st -> st.Wal_inspect.count
  | None -> Alcotest.failf "kind %s missing from by_kind" kind

(* ------------------------------------------------------------------ *)
(* Forensics on a clean image.                                         *)

let test_inspect_clean () =
  let recs, b = sample_records () in
  let bytes = Wal.Codec.encode_all recs in
  let s = Wal_inspect.inspect bytes in
  Helpers.check_int "records" (List.length recs) s.Wal_inspect.records;
  Helpers.check_int "total = clean" s.Wal_inspect.total_bytes
    s.Wal_inspect.clean_bytes;
  Helpers.check_int "total bytes" (String.length bytes)
    s.Wal_inspect.total_bytes;
  Alcotest.(check string) "clean" "clean" (Wal_inspect.damage_kind s.Wal_inspect.damage);
  Helpers.check_int "begins" 3 (kind_count s "begin");
  Helpers.check_int "operations" 3 (kind_count s "operation");
  Helpers.check_int "commits" 2 (kind_count s "commit");
  Helpers.check_int "aborts" 0 (kind_count s "abort");
  Helpers.check_int "checkpoints" 1 (kind_count s "checkpoint");
  (* frame byte extents tile the whole file *)
  let by_kind_bytes =
    List.fold_left
      (fun acc (_, st) -> acc + st.Wal_inspect.bytes)
      0 s.Wal_inspect.by_kind
  in
  Helpers.check_int "kind bytes tile the file" (String.length bytes) by_kind_bytes;
  Alcotest.(check (option (pair int int))) "lsn range"
    (Some (1, List.length recs))
    s.Wal_inspect.lsn_range;
  Helpers.check_int "committed txns" 2 s.Wal_inspect.committed_txns;
  Helpers.check_int "tids seen" 3 s.Wal_inspect.tids_seen;
  (match s.Wal_inspect.checkpoints with
  | [ cp ] ->
      (* the checkpoint carries a's committed deposit and b live with
         one logged operation *)
      Helpers.check_int "cp committed ops" 1 cp.Wal_inspect.cp_committed_ops;
      (match cp.Wal_inspect.cp_live with
      | [ (tid, ops) ] ->
          Helpers.check_bool "b live at checkpoint" true (Tid.equal tid b);
          Helpers.check_int "b's snapshot ops" 1 ops
      | live -> Alcotest.failf "expected 1 live txn, got %d" (List.length live));
      let offsets = frame_offsets recs in
      let cp_index = cp.Wal_inspect.cp_lsn - 1 in
      Helpers.check_int "checkpoint offset matches codec ground truth"
        (List.nth offsets cp_index) cp.Wal_inspect.cp_offset
  | cps -> Alcotest.failf "expected 1 checkpoint, got %d" (List.length cps));
  Helpers.check_int "replay tail after checkpoint"
    (List.length recs - (match s.Wal_inspect.checkpoints with
                         | [ cp ] -> cp.Wal_inspect.cp_lsn
                         | _ -> 0))
    s.Wal_inspect.records_after_last_checkpoint

(* ------------------------------------------------------------------ *)
(* Injected damage: the reported offset must be the damaged frame's
   start, and the verdict must match what Disk_wal.load does.           *)

let test_interior_flip_offset () =
  let recs, _ = sample_records () in
  let bytes = Wal.Codec.encode_all recs in
  let offsets = frame_offsets recs in
  (* flip a payload byte of an interior frame (index 2 of 9) *)
  let victim = 2 in
  let frame_start = List.nth offsets victim in
  let hdr = Wal.Codec.header_size Wal.Codec.write_version in
  let corrupted = flip_byte bytes (frame_start + hdr + 1) in
  let s = Wal_inspect.inspect corrupted in
  (match s.Wal_inspect.damage with
  | Wal_inspect.Interior c ->
      Helpers.check_int "reported offset = damaged frame start" frame_start
        c.Wal.Codec.offset
  | d -> Alcotest.failf "expected interior corruption, got %s" (Wal_inspect.damage_kind d));
  Helpers.check_int "clean prefix ends at the damage" frame_start
    s.Wal_inspect.clean_bytes;
  Helpers.check_int "records before the damage" victim s.Wal_inspect.records;
  (* recovery agrees: load refuses with the same offset *)
  match Disk_wal.load (Storage.of_string corrupted) with
  | Error c -> Helpers.check_int "load refuses at same offset" frame_start c.Wal.Codec.offset
  | Ok _ -> Alcotest.fail "load accepted interior corruption"

let test_tail_flip_is_torn () =
  let recs, _ = sample_records () in
  let bytes = Wal.Codec.encode_all recs in
  let offsets = frame_offsets recs in
  let last = List.length recs - 1 in
  let frame_start = List.nth offsets last in
  let hdr = Wal.Codec.header_size Wal.Codec.write_version in
  let corrupted = flip_byte bytes (frame_start + hdr + 1) in
  let s = Wal_inspect.inspect corrupted in
  (match s.Wal_inspect.damage with
  | Wal_inspect.Torn_tail c ->
      Helpers.check_int "torn tail at last frame" frame_start c.Wal.Codec.offset
  | d -> Alcotest.failf "expected torn tail, got %s" (Wal_inspect.damage_kind d));
  Helpers.check_int "all but the last record" last s.Wal_inspect.records;
  (* recovery agrees: load truncates and proceeds *)
  match Disk_wal.load (Storage.of_string corrupted) with
  | Ok dw ->
      Helpers.check_int "load dropped exactly the torn record" last
        (List.length (Wal.records (Disk_wal.wal dw)))
  | Error c -> Alcotest.failf "load refused a torn tail: %a" Wal.Codec.pp_corruption c

(* Every frame, both damage shapes: a byte flip inside frame k is
   interior corruption at offset(k) when intact frames follow, torn
   tail at offset(k) when k is last; a cut inside frame k is always a
   torn tail at offset(k) with exactly k records readable.  On every
   image restart agrees with the report: [Disk_wal.load] refuses
   exactly what is reported as interior corruption, at the reported
   offset, and otherwise keeps exactly the records counted. *)
let test_damage_sweep () =
  let recs, _ = sample_records () in
  let bytes = Wal.Codec.encode_all recs in
  let offsets = frame_offsets recs in
  let n = List.length recs in
  let load_agrees what image (s : Wal_inspect.t) =
    match (Disk_wal.load (Storage.of_string image), s.damage) with
    | Error c, Wal_inspect.Interior d ->
        Helpers.check_int (what ^ ": load refuses at the reported offset") d.Wal.Codec.offset
          c.Wal.Codec.offset
    | Error c, _ -> Alcotest.failf "%s: load refused (%a), inspect did not" what Wal.Codec.pp_corruption c
    | Ok _, Wal_inspect.Interior _ -> Alcotest.failf "%s: load accepted interior corruption" what
    | Ok dw, _ ->
        Helpers.check_bool (what ^ ": load keeps the records counted") true
          (List.equal Wal.equal_record
             (List.filteri (fun i _ -> i < s.records) recs)
             (Wal.records (Disk_wal.wal dw)))
  in
  List.iteri
    (fun k frame_start ->
      let flipped =
        flip_byte bytes (frame_start + Wal.Codec.header_size Wal.Codec.write_version)
      in
      let s = Wal_inspect.inspect flipped in
      let expect = if k = n - 1 then "torn_tail" else "interior_corruption" in
      Alcotest.(check string)
        (Fmt.str "flip in frame %d" k)
        expect
        (Wal_inspect.damage_kind s.Wal_inspect.damage);
      (match s.Wal_inspect.damage with
      | Wal_inspect.Interior c | Wal_inspect.Torn_tail c ->
          Helpers.check_int
            (Fmt.str "flip in frame %d reported at its start" k)
            frame_start c.Wal.Codec.offset
      | Wal_inspect.Clean -> Alcotest.fail "damage not detected");
      load_agrees (Fmt.str "flip in frame %d" k) flipped s;
      (* cut mid-frame: a crash that lost the tail from inside frame k *)
      let cut = String.sub bytes 0 (frame_start + 3) in
      let s = Wal_inspect.inspect cut in
      load_agrees (Fmt.str "cut in frame %d" k) cut s;
      Alcotest.(check string)
        (Fmt.str "cut in frame %d" k)
        "torn_tail"
        (Wal_inspect.damage_kind s.Wal_inspect.damage);
      Helpers.check_int (Fmt.str "cut in frame %d keeps %d records" k k) k
        s.Wal_inspect.records;
      match s.Wal_inspect.damage with
      | Wal_inspect.Torn_tail c ->
          Helpers.check_int
            (Fmt.str "cut in frame %d reported at its start" k)
            frame_start c.Wal.Codec.offset
      | _ -> Alcotest.fail "cut not reported as torn tail")
    offsets

(* Per-frame version forensics: the histogram counts frames by format
   version across a mixed log; a frame carrying a future version is
   pinpointed by byte offset and reported version number. *)
let test_inspect_version_histogram () =
  let recs, _ = sample_records () in
  let v1 = Wal.Codec.encode_all ~version:Wal.Codec.v1 recs in
  let s1 = Wal_inspect.inspect v1 in
  Alcotest.(check (list (pair int int)))
    "pure v1 histogram"
    [ (1, List.length recs) ]
    s1.Wal_inspect.by_version;
  Alcotest.(check (option (pair int int))) "no foreign frame" None
    s1.Wal_inspect.foreign_version;
  (* a v1 log continued by the current binary: mixed versions *)
  let mixed = v1 ^ Wal.Codec.encode_all [ Wal.Commit (Tid.of_int 9) ] in
  let s = Wal_inspect.inspect mixed in
  Alcotest.(check (list (pair int int)))
    "mixed histogram"
    [ (1, List.length recs); (2, 1) ]
    s.Wal_inspect.by_version

let test_inspect_foreign_version () =
  let recs, _ = sample_records () in
  let bytes = Wal.Codec.encode_all recs in
  let b = Bytes.of_string bytes in
  (* the second frame claims format version 7 *)
  let off = List.nth (frame_offsets recs) 1 in
  Bytes.set b (off + 2) '\x07';
  let s = Wal_inspect.inspect (Bytes.to_string b) in
  Alcotest.(check (option (pair int int)))
    "foreign frame located by offset"
    (Some (off, 7))
    s.Wal_inspect.foreign_version

(* The replay digest pins recovered state, not bytes: the same records
   encoded as v1 and v2 digest identically, so a checked-in v1 log's
   recorded digest keeps holding after upgrades. *)
let test_replay_digest_version_stable () =
  let recs, _ = sample_records () in
  match
    ( Wal_inspect.replay_digest (Wal.Codec.encode_all ~version:Wal.Codec.v1 recs),
      Wal_inspect.replay_digest (Wal.Codec.encode_all recs) )
  with
  | Ok a, Ok b -> Alcotest.(check string) "digest is version-independent" a b
  | Error c, _ | _, Error c ->
      Alcotest.failf "digest failed: %a" Wal.Codec.pp_corruption c

(* ------------------------------------------------------------------ *)
(* The restart profiler, under a deterministic clock.                  *)

let fake_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun d -> now := !now +. d)

let test_profile_phases_tile () =
  let clock, tick = fake_clock () in
  let p = Profile.create ~clock () in
  Profile.time p Profile.Storage_scan (fun () -> tick 2.);
  (* an outer scan containing an inner seeding phase: the outer phase is
     charged net of the inner one *)
  Profile.time_excluding p Profile.Log_scan
    (fun () ->
      tick 1.;
      Profile.time p Profile.Checkpoint_seed (fun () -> tick 3.);
      tick 0.5);
  let check_wall name expect ph =
    Alcotest.(check (float 1e-9)) name expect (Profile.phase_wall p ph)
  in
  check_wall "storage scan" 2.0 Profile.Storage_scan;
  check_wall "checkpoint seed" 3.0 Profile.Checkpoint_seed;
  check_wall "log scan excludes nested seeding" 1.5 Profile.Log_scan;
  Helpers.check_int "storage scan calls" 1 (Profile.phase_calls p Profile.Storage_scan);
  Helpers.check_int "log scan calls" 1 (Profile.phase_calls p Profile.Log_scan);
  Profile.finish p;
  Alcotest.(check (float 1e-9)) "end-to-end wall" 6.5 (Profile.total_wall p)

let test_profile_export_and_spans () =
  let clock, tick = fake_clock () in
  let p = Profile.create ~clock () in
  Profile.time p Profile.Object_replay (fun () -> tick 0.25);
  Profile.note_bytes_scanned p 1000;
  Profile.note_torn_bytes p 7;
  Profile.note_frame p;
  Profile.note_frame p;
  Profile.note_records_scanned p 2;
  Profile.note_checkpoint_seed p ~ops:5;
  Profile.note_object_replay p ~obj:"BA" 3;
  Profile.note_object_replay p ~obj:"ACC" 1;
  Profile.note_losers p 2;
  Profile.finish p;
  Alcotest.(check (list (pair string int)))
    "per-object replay, sorted"
    [ ("ACC", 1); ("BA", 3) ]
    (Profile.per_object p);
  let reg = Metrics.create () in
  Profile.export p reg;
  Helpers.check_int "bytes counter" 1000
    (Metrics.counter_value reg "tm_recovery_bytes_scanned_total");
  Helpers.check_int "torn counter" 7
    (Metrics.counter_value reg "tm_recovery_torn_bytes_total");
  Helpers.check_int "frames counter" 2
    (Metrics.counter_value reg "tm_recovery_frames_decoded_total");
  Helpers.check_int "seed ops counter" 5
    (Metrics.counter_value reg "tm_recovery_checkpoint_seed_ops_total");
  Helpers.check_int "per-object counter" 3
    (Metrics.counter_value reg
       ~labels:[ ("obj", "BA") ]
       "tm_recovery_object_replayed_ops_total");
  Alcotest.(check (option (float 1e-9))) "phase gauge"
    (Some 0.25)
    (Metrics.gauge_value reg
       ~labels:[ ("phase", "object_replay") ]
       "tm_recovery_phase_seconds");
  (* spans omit phases that neither ran nor counted anything *)
  let minimal = Profile.create ~clock () in
  Profile.note_object_replay minimal ~obj:"BA" 4;
  Alcotest.(check (list string)) "spans omit idle phases"
    [ "object_replay" ]
    (List.map (fun (n, _, _) -> n) (Profile.spans minimal));
  match List.find_opt (fun (n, _, _) -> n = "object_replay") (Profile.spans p) with
  | Some (_, wall_us, items) ->
      Helpers.check_int "replay span wall (us)" 250_000 wall_us;
      Helpers.check_int "replay span items" 4 items
  | None -> Alcotest.fail "object_replay span missing"

(* End to end: load + recover under one profile; counts must equal what
   the log actually contains, the registry must carry the export, and
   the trace must carry one recovery_phase span per reported phase. *)
let test_recover_with_profile () =
  let store = Storage.memory () in
  let dw = Disk_wal.create store in
  let wal = Disk_wal.wal dw in
  let db = Shard.create ~wal (rebuild ()) in
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "a commits" true (Shard.try_commit db a = Ok ());
  let b = Shard.begin_txn db in
  ignore (Shard.invoke db b ~obj:"BA" (deposit_inv 2));
  (* crash with b in flight *)
  let image = Storage.read_all store in
  let profile = Profile.create () in
  let trace = Trace.create () in
  let loaded =
    match Disk_wal.load ~profile (Storage.of_string image) with
    | Ok dw -> dw
    | Error c -> Alcotest.failf "load: %a" Wal.Codec.pp_corruption c
  in
  let db', losers =
    match
      Shard.recover ~trace ~profile ~wal:(Disk_wal.wal loaded) ~rebuild ()
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "recover failed"
  in
  Helpers.check_bool "b lost" true (Tid.Set.mem b losers);
  let n_records = List.length (Wal.records (Disk_wal.wal loaded)) in
  Helpers.check_int "bytes scanned = image size" (String.length image)
    (Profile.bytes_scanned profile);
  Helpers.check_int "frames decoded = records" n_records
    (Profile.frames_decoded profile);
  Helpers.check_int "records scanned = records" n_records
    (Profile.records_scanned profile);
  Helpers.check_int "replayed ops" 1 (Profile.replayed_ops profile);
  Alcotest.(check (list (pair string int))) "per-object"
    [ ("BA", 1) ]
    (Profile.per_object profile);
  Helpers.check_int "losers" 1 (Profile.loser_txns profile);
  (* export landed in the recovered database's registry *)
  let reg = Tm_engine.Database.metrics (Shard.database db') in
  Helpers.check_int "registry: bytes scanned" (String.length image)
    (Metrics.counter_value reg "tm_recovery_bytes_scanned_total");
  Helpers.check_int "registry: replayed (pre-existing family)" 1
    (Metrics.counter_value reg "tm_recovery_replayed_ops_total");
  (* one recovery_phase trace span per profile span *)
  let phase_events =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Recovery_phase { phase; _ } -> Some phase
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check (list string)) "trace spans mirror profile spans"
    (List.map (fun (n, _, _) -> n) (Profile.spans profile))
    phase_events;
  (* With a checkpoint, the prefix before it is verified, not stepped:
     every frame counts as decoded (verified), and only the checkpoint
     and the records after it count as scanned. *)
  let c = Shard.begin_txn db' in
  ignore (Shard.invoke db' c ~obj:"BA" (deposit_inv 3));
  Helpers.check_bool "c commits" true (Shard.try_commit db' c = Ok ());
  Shard.checkpoint db';
  let d = Shard.begin_txn db' in
  ignore (Shard.invoke db' d ~obj:"BA" (deposit_inv 1));
  Helpers.check_bool "d commits" true (Shard.try_commit db' d = Ok ());
  let recs = Wal.records (Disk_wal.wal loaded) in
  let rec from_checkpoint = function
    | [] -> Alcotest.fail "no checkpoint in the log"
    | Wal.Checkpoint _ :: _ as l -> l
    | _ :: l -> from_checkpoint l
  in
  let profile = Profile.create () in
  match Disk_wal.load ~profile (Disk_wal.storage loaded) with
  | Error c -> Alcotest.failf "checkpointed load: %a" Wal.Codec.pp_corruption c
  | Ok reloaded ->
      Helpers.check_int "checkpointed: frames decoded = every frame" (List.length recs)
        (Profile.frames_decoded profile);
      Helpers.check_int "checkpointed: records scanned = checkpoint and tail"
        (List.length (from_checkpoint recs))
        (Profile.records_scanned profile);
      Helpers.check_bool "checkpointed: the prefix is counted, not stepped" true
        (Profile.records_scanned profile < Profile.frames_decoded profile);
      Helpers.check_int "checkpointed: length = every record" (List.length recs)
        (Wal.length (Disk_wal.wal reloaded))

(* The inspector's record-kind histogram covers the compaction journal's
   intent frame — a crashed truncation must be legible forensically. *)
let test_inspect_truncate_intent () =
  let recs, _ = sample_records () in
  let intent = Wal.Truncate_intent { old_len = 100; new_len = 40 } in
  let s = Wal_inspect.inspect (Wal.Codec.encode_all (recs @ [ intent ])) in
  Helpers.check_int "truncate_intent counted" 1 (kind_count s "truncate_intent");
  Alcotest.(check string) "clean" "clean"
    (Wal_inspect.damage_kind s.Wal_inspect.damage)

(* Profile.export leaves the restart profile in the registry, which the
   CLIs' --metrics dumps write out; this test is its reader. *)
let test_profile_export_fills_registry () =
  let clock, tick = fake_clock () in
  let p = Profile.create ~clock () in
  Profile.time p Profile.Log_scan (fun () -> tick 0.5);
  Profile.note_bytes_scanned p 4096;
  Profile.note_object_replay p ~obj:"BA" 6;
  Profile.finish p;
  let reg = Metrics.create () in
  Profile.export p reg;
  Alcotest.(check (option (float 1e-9))) "wall" (Some 0.5)
    (Metrics.gauge_value reg "tm_recovery_wall_seconds");
  Alcotest.(check (option (float 1e-9))) "log_scan seconds" (Some 0.5)
    (Metrics.gauge_value reg ~labels:[ ("phase", "log_scan") ]
       "tm_recovery_phase_seconds");
  Helpers.check_int "bytes count" 4096
    (Metrics.counter_value reg "tm_recovery_bytes_scanned_total");
  Helpers.check_int "per object" 6
    (Metrics.counter_value reg ~labels:[ ("obj", "BA") ]
       "tm_recovery_object_replayed_ops_total")

(* ------------------------------------------------------------------ *)
(* 2PC forensics: a hand-built mixed-shard image covering all three
   evidence classes.  Transaction a prepared on shards 0 and 1 with the
   coordinator's Decision surviving on shard 0; b prepared on shards 2
   and 3 with only shard 2's phase-2 Commit surviving; c prepared on
   shard 1 with no evidence anywhere (presumed abort).  Reported byte
   offsets must be the Prepare frames' actual positions.               *)

let test_two_phase_forensics () =
  let a = Tid.of_int 7 and b = Tid.of_int 8 and c = Tid.of_int 9 in
  let frames =
    [
      (0, Wal.Begin a);
      (1, Wal.Begin a);
      (3, Wal.Begin b);
      (1, Wal.Prepare a);
      (0, Wal.Prepare a);
      (3, Wal.Prepare b);
      (0, Wal.Decision { tid = a; commit = true });
      (2, Wal.Begin b);
      (2, Wal.Prepare b);
      (1, Wal.Begin c);
      (1, Wal.Prepare c);
      (2, Wal.Commit b);
    ]
  in
  let image =
    String.concat "" (List.map (fun (s, r) -> Wal.Codec.encode ~shard:s r) frames)
  in
  (* ground-truth byte offset of each (shard, record) frame *)
  let offset_of shard record =
    let rec go off = function
      | [] -> Alcotest.fail "frame not in the image"
      | (s, r) :: rest ->
          if s = shard && r = record then off
          else go (off + String.length (Wal.Codec.encode ~shard:s r)) rest
    in
    go 0 frames
  in
  let tp = Wal_inspect.two_phase image in
  Helpers.check_int "all four shards reported" 4 (List.length tp);
  let shard s = List.nth tp s in
  List.iteri
    (fun i t -> Helpers.check_int "ascending shard ids" i t.Wal_inspect.tp_shard)
    tp;
  let counts t =
    (t.Wal_inspect.tp_prepares, t.Wal_inspect.tp_decisions,
     t.Wal_inspect.tp_completions)
  in
  Alcotest.(check (triple int int int)) "shard 0 counts" (1, 1, 0) (counts (shard 0));
  Alcotest.(check (triple int int int)) "shard 1 counts" (2, 0, 0) (counts (shard 1));
  Alcotest.(check (triple int int int)) "shard 2 counts" (1, 0, 1) (counts (shard 2));
  Alcotest.(check (triple int int int)) "shard 3 counts" (1, 0, 0) (counts (shard 3));
  let in_doubt s =
    List.map
      (fun p ->
        ( (Tid.to_int p.Wal_inspect.tpp_tid, p.Wal_inspect.tpp_offset),
          (p.Wal_inspect.tpp_commit, p.Wal_inspect.tpp_evidence) ))
      (shard s).Wal_inspect.tp_in_doubt
  in
  (* the coordinator's own vote is still locally unfinished: in doubt,
     but with the strongest evidence *)
  Alcotest.(check (list (pair (pair int int) (pair bool string))))
    "shard 0: decision evidence"
    [ ((7, offset_of 0 (Wal.Prepare a)), (true, "decision")) ]
    (in_doubt 0);
  Alcotest.(check (list (pair (pair int int) (pair bool string))))
    "shard 1: first-prepare order, cross-shard decision then presumed"
    [
      ((7, offset_of 1 (Wal.Prepare a)), (true, "decision"));
      ((9, offset_of 1 (Wal.Prepare c)), (false, "presumed"));
    ]
    (in_doubt 1);
  Alcotest.(check (list (pair (pair int int) (pair bool string))))
    "shard 2: locally completed, nothing in doubt" [] (in_doubt 2);
  Alcotest.(check (list (pair (pair int int) (pair bool string))))
    "shard 3: another shard's phase-2 commit as evidence"
    [ ((8, offset_of 3 (Wal.Prepare b)), (true, "phase2")) ]
    (in_doubt 3);
  (* a torn tail is dropped exactly as recovery drops it: cutting into
     shard 2's Commit frame erases b's evidence *)
  let cut = String.sub image 0 (offset_of 2 (Wal.Commit b) + 3) in
  let tp' = Wal_inspect.two_phase cut in
  (match (List.nth tp' 3).Wal_inspect.tp_in_doubt with
  | [ p ] ->
      Alcotest.(check string) "evidence degrades with the torn tail" "presumed"
        p.Wal_inspect.tpp_evidence;
      Helpers.check_bool "presumed abort" false p.Wal_inspect.tpp_commit
  | l -> Alcotest.failf "expected 1 in-doubt on shard 3, got %d" (List.length l));
  (* JSON export mirrors the same structure *)
  let json = Tm_obs.Json.to_string (Wal_inspect.two_phase_to_json tp) in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Helpers.check_bool (Fmt.str "json has %s" needle) true (contains json needle))
    [
      "\"shard\":0"; "\"shard\":3";
      "\"evidence\":\"decision\""; "\"evidence\":\"phase2\"";
      "\"evidence\":\"presumed\"";
      Fmt.str "\"offset\":%d" (offset_of 1 (Wal.Prepare c));
      "\"outcome\":\"commit\""; "\"outcome\":\"abort\"";
    ]

let suite =
  [
    Alcotest.test_case "inspect a clean image" `Quick test_inspect_clean;
    Alcotest.test_case "interior flip: offset and refusal" `Quick
      test_interior_flip_offset;
    Alcotest.test_case "tail flip: torn, truncated, loaded" `Quick
      test_tail_flip_is_torn;
    Alcotest.test_case "damage sweep over every frame" `Quick test_damage_sweep;
    Alcotest.test_case "per-frame version histogram" `Quick
      test_inspect_version_histogram;
    Alcotest.test_case "foreign-version frame located" `Quick
      test_inspect_foreign_version;
    Alcotest.test_case "replay digest is version-independent" `Quick
      test_replay_digest_version_stable;
    Alcotest.test_case "profiler: phases tile (fake clock)" `Quick
      test_profile_phases_tile;
    Alcotest.test_case "profiler: export and spans" `Quick
      test_profile_export_and_spans;
    Alcotest.test_case "recover under a profile, end to end" `Quick
      test_recover_with_profile;
    Alcotest.test_case "inspect a truncation-intent frame" `Quick
      test_inspect_truncate_intent;
    Alcotest.test_case "profile export fills the registry" `Quick
      test_profile_export_fills_registry;
    Alcotest.test_case "2pc forensics on a mixed-shard image" `Quick
      test_two_phase_forensics;
  ]
