(* On-disk WAL robustness: codec framing round trips, corruption
   detection (torn tail vs interior), storage backend semantics, fault
   injection, and the retrying disk log. *)

open Tm_core
module Wal = Tm_engine.Wal
module Codec = Tm_engine.Wal.Codec
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module BA = Tm_adt.Bank_account

(* ------------------------------------------------------------------ *)
(* Generators: arbitrary WAL records, including fuzzy checkpoints with
   live-transaction logs.                                              *)

let tid_gen = QCheck2.Gen.(map Tid.of_int (int_bound 9))

let record_gen =
  let open QCheck2.Gen in
  let op = Helpers.ba_op_gen in
  oneof
    [
      map (fun t -> Wal.Begin t) tid_gen;
      map2 (fun t o -> Wal.Operation (t, o)) tid_gen op;
      map (fun t -> Wal.Commit t) tid_gen;
      map (fun t -> Wal.Abort t) tid_gen;
      map3
        (fun committed live next_tid -> Wal.Checkpoint { Wal.committed; live; next_tid })
        (list_size (int_bound 4) op)
        (list_size (int_bound 3) (pair tid_gen (list_size (int_bound 3) op)))
        (int_bound 20);
    ]

let records_gen = QCheck2.Gen.(list_size (int_bound 12) record_gen)

let is_record_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> Wal.equal_record x y && go (xs, ys)
  in
  go (xs, ys)

(* ------------------------------------------------------------------ *)
(* Codec properties.                                                   *)

let prop_roundtrip =
  Helpers.qcheck "decode (encode rs) = rs" records_gen (fun rs ->
      let bytes = Codec.encode_all rs in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None
          && d.Codec.clean_bytes = String.length bytes
          && List.equal Wal.equal_record rs d.Codec.records)

(* Same round trip at every supported format version: the payload
   encoding is shared, only the frame header differs. *)
let prop_versioned_roundtrip =
  Helpers.qcheck "decode (encode ~version rs) = rs for each version"
    QCheck2.Gen.(pair (oneofl Codec.supported_versions) records_gen)
    (fun (version, rs) ->
      let bytes = Codec.encode_all ~version rs in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None && List.equal Wal.equal_record rs d.Codec.records)

(* And with the version chosen per frame: any v1/v2 interleaving decodes
   to the same records — version negotiation is per frame, not per log. *)
let prop_mixed_version_roundtrip =
  Helpers.qcheck "per-frame version mix round trips"
    QCheck2.Gen.(pair records_gen (list_size (int_range 1 8) (oneofl Codec.supported_versions)))
    (fun (rs, versions) ->
      let n = List.length versions in
      let bytes =
        String.concat ""
          (List.mapi
             (fun i r -> Codec.encode ~version:(List.nth versions (i mod n)) r)
             rs)
      in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d -> List.equal Wal.equal_record rs d.Codec.records)

(* Cutting the encoding anywhere must decode to a record prefix with at
   most a torn tail — never an interior-corruption verdict, never extra
   or different records. *)
let prop_truncation =
  Helpers.qcheck "truncated encoding = torn tail"
    QCheck2.Gen.(pair records_gen (int_bound 10_000))
    (fun (rs, n) ->
      let bytes = Codec.encode_all rs in
      let cut = if String.length bytes = 0 then 0 else n mod String.length bytes in
      match Codec.decode_all (String.sub bytes 0 cut) with
      | Error _ -> false
      | Ok d -> is_record_prefix d.Codec.records rs)

(* A single flipped bit is either detected (interior corruption) or
   contained (torn tail whose records are a prefix) — never a silent
   change of the record list. *)
let prop_bit_flip =
  Helpers.qcheck "bit flip never silent"
    QCheck2.Gen.(triple records_gen (int_bound 100_000) (int_bound 7))
    (fun (rs, n, bit) ->
      let bytes = Codec.encode_all rs in
      if String.length bytes = 0 then true
      else begin
        let i = n mod String.length bytes in
        let b = Bytes.of_string bytes in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        match Codec.decode_all (Bytes.to_string b) with
        | Error _ -> true
        | Ok d -> is_record_prefix d.Codec.records rs
      end)

let sample_records =
  [
    Wal.Begin Tid.a;
    Wal.Operation (Tid.a, BA.deposit 5);
    Wal.Commit Tid.a;
    Wal.Begin Tid.b;
    Wal.Operation (Tid.b, BA.withdraw_ok 2);
  ]

let test_codec_truncate_intent_roundtrip () =
  let r = Wal.Truncate_intent { old_len = 12345; new_len = 678 } in
  Helpers.check_bool "record kind" true
    (String.equal (Wal.record_kind r) "truncate_intent");
  let bytes = Codec.encode_all (sample_records @ [ r ]) in
  match Codec.decode_all bytes with
  | Error c -> Alcotest.failf "decode failed: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "round trips" true
        (List.equal Wal.equal_record (sample_records @ [ r ]) d.Codec.records)

(* The resynchronisation probe behind torn-vs-interior verdicts: an
   intact frame after the damage means interior, no such frame means
   torn tail — and an adversarial log dense with false frame anchors
   must exhaust the probe budget into the conservative (interior,
   refuse) verdict rather than scanning quadratically. *)
let test_valid_frame_after () =
  let frame = Codec.encode (Wal.Begin Tid.a) in
  let garbage = String.make 40 Codec.magic0 in
  Helpers.check_bool "intact frame after damage" true
    (Codec.valid_frame_after (garbage ^ frame) 1);
  Helpers.check_bool "pure torn tail has no frame after" false
    (Codec.valid_frame_after garbage 1);
  (* An adversarial tail dense with plausible-but-bad frames: every copy
     anchors a full decode probe (header checks pass, CRC fails).  With
     budget, the scan pays for each probe and still answers torn; a
     one-probe budget must give up into the conservative interior
     verdict — never a cheap torn-drop. *)
  let bad_crc =
    let hdr = Codec.header_size Codec.write_version in
    let b = Bytes.of_string frame in
    Bytes.set b (hdr - 1) (Char.chr (Char.code (Bytes.get b (hdr - 1)) lxor 1));
    Bytes.to_string b
  in
  let adversarial = String.concat "" (List.init 5 (fun _ -> bad_crc)) in
  Helpers.check_bool "all probes fail = torn" false
    (Codec.valid_frame_after adversarial 0);
  Helpers.check_bool "budget exhaustion is conservative (interior)" true
    (Codec.valid_frame_after ~budget:1 adversarial 0)

(* The small-image codec tests damage the first or last frame; here the
   log is hundreds of frames long and the verdicts must land deep in it:
   a torn final frame keeps every earlier record and reports the intact
   prefix length, and damage to a middle frame is refused at that
   frame's own byte offset. *)
let test_long_log_verdicts () =
  let recs =
    List.concat
      (List.init 150 (fun i ->
           let t = Tid.of_int (i mod 10) in
           [ Wal.Begin t; Wal.Operation (t, BA.deposit 1); Wal.Commit t ]))
  in
  let frames = List.map Codec.encode recs in
  let bytes = String.concat "" frames in
  Helpers.check_bool "frames concatenate to encode_all" true
    (String.equal bytes (Codec.encode_all recs));
  (match Codec.decode_all bytes with
  | Ok d ->
      Helpers.check_bool "clean image round trips" true
        (List.equal Wal.equal_record recs d.Codec.records
        && d.Codec.clean_bytes = String.length bytes
        && d.Codec.torn = None)
  | Error c -> Alcotest.failf "clean image refused: %a" Codec.pp_corruption c);
  let last = String.length (List.nth frames (List.length frames - 1)) in
  let torn = String.sub bytes 0 (String.length bytes - 5) in
  (match Codec.decode_all torn with
  | Ok d ->
      Helpers.check_int "torn image keeps all but the last record"
        (List.length recs - 1) (List.length d.Codec.records);
      Helpers.check_int "clean prefix ends before the torn frame"
        (String.length bytes - last) d.Codec.clean_bytes;
      Helpers.check_bool "torn tail reported" true (d.Codec.torn <> None)
  | Error c -> Alcotest.failf "torn image refused: %a" Codec.pp_corruption c);
  let mid = List.length frames / 2 in
  let mid_off =
    String.length (String.concat "" (List.filteri (fun i _ -> i < mid) frames))
  in
  let b = Bytes.of_string bytes in
  let i = mid_off + Codec.header_size Codec.write_version in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  match Codec.decode_all (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "interior damage decoded silently"
  | Error c -> Helpers.check_int "refused at the middle frame's offset" mid_off c.Codec.offset

let test_codec_frame_shape () =
  Helpers.check_int "write format version" 2 Codec.write_version;
  Alcotest.(check (list int))
    "supported versions" [ 1; 2 ] Codec.supported_versions;
  let frame = Codec.encode (Wal.Begin Tid.a) in
  Helpers.check_bool "frame longer than header" true
    (String.length frame > Codec.header_size Codec.write_version);
  Helpers.check_bool "magic byte 0" true (frame.[0] = '\xd7');
  Helpers.check_bool "magic byte 1" true (frame.[1] = 'W');
  Helpers.check_int "version byte" Codec.write_version (Char.code frame.[2]);
  (* v2 carries a little-endian shard id (written as 0 for now) between
     the version byte and the payload length *)
  Helpers.check_int "shard id" 0
    (Char.code frame.[3] lor (Char.code frame.[4] lsl 8));
  let v1 = Codec.encode ~version:Codec.v1 (Wal.Begin Tid.a) in
  Helpers.check_int "v1 version byte" 1 (Char.code v1.[2]);
  Helpers.check_int "v2 header is 2 bytes wider" 2
    (String.length frame - String.length v1)

let test_codec_torn_tail () =
  let bytes = Codec.encode_all sample_records in
  (* Drop the last byte: the final frame is torn, the rest decodes. *)
  match Codec.decode_all (String.sub bytes 0 (String.length bytes - 1)) with
  | Error c -> Alcotest.failf "misclassified as interior: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "torn tail reported" true (d.Codec.torn <> None);
      Helpers.check_int "one record lost" 4 (List.length d.Codec.records);
      Helpers.check_bool "survivors are a prefix" true
        (is_record_prefix d.Codec.records sample_records)

let test_codec_interior_corruption () =
  let bytes = Codec.encode_all sample_records in
  (* Flip a payload byte of the FIRST frame: later intact frames prove
     the damage is interior, so decode must refuse with the offset — and
     the verdict names the frame's format version. *)
  let b = Bytes.of_string bytes in
  let i = Codec.header_size Codec.write_version in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  match Codec.decode_all (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "interior corruption decoded silently"
  | Error c ->
      Helpers.check_int "corruption offset" 0 c.Codec.offset;
      Alcotest.(check (option int))
        "corruption carries frame version" (Some Codec.write_version) c.Codec.version

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(* Satellite: interior-corruption verdicts must carry both the byte
   offset and the damaged frame's format version, for v1 and v2 frames
   alike — the negative-space counterpart of the golden files. *)
let test_corruption_offset_and_version () =
  List.iter
    (fun version ->
      (* good v-frame, then a corrupted v-frame, then a good one: the
         middle frame's CRC fails, the trailing intact frame forces the
         interior verdict. *)
      let f r = Codec.encode ~version r in
      let first = f (Wal.Begin Tid.a) in
      let victim = f (Wal.Operation (Tid.a, BA.deposit 5)) in
      let b = Bytes.of_string victim in
      let i = Codec.header_size version in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x08));
      let bytes = first ^ Bytes.to_string b ^ f (Wal.Commit Tid.a) in
      match Codec.decode_all bytes with
      | Ok _ -> Alcotest.failf "v%d interior corruption decoded silently" version
      | Error c ->
          Helpers.check_int
            (Fmt.str "v%d corruption offset" version)
            (String.length first) c.Codec.offset;
          Alcotest.(check (option int))
            (Fmt.str "v%d corruption version" version)
            (Some version) c.Codec.version;
          (* the rendered verdict names the version too *)
          Helpers.check_bool
            (Fmt.str "v%d verdict mentions the version" version)
            true
            (contains_sub
               (Fmt.str "%a" Codec.pp_corruption c)
               (Fmt.str "(v%d frame)" version)))
    Codec.supported_versions

(* A frame whose version byte names a future format is a foreign-version
   frame: with intact frames after it, refused with its offset and the
   unsupported version number; at the very tail, contained as a torn
   tail (indistinguishable from crash debris) — never misread as the
   current layout. *)
let test_foreign_version_refused () =
  let foreign =
    let b = Bytes.of_string (Codec.encode (Wal.Begin Tid.a)) in
    Bytes.set b 2 '\x09';
    Bytes.to_string b
  in
  let first = Codec.encode (Wal.Commit Tid.b) in
  (match Codec.decode_all (first ^ foreign ^ Codec.encode (Wal.Abort Tid.b)) with
  | Ok _ -> Alcotest.fail "interior foreign-version frame decoded silently"
  | Error c ->
      Helpers.check_int "foreign frame offset" (String.length first)
        c.Codec.offset;
      Alcotest.(check (option int)) "foreign version reported" (Some 9)
        c.Codec.version);
  match Codec.decode_all (first ^ foreign) with
  | Error c ->
      Alcotest.failf "foreign tail should be contained as torn: %a"
        Codec.pp_corruption c
  | Ok d ->
      Helpers.check_int "intact prefix kept" 1 (List.length d.Codec.records);
      (match d.Codec.torn with
      | Some c ->
          Alcotest.(check (option int)) "torn verdict names the version"
            (Some 9) c.Codec.version
      | None -> Alcotest.fail "foreign tail not reported as torn")

(* Version-negotiation round trips: pure v1, pure v2, and interleaved
   frames all decode to the same records — payload encoding is shared,
   only the frame header differs. *)
let test_mixed_version_roundtrip () =
  let v1 = Codec.encode_all ~version:Codec.v1 sample_records in
  let v2 = Codec.encode_all ~version:Codec.v2 sample_records in
  Helpers.check_bool "v1 and v2 images differ" true (not (String.equal v1 v2));
  List.iter
    (fun (label, bytes) ->
      match Codec.decode_all bytes with
      | Error c -> Alcotest.failf "%s refused: %a" label Codec.pp_corruption c
      | Ok d ->
          Helpers.check_bool (label ^ " round trips") true
            (List.equal Wal.equal_record sample_records d.Codec.records
            && d.Codec.torn = None))
    [ ("pure v1", v1); ("pure v2", v2) ];
  let mixed =
    String.concat ""
      (List.mapi
         (fun i r ->
           Codec.encode ~version:(if i mod 2 = 0 then Codec.v1 else Codec.v2) r)
         sample_records)
  in
  match Codec.decode_all mixed with
  | Error c -> Alcotest.failf "mixed-version log refused: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "mixed-version log round trips" true
        (List.equal Wal.equal_record sample_records d.Codec.records)

(* A v1 log loaded by the current binary: replays bit-for-bit, appends
   land in v2 (a mixed log), and checkpoint_truncate rewrites pure v2 —
   the incremental upgrade path. *)
let test_disk_wal_v1_upgrade () =
  let v1_bytes = Codec.encode_all ~version:Codec.v1 sample_records in
  let storage = Storage.of_string v1_bytes in
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "v1 log refused: %a" Codec.pp_corruption c
  | Ok dw ->
      let wal = Disk_wal.wal dw in
      Helpers.check_bool "v1 records replay bit-for-bit" true
        (List.equal Wal.equal_record sample_records (Wal.records wal));
      Wal.append wal (Wal.Commit Tid.b);
      Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
      Wal.force wal;
      (* the log is now mixed: the v1 prefix untouched, v2 appended *)
      let mixed = Storage.read_all storage in
      Helpers.check_bool "v1 prefix untouched" true
        (String.length mixed > String.length v1_bytes
        && String.equal v1_bytes (String.sub mixed 0 (String.length v1_bytes)));
      Helpers.check_int "appends use the write version" Codec.write_version
        (Char.code mixed.[String.length v1_bytes + 2]);
      (match Disk_wal.load storage with
      | Error c -> Alcotest.failf "mixed log refused: %a" Codec.pp_corruption c
      | Ok dw2 ->
          Helpers.check_bool "mixed log reloads" true
            (List.equal Wal.equal_record (Wal.records wal)
               (Wal.records (Disk_wal.wal dw2))));
      ignore (Disk_wal.checkpoint_truncate dw);
      let compacted = Storage.read_all storage in
      (* every surviving frame was rewritten in the write version *)
      let rec check pos =
        if pos < String.length compacted then
          match Codec.read_header compacted pos with
          | Error c ->
              Alcotest.failf "compacted log unreadable at %d: %a" pos
                Codec.pp_corruption c
          | Ok h ->
              Helpers.check_int
                (Fmt.str "frame at %d is write-version" pos)
                Codec.write_version h.Codec.h_version;
              check (pos + h.Codec.h_size + h.Codec.h_payload_len)
      in
      check 0

(* ------------------------------------------------------------------ *)
(* Storage backends.                                                   *)

let test_memory_semantics () =
  let s = Storage.memory () in
  Helpers.check_int "empty" 0 (Storage.size s);
  Storage.write_at s ~pos:0 "hello";
  Helpers.check_int "size" 5 (Storage.size s);
  (* WAL semantics: a write at pos discards everything beyond it. *)
  Storage.write_at s ~pos:2 "xy";
  Alcotest.(check string) "overwrite truncates" "hexy" (Storage.read_all s);
  Alcotest.check_raises "past-end write rejected"
    (Invalid_argument "Storage.write_at(memory): pos 9 outside [0,4]") (fun () ->
      Storage.write_at s ~pos:9 "z");
  let seeded = Storage.of_string "abc" in
  Helpers.check_int "seeded size" 3 (Storage.size seeded)

(* The paged in-memory backend against the reference semantics of
   [write_at]: after each write the image is [String.sub s 0 pos ^ data].
   Lengths straddle the 4 KB page size, so writes cross page boundaries,
   rewrites at 0 truncate to a shorter image (releasing pages), and empty
   writes truncate without adding bytes.  Bytes encode their position and
   write, so a misplaced or stale page shows up as a mismatch. *)
let prop_memory_paged =
  let open QCheck2.Gen in
  let len = oneof [ return 0; int_bound 64; int_range 4000 9000 ] in
  let pos = oneof [ return `Start; return `End; map (fun n -> `At n) nat ] in
  let filled tag n = String.init n (fun i -> Char.chr ((tag + (i * 7)) land 0xff)) in
  Helpers.qcheck "paged memory = String.sub s 0 pos ^ data"
    (pair len (list_size (int_range 1 30) (pair pos len)))
    (fun (seed_len, writes) ->
      let seed = filled 0 seed_len in
      let s = Storage.of_string seed in
      Storage.read_all s == seed
      && snd
           (List.fold_left
              (fun (expected, ok) (at, n) ->
                let size = String.length expected in
                let pos = match at with `Start -> 0 | `End -> size | `At k -> k mod (size + 1) in
                let data = filled (pos + n + 1) n in
                Storage.write_at s ~pos data;
                let expected = String.sub expected 0 pos ^ data in
                ( expected,
                  ok
                  && Storage.size s = String.length expected
                  && String.equal (Storage.read_all s) expected ))
              (seed, true) writes))

let test_file_backend () =
  let path = Filename.temp_file "tm_storage" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Storage.file path in
      Storage.write_at s ~pos:0 "hello world";
      Storage.write_at s ~pos:6 "wal";
      Storage.force s;
      Alcotest.(check string) "pwrite + ftruncate" "hello wal" (Storage.read_all s);
      Storage.close s;
      (* Reopen: the bytes survived the handle. *)
      let s2 = Storage.file path in
      Alcotest.(check string) "persistent" "hello wal" (Storage.read_all s2);
      Helpers.check_int "size" 9 (Storage.size s2);
      Storage.close s2)

let test_faulty_torn_write () =
  let inner = Storage.memory () in
  let cfg = { Storage.no_faults with torn_write = 1. } in
  let s = Storage.faulty ~seed:42 cfg inner in
  let reg = Tm_obs.Metrics.create () in
  Storage.attach_metrics s reg;
  (match Storage.write_at s ~pos:0 "0123456789" with
  | () -> Alcotest.fail "torn write did not raise"
  | exception Storage.Transient _ -> ());
  let persisted = Storage.read_all inner in
  Helpers.check_bool "strict prefix persisted" true
    (String.length persisted > 0
    && String.length persisted < 10
    && String.equal persisted (String.sub "0123456789" 0 (String.length persisted)));
  Helpers.check_int "fault counted" 1 (Storage.fault_count s);
  Helpers.check_int "fault metric" 1
    (Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
       ~labels:[ ("backend", "memory"); ("kind", "torn_write") ]);
  (* Retrying at the same position overwrites the torn prefix. *)
  let clean = Storage.faulty ~seed:42 Storage.no_faults inner in
  Storage.write_at clean ~pos:0 "0123456789";
  Alcotest.(check string) "retry overwrites debris" "0123456789"
    (Storage.read_all inner)

(* ------------------------------------------------------------------ *)
(* Disk_wal: persistence, reload, retry.                               *)

let append_sample wal = List.iter (Wal.append wal) sample_records

let test_disk_wal_roundtrip () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  Wal.force (Disk_wal.wal dw);
  Helpers.check_bool "bytes persisted" true (Storage.size storage > 0);
  Helpers.check_int "bytes_written = backend size" (Storage.size storage)
    (Disk_wal.bytes_written dw);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load failed: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_bool "records survive reload" true
        (List.equal Wal.equal_record sample_records (Wal.records (Disk_wal.wal dw2)))

let test_disk_wal_create_discards_stale () =
  let storage = Storage.of_string "stale garbage from a previous log" in
  let dw = Disk_wal.create storage in
  Helpers.check_int "backend emptied" 0 (Storage.size storage);
  Wal.append (Disk_wal.wal dw) (Wal.Begin Tid.a);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load failed: %a" Codec.pp_corruption c
  | Ok dw2 -> Helpers.check_int "only new record" 1 (Wal.length (Disk_wal.wal dw2))

let test_disk_wal_torn_tail_truncated () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  (* Crash mid-append: the backend holds a torn final frame. *)
  let bytes = Storage.read_all storage in
  let torn = Storage.of_string (String.sub bytes 0 (String.length bytes - 3)) in
  (match Disk_wal.load torn with
  | Error c -> Alcotest.failf "torn tail misclassified: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_int "torn record dropped" 4 (Wal.length (Disk_wal.wal dw2));
      (* The next append lands where the intact prefix ends, overwriting
         the debris; a reload then sees the fresh record. *)
      Wal.append (Disk_wal.wal dw2) (Wal.Commit Tid.b);
      match Disk_wal.load torn with
      | Error c -> Alcotest.failf "post-repair load failed: %a" Codec.pp_corruption c
      | Ok dw3 ->
          Helpers.check_bool "repair overwrote debris" true
            (List.equal Wal.equal_record
               (List.filteri (fun i _ -> i < 4) sample_records @ [ Wal.Commit Tid.b ])
               (Wal.records (Disk_wal.wal dw3))))

let test_disk_wal_interior_corruption_refused () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  let bytes = Storage.read_all storage in
  let b = Bytes.of_string bytes in
  let hdr = Codec.header_size Codec.write_version in
  Bytes.set b hdr (Char.chr (Char.code (Bytes.get b hdr) lxor 1));
  match Disk_wal.load (Storage.of_string (Bytes.to_string b)) with
  | Ok _ -> Alcotest.fail "interior corruption loaded silently"
  | Error c -> Helpers.check_int "offset of corrupt frame" 0 c.Codec.offset

let test_disk_wal_checkpoint_truncate () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Commit Tid.a ];
  Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
  Wal.append wal (Wal.Commit Tid.b);
  let before = Storage.size storage in
  let dropped = Disk_wal.checkpoint_truncate dw in
  Helpers.check_int "records dropped" 3 dropped;
  Helpers.check_bool "backend compacted" true (Storage.size storage < before);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load after truncate: %a" Codec.pp_corruption c
  | Ok dw2 ->
      let c1, l1 = Wal.replay (Wal.records wal) in
      let c2, l2 = Wal.replay (Wal.records (Disk_wal.wal dw2)) in
      Alcotest.check Helpers.ops "replay preserved" c1 c2;
      Helpers.check_bool "losers preserved" true (Tid.Set.equal l1 l2)

(* --- crash-atomic compaction: the journal + redo protocol --- *)

(* A disk log with a checkpoint, plus the three byte images the
   compaction protocol moves between: the old log, the journal
   (intent + compacted image) appended after it, and the image alone. *)
let compaction_fixture () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Commit Tid.a ];
  Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
  Wal.append wal (Wal.Commit Tid.b);
  let old_bytes = Storage.read_all storage in
  let mirror = Wal.of_records (Wal.records wal) in
  ignore (Wal.truncate_to_checkpoint mirror);
  let image = Codec.encode_all (Wal.records mirror) in
  let intent =
    Codec.encode
      (Wal.Truncate_intent
         { old_len = String.length old_bytes; new_len = String.length image })
  in
  (Wal.records wal, Wal.records mirror, old_bytes, intent, image)

(* Crash after the journal write was cut short: the compaction never
   committed, so reload rolls it back to exactly the old log — and the
   debris is overwritten by the next append. *)
let test_truncate_journal_rollback () =
  let old_records, _, old_bytes, intent, image = compaction_fixture () in
  List.iter
    (fun cut ->
      let state = old_bytes ^ String.sub (intent ^ image) 0 cut in
      match Disk_wal.load (Storage.of_string state) with
      | Error c ->
          Alcotest.failf "cut %d refused: %a" cut Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "cut %d rolls back to the old log" cut)
            true
            (List.equal Wal.equal_record old_records
               (Wal.records (Disk_wal.wal dw))))
    [ 1; String.length intent; String.length intent + 3 ]

(* Crash inside the install: the complete journal is found and the
   install is redone — reload sees exactly the compacted log, and the
   backend afterwards holds exactly the image (journal erased). *)
let test_truncate_journal_redo () =
  let _, new_records, old_bytes, intent, image = compaction_fixture () in
  let full = old_bytes ^ intent ^ image in
  List.iter
    (fun k ->
      let state =
        String.sub image 0 k
        ^ String.sub full k (String.length full - k)
      in
      let storage = Storage.of_string state in
      match Disk_wal.load storage with
      | Error c -> Alcotest.failf "install byte %d refused: %a" k Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "install byte %d redoes to the compacted log" k)
            true
            (List.equal Wal.equal_record new_records
               (Wal.records (Disk_wal.wal dw)));
          Alcotest.(check string)
            (Fmt.str "install byte %d leaves exactly the image" k)
            image (Storage.read_all storage))
    [ 0; 1; String.length image / 2 ]

(* A committed journal whose image no longer verifies must be refused as
   corruption — redoing the install from damaged bytes would destroy
   the old log with nothing sound to replace it. *)
let test_truncate_journal_damaged_image_refused () =
  let _, _, old_bytes, intent, image = compaction_fixture () in
  let b = Bytes.of_string (old_bytes ^ intent ^ image) in
  (* flip a bit inside the journaled image's first payload *)
  let off =
    String.length old_bytes + String.length intent
    + Codec.header_size Codec.write_version
  in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
  match Disk_wal.load (Storage.of_string (Bytes.to_string b)) with
  | Ok _ -> Alcotest.fail "damaged journal image loaded silently"
  | Error c ->
      Helpers.check_bool "refusal points into the journal image" true
        (c.Codec.offset >= String.length old_bytes + String.length intent)

(* Regression: a fresh log must force the truncation of a stale
   previous-incarnation log before returning — otherwise a crash before
   the first commit flush resurrects the stale log.  Observed through
   the probe wrapper: the force lands after the truncating write. *)
let test_create_forces_stale_truncation () =
  let events = ref [] in
  let probed =
    Storage.probe
      ~on_write:(fun ~pos len -> events := `Write (pos, len) :: !events)
      ~on_force:(fun () -> events := `Force :: !events)
      (Storage.of_string "stale garbage from a previous log")
  in
  ignore (Disk_wal.create probed);
  (match List.rev !events with
  | `Write (0, 0) :: `Force :: _ -> ()
  | _ -> Alcotest.fail "create must truncate at 0 then force");
  (* and on a real file: same ordering through the Unix backend *)
  let path = Filename.temp_file "tm_create_force" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let f = Storage.file path in
      Storage.write_at f ~pos:0 "stale";
      Storage.force f;
      let fevents = ref [] in
      let fprobed =
        Storage.probe
          ~on_write:(fun ~pos len -> fevents := `Write (pos, len) :: !fevents)
          ~on_force:(fun () -> fevents := `Force :: !fevents)
          f
      in
      ignore (Disk_wal.create fprobed);
      Helpers.check_int "file emptied" 0 (Storage.size f);
      (match List.rev !fevents with
      | `Write (0, 0) :: `Force :: _ -> ()
      | _ -> Alcotest.fail "create must truncate the file at 0 then force");
      Storage.close f)

(* Seeded write-side faults: the retry loop absorbs every torn write and
   transient error, the persisted log equals the fault-free run, and the
   absorbed faults are visible in [retries] and the metrics registry. *)
let test_disk_wal_retry_absorbs_faults () =
  let inner = Storage.memory () in
  let faulty = Storage.faulty ~seed:7 Storage.write_faults inner in
  let dw = Disk_wal.create faulty in
  let reg = Tm_obs.Metrics.create () in
  Wal.attach_metrics (Disk_wal.wal dw) reg;
  for i = 0 to 19 do
    let t = Tid.of_int i in
    Wal.append (Disk_wal.wal dw) (Wal.Begin t);
    Wal.append (Disk_wal.wal dw) (Wal.Operation (t, BA.deposit 1));
    Wal.append (Disk_wal.wal dw) (Wal.Commit t);
    Wal.force (Disk_wal.wal dw)
  done;
  Helpers.check_bool "faults were injected" true (Storage.fault_count faulty > 0);
  Helpers.check_bool "retries absorbed them" true (Disk_wal.retries dw > 0);
  Helpers.check_int "retry metric matches" (Disk_wal.retries dw)
    (Tm_obs.Metrics.counter_value reg "tm_storage_retries_total");
  Helpers.check_bool "fault metric populated" true
    (Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
       ~labels:[ ("backend", "memory"); ("kind", "torn_write") ]
     > 0
    || Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
         ~labels:[ ("backend", "memory"); ("kind", "write_error") ]
       > 0);
  (* The underlying bytes decode to exactly the appended records. *)
  match Disk_wal.load inner with
  | Error c -> Alcotest.failf "faulty run corrupted the log: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_bool "identical to fault-free log" true
        (List.equal Wal.equal_record
           (Wal.records (Disk_wal.wal dw))
           (Wal.records (Disk_wal.wal dw2)))

let test_disk_wal_gives_up () =
  let cfg = { Storage.no_faults with write_error = 1. } in
  let storage = Storage.faulty ~seed:1 cfg (Storage.memory ()) in
  let backoffs = ref [] in
  let retry =
    { Disk_wal.max_attempts = 3; backoff = (fun n -> backoffs := n :: !backoffs) }
  in
  let dw = Disk_wal.create ~retry storage in
  (match Wal.append (Disk_wal.wal dw) (Wal.Begin Tid.a) with
  | () -> Alcotest.fail "append succeeded under write_error = 1"
  | exception Disk_wal.Storage_unavailable { attempts; _ } ->
      Helpers.check_int "attempt budget spent" 3 attempts);
  Alcotest.(check (list int)) "backoff hook saw each failed attempt" [ 2; 1 ]
    !backoffs


(* ------------------------------------------------------------------ *)
(* The codec against its oracle: [Codec_reference] is the two-buffer
   encoder and [Int32] CRC the in-place codec replaced, and every frame
   must come out byte for byte the same.                               *)

(* Arbitrary bytes, with the frame magic over-represented so that
   strings embedding it are common. *)
let bytes_gen =
  QCheck2.Gen.(
    string_size ~gen:(frequency [ (4, char); (1, oneofl [ Codec.magic0; Codec.magic1 ]) ])
      (int_bound 24))

let value_gen =
  let open QCheck2.Gen in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Value.Unit;
               map (fun b -> Value.Bool b) bool;
               map (fun i -> Value.Int i) int;
               map (fun s -> Value.Str s) bytes_gen;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (2, leaf); (1, map (fun l -> Value.List l) (list_size (int_bound 4) (self (n - 1)))) ])

let any_op_gen =
  QCheck2.Gen.(
    map4
      (fun obj name args res -> { Op.obj; inv = { Op.name; args }; res })
      bytes_gen bytes_gen (list_size (int_bound 3) value_gen) value_gen)

let any_tid_gen = QCheck2.Gen.(map Tid.of_int (oneof [ int_bound 100; int_bound max_int ]))

(* Every record kind, with arbitrary operations. *)
let any_record_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun t -> Wal.Begin t) any_tid_gen;
      map2 (fun t o -> Wal.Operation (t, o)) any_tid_gen any_op_gen;
      map (fun t -> Wal.Commit t) any_tid_gen;
      map (fun t -> Wal.Abort t) any_tid_gen;
      map3
        (fun committed live next_tid -> Wal.Checkpoint { Wal.committed; live; next_tid })
        (list_size (int_bound 3) any_op_gen)
        (list_size (int_bound 2) (pair any_tid_gen (list_size (int_bound 2) any_op_gen)))
        nat;
      map2 (fun old_len new_len -> Wal.Truncate_intent { old_len; new_len }) nat nat;
      map (fun t -> Wal.Prepare t) any_tid_gen;
      map2 (fun tid commit -> Wal.Decision { tid; commit }) any_tid_gen bool;
    ]

(* A record with a frame it may travel in: v1 (shard 0) unless the kind
   is v2-only, or v2 with any shard. *)
let framed_record_gen =
  let open QCheck2.Gen in
  any_record_gen >>= fun r ->
  let v2 = map (fun shard -> (r, Codec.v2, shard)) (int_range 0 0xFFFF) in
  if Codec.v2_only_record r then v2 else oneof [ return (r, Codec.v1, 0); v2 ]

let prop_encode_matches_reference =
  Helpers.qcheck ~count:500 "encode = reference encoder, every kind and frame"
    framed_record_gen (fun (r, version, shard) ->
      let frame = Codec.encode ~version ~shard r in
      String.equal frame (Codec_reference.encode ~version ~shard r)
      && String.equal
           (Codec.encode_all ~version ~shard [ r; r ])
           (frame ^ frame)
      &&
      match Codec.decode_frame frame 0 with
      | Ok (r', next) -> Wal.equal_record r r' && next = String.length frame
      | Error _ -> false)

let prop_crc_matches_reference =
  Helpers.qcheck ~count:500 "crc32 = reference crc32"
    QCheck2.Gen.(string_size ~gen:char (int_bound 300))
    (fun s -> Int32.equal (Codec.crc32 s) (Codec_reference.crc32 s))

let test_crc_known_answer () =
  Alcotest.(check int32) "crc32 check value" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "crc32 of the empty string" 0l (Codec.crc32 "")

(* A frame decoded in place among other frames reads only its own
   bytes: its record is the one its standalone copy decodes to, and if
   its payload-length field is moved by k bytes — with the stored CRC,
   or with a CRC re-sealed over the new extent so that only the
   reader's bound stands in the way — it is refused at its own offset,
   with the same verdict as when nothing follows it. *)
let prop_embedded_frame_bound =
  let open QCheck2.Gen in
  Helpers.qcheck ~count:300 "embedded frame: decodes alone, length moved is refused"
    (tup4 (list_size (int_bound 4) any_record_gen) framed_record_gen
       (list_size (int_range 1 4) any_record_gen) (int_range 1 16))
    (fun (pre, (r, version, shard), post, k) ->
      let before = Codec.encode_all pre and after = Codec.encode_all post in
      let frame = Codec.encode ~version ~shard r in
      let s = before ^ frame ^ after in
      let pos = String.length before in
      let hdr = Codec.header_size version in
      let n = String.length frame - hdr in
      let standalone_ok =
        match Codec.decode_frame s pos, Codec.decode_frame frame 0 with
        | Ok (r1, next), Ok (r2, _) ->
            Wal.equal_record r1 r2 && Wal.equal_record r1 r
            && next = pos + String.length frame
        | _ -> false
      in
      let refused n' ~reseal =
        let b = Bytes.of_string s in
        Bytes.set_int32_le b (pos + hdr - 8) (Int32.of_int n');
        let fits = pos + hdr + n' <= String.length s in
        if reseal && fits then
          Bytes.set_int32_le b (pos + hdr - 4)
            (Codec.crc32 (Bytes.sub_string b (pos + hdr) n'));
        let forged = Bytes.to_string b in
        let alone = String.sub forged pos (if fits then hdr + n' else String.length s - pos) in
        match Codec.decode_frame forged pos, Codec.decode_frame alone 0 with
        | Error c, Error c' ->
            c.Codec.offset = pos && c'.Codec.offset = 0
            && String.equal c.Codec.reason c'.Codec.reason
            && (match Codec.decode_all forged with
               | Error c -> c.Codec.offset = pos
               | Ok d -> Option.map (fun c -> c.Codec.offset) d.Codec.torn = Some pos)
        | _ -> false
      in
      standalone_ok
      && List.for_all
           (fun n' -> n' < 0 || (refused n' ~reseal:false && refused n' ~reseal:true))
           [ n - k; n + k ])

(* ------------------------------------------------------------------ *)
(* Allocation pins: [Gc.minor_words] counts words, so these hold on any
   host.  The figures in the comments were measured with the two-buffer
   encoder, the [Int32] CRC and the copying decoder this codec
   replaced, each of which fails its pin.                              *)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* The [int32] the CRC returns is its only allocation (before: 196618
   words, three per byte). *)
let test_crc_allocates_nothing () =
  let s = String.init (64 * 1024) (fun i -> Char.chr (i * 7 land 0xFF)) in
  ignore (Codec.crc32 s);
  let w = minor_words (fun () -> Codec.crc32 s) in
  if w > 3. then Alcotest.failf "crc32 over 64 KiB allocated %.0f words (max 3)" w

(* An operation's frame is its one allocation; the pin leaves four words
   of slack (before: 311 words for this 12-word frame). *)
let test_encode_allocates_its_frame () =
  let op = { (BA.deposit 5) with Op.obj = "account-0042" } in
  let r = Wal.Operation (Tid.of_int 17, op) in
  let frame = Codec.encode ~shard:3 r in
  let frame_words = float_of_int (Obj.reachable_words (Obj.repr frame)) in
  let w = minor_words (fun () -> Codec.encode ~shard:3 r) in
  if w > frame_words +. 4. then
    Alcotest.failf "encoding a %.0f-word frame allocated %.0f words (max %.0f)" frame_words
      w (frame_words +. 4.)

(* A decoded log costs what it returns, the records and their list, and
   a few words per call; the pin allows a quarter more (before: 708013
   words for these 65000 words of records). *)
let test_decode_allocates_its_records () =
  let recs =
    List.concat
      (List.init 1000 (fun i ->
           let t = Tid.of_int i in
           let acct k = Fmt.str "account-%04d" ((i * 7 + k) mod 1024) in
           [
             Wal.Begin t;
             Wal.Operation (t, { (BA.withdraw_ok 3) with Op.obj = acct 0 });
             Wal.Operation (t, { (BA.deposit 3) with Op.obj = acct 1 });
             Wal.Commit t;
           ]))
  in
  let bytes = Codec.encode_all recs in
  let decode () =
    match Codec.decode_all bytes with
    | Ok d -> d.Codec.records
    | Error c -> Alcotest.failf "transfer log refused: %a" Codec.pp_corruption c
  in
  let records = decode () in
  Helpers.check_bool "transfer log round trips" true (List.equal Wal.equal_record recs records);
  let decoded = float_of_int (Obj.reachable_words (Obj.repr records)) in
  let w = minor_words decode in
  if w > 1.25 *. decoded then
    Alcotest.failf "decoding %.0f words of records allocated %.0f words (max %.0f)" decoded w
      (1.25 *. decoded)

let suite =
  [
    prop_roundtrip;
    prop_versioned_roundtrip;
    prop_mixed_version_roundtrip;
    prop_truncation;
    prop_bit_flip;
    Alcotest.test_case "codec frame shape" `Quick test_codec_frame_shape;
    Alcotest.test_case "codec torn tail" `Quick test_codec_torn_tail;
    Alcotest.test_case "codec interior corruption" `Quick
      test_codec_interior_corruption;
    Alcotest.test_case "corruption carries offset + frame version (v1, v2)"
      `Quick test_corruption_offset_and_version;
    Alcotest.test_case "foreign-version frame refused with offset" `Quick
      test_foreign_version_refused;
    Alcotest.test_case "v1/v2/mixed-version round trips" `Quick
      test_mixed_version_roundtrip;
    Alcotest.test_case "v1 log upgrade: load, mixed appends, v2 rewrite" `Quick
      test_disk_wal_v1_upgrade;
    Alcotest.test_case "codec truncate-intent round trip" `Quick
      test_codec_truncate_intent_roundtrip;
    Alcotest.test_case "valid_frame_after: verdicts and probe budget" `Quick
      test_valid_frame_after;
    Alcotest.test_case "long log: deep torn tail and interior offset" `Quick
      test_long_log_verdicts;
    Alcotest.test_case "memory semantics" `Quick test_memory_semantics;
    prop_memory_paged;
    Alcotest.test_case "file backend" `Quick test_file_backend;
    Alcotest.test_case "faulty torn write" `Quick test_faulty_torn_write;
    Alcotest.test_case "disk wal roundtrip" `Quick test_disk_wal_roundtrip;
    Alcotest.test_case "create discards stale log" `Quick
      test_disk_wal_create_discards_stale;
    Alcotest.test_case "torn tail truncated on load" `Quick
      test_disk_wal_torn_tail_truncated;
    Alcotest.test_case "interior corruption refused" `Quick
      test_disk_wal_interior_corruption_refused;
    Alcotest.test_case "checkpoint truncate compacts backend" `Quick
      test_disk_wal_checkpoint_truncate;
    Alcotest.test_case "truncation journal: rollback" `Quick
      test_truncate_journal_rollback;
    Alcotest.test_case "truncation journal: redo" `Quick
      test_truncate_journal_redo;
    Alcotest.test_case "truncation journal: damaged image refused" `Quick
      test_truncate_journal_damaged_image_refused;
    Alcotest.test_case "create forces stale-log truncation" `Quick
      test_create_forces_stale_truncation;
    Alcotest.test_case "retry absorbs injected faults" `Quick
      test_disk_wal_retry_absorbs_faults;
    Alcotest.test_case "storage unavailable after budget" `Quick
      test_disk_wal_gives_up;
    prop_encode_matches_reference;
    prop_crc_matches_reference;
    Alcotest.test_case "crc32 known answer" `Quick test_crc_known_answer;
    prop_embedded_frame_bound;
    Alcotest.test_case "crc32 allocates only its result" `Quick test_crc_allocates_nothing;
    Alcotest.test_case "encode allocates only its frame" `Quick
      test_encode_allocates_its_frame;
    Alcotest.test_case "decode_all allocates about its records" `Quick
      test_decode_allocates_its_records;
  ]
