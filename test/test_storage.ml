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

(* Same round trip at every supported format version: the record
   layout is shared; the header and the integer width differ. *)
let prop_versioned_roundtrip =
  Helpers.qcheck "decode (encode ~version rs) = rs for each version"
    QCheck2.Gen.(pair (oneofl Codec.supported_versions) records_gen)
    (fun (version, rs) ->
      let bytes = Codec.encode_all ~version rs in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None && List.equal Wal.equal_record rs d.Codec.records)

(* And with the version chosen per frame: any v1/v2/v3 interleaving decodes
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
  Helpers.check_int "write format version" 3 Codec.write_version;
  Alcotest.(check (list int))
    "supported versions" [ 1; 2; 3 ] Codec.supported_versions;
  let frame = Codec.encode (Wal.Begin Tid.a) in
  Helpers.check_bool "frame longer than header" true
    (String.length frame > Codec.header_size Codec.write_version);
  Helpers.check_bool "magic byte 0" true (frame.[0] = '\xd7');
  Helpers.check_bool "magic byte 1" true (frame.[1] = 'W');
  Helpers.check_int "version byte" Codec.write_version (Char.code frame.[2]);
  (* v2 and v3 carry a little-endian shard id between the version byte
     and the payload length *)
  Helpers.check_int "shard id" 0
    (Char.code frame.[3] lor (Char.code frame.[4] lsl 8));
  let v1 = Codec.encode ~version:Codec.v1 (Wal.Begin Tid.a) in
  Helpers.check_int "v1 version byte" 1 (Char.code v1.[2]);
  Helpers.check_int "v2 header is 2 bytes wider" 2
    (String.length (Codec.encode ~version:Codec.v2 (Wal.Begin Tid.a)) - String.length v1);
  Helpers.check_int "v3 header is v2's" (Codec.header_size Codec.v2)
    (Codec.header_size Codec.v3);
  (* v3 writes the tid as a one-byte varint: tag + 1 byte of payload *)
  Helpers.check_int "v3 begin payload" 2 (String.length frame - Codec.header_size Codec.v3)

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

(* Version-negotiation round trips: pure v1, pure v2, pure v3 and
   interleaved frames all decode to the same records — the record
   layout is shared; the header and the integer width differ. *)
let test_mixed_version_roundtrip () =
  let v1 = Codec.encode_all ~version:Codec.v1 sample_records in
  let v2 = Codec.encode_all ~version:Codec.v2 sample_records in
  let v3 = Codec.encode_all ~version:Codec.v3 sample_records in
  Helpers.check_bool "v1 and v2 images differ" true (not (String.equal v1 v2));
  Helpers.check_bool "v3 image is the shortest" true
    (String.length v3 < String.length v1 && String.length v1 < String.length v2);
  List.iter
    (fun (label, bytes) ->
      match Codec.decode_all bytes with
      | Error c -> Alcotest.failf "%s refused: %a" label Codec.pp_corruption c
      | Ok d ->
          Helpers.check_bool (label ^ " round trips") true
            (List.equal Wal.equal_record sample_records d.Codec.records
            && d.Codec.torn = None))
    [ ("pure v1", v1); ("pure v2", v2); ("pure v3", v3) ];
  let mixed =
    String.concat ""
      (List.mapi
         (fun i r -> Codec.encode ~version:(List.nth Codec.supported_versions (i mod 3)) r)
         sample_records)
  in
  match Codec.decode_all mixed with
  | Error c -> Alcotest.failf "mixed-version log refused: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "mixed-version log round trips" true
        (List.equal Wal.equal_record sample_records d.Codec.records)

(* A v1 log loaded by the current binary: replays bit-for-bit, appends
   land in the write version (a mixed log), and truncate_to_checkpoint
   rewrites it purely in the write version — the incremental upgrade
   path. *)
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
      Wal.append wal (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal));
      Wal.force wal;
      (* the log is now mixed: the v1 prefix untouched, v3 appended *)
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
      ignore (Wal.truncate_to_checkpoint wal);
      let compacted = Storage.read_all storage in
      (* every surviving frame was rewritten in the write version *)
      let report = Tm_engine.Wal_inspect.inspect compacted in
      Alcotest.(check string) "compacted log is clean" "clean"
        (Tm_engine.Wal_inspect.damage_kind report.damage);
      Alcotest.(check (list (pair int int))) "every frame is write-version"
        [ (Codec.write_version, report.records) ] report.by_version

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
   [write]: after writing the slice [off]/[len] of [b], the image is
   [String.sub s 0 pos ^ Bytes.sub_string b off len].  Each slice sits
   inside a larger buffer, with bytes on both sides that must not be
   written.  Lengths straddle the 4 KB page size, so writes cross page
   boundaries, rewrites at 0 truncate to a shorter image (releasing
   pages), and empty writes truncate without adding bytes.  Bytes encode
   their position and write, so a misplaced or stale page shows up as a
   mismatch. *)
let prop_memory_paged =
  let open QCheck2.Gen in
  let len = oneof [ return 0; int_bound 64; int_range 4000 9000 ] in
  let pos = oneof [ return `Start; return `End; map (fun n -> `At n) nat ] in
  let filled tag n = String.init n (fun i -> Char.chr ((tag + (i * 7)) land 0xff)) in
  let write = triple pos len (pair (int_bound 40) (int_bound 40)) in
  Helpers.qcheck "paged memory = String.sub s 0 pos ^ Bytes.sub_string b off len"
    (pair len (list_size (int_range 1 30) write))
    (fun (seed_len, writes) ->
      let seed = filled 0 seed_len in
      let s = Storage.of_string seed in
      Storage.read_all s == seed
      && snd
           (List.fold_left
              (fun (expected, ok) (at, n, (off, after)) ->
                let size = String.length expected in
                let pos = match at with `Start -> 0 | `End -> size | `At k -> k mod (size + 1) in
                let b = Bytes.of_string (filled (pos + n + 1) (off + n + after)) in
                Storage.write s ~pos b ~off ~len:n;
                let expected = String.sub expected 0 pos ^ Bytes.sub_string b off n in
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
      (* A slice from inside a buffer: only [off, off + len) lands. *)
      Storage.write s ~pos:5 (Bytes.of_string "xx, log!yy") ~off:2 ~len:6;
      Storage.force s;
      Alcotest.(check string) "slice write" "hello, log!" (Storage.read_all s);
      Storage.close s;
      (* Reopen: the bytes survived the handle. *)
      let s2 = Storage.file path in
      Alcotest.(check string) "persistent" "hello, log!" (Storage.read_all s2);
      Helpers.check_int "size" 11 (Storage.size s2);
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

(* A frame whose CRC holds but whose tid field is negative (a foreign
   writer, or damage re-sealed) is corrupt like any other: [load]
   reports it at its own offset, whether the tid is 8 fixed bytes (v2)
   or a varint (v3, where 1 is the zigzag of -1). *)
let test_disk_wal_negative_tid_refused () =
  List.iter
    (fun version ->
      let prefix = Codec.encode_all ~version [ Wal.Begin Tid.a; Wal.Commit Tid.a ] in
      let b = Bytes.of_string (Codec.encode ~version (Wal.Begin Tid.b)) in
      let hdr = Codec.header_size version in
      let n = Bytes.length b - hdr in
      if version = Codec.v3 then Bytes.set b (hdr + 1) '\001'
      else Bytes.set_int64_le b (hdr + 1) (-1L);
      Bytes.set_int32_le b (hdr - 4) (Codec.crc32 (Bytes.sub_string b hdr n));
      let image = prefix ^ Bytes.to_string b ^ Codec.encode ~version (Wal.Commit Tid.b) in
      match Disk_wal.load (Storage.of_string image) with
      | Ok _ -> Alcotest.failf "v%d: negative tid loaded" version
      | Error c ->
          Helpers.check_int
            (Fmt.str "v%d: offset of the frame" version)
            (String.length prefix) c.Codec.offset;
          Alcotest.(check string) (Fmt.str "v%d: reason" version) "negative tid" c.Codec.reason)
    [ Codec.v2; Codec.v3 ]

let test_disk_wal_truncate_to_checkpoint () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Commit Tid.a ];
  Wal.append wal (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal));
  Wal.append wal (Wal.Commit Tid.b);
  let before = Storage.size storage in
  let dropped = Wal.truncate_to_checkpoint wal in
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
  Wal.append wal (Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal));
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
  let run storage =
    let dw = Disk_wal.create storage in
    let reg = Tm_obs.Metrics.create () in
    Wal.attach_metrics (Disk_wal.wal dw) reg;
    for i = 0 to 19 do
      let t = Tid.of_int i in
      Wal.append (Disk_wal.wal dw) (Wal.Begin t);
      Wal.append (Disk_wal.wal dw) (Wal.Operation (t, BA.deposit 1));
      Wal.append (Disk_wal.wal dw) (Wal.Commit t);
      Wal.force (Disk_wal.wal dw)
    done;
    (dw, reg)
  in
  let inner = Storage.memory () in
  let faulty = Storage.faulty ~seed:7 Storage.write_faults inner in
  let dw, reg = run faulty in
  let clean = Storage.memory () in
  ignore (run clean);
  Alcotest.(check string) "stored bytes = a clean run's" (Storage.read_all clean)
    (Storage.read_all inner);
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
  let dw = Disk_wal.create storage in
  match Wal.append (Disk_wal.wal dw) (Wal.Begin Tid.a) with
  | () -> Alcotest.fail "append succeeded under write_error = 1"
  | exception Disk_wal.Storage_unavailable { attempts; _ } ->
      Helpers.check_int "attempt budget spent" 8 attempts;
      Helpers.check_int "every failed attempt but the last retried" 7 (Disk_wal.retries dw)

(* A record storage refused is not in the log: it is not counted, has no
   LSN, does not read back and does not reach the next checkpoint — a
   Commit that failed to persist must not show as committed there. *)
let test_failed_append_leaves_log_unchanged () =
  let inner = Storage.memory () in
  let dw = Disk_wal.create inner in
  List.iter (Wal.append (Disk_wal.wal dw))
    [
      Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5); Wal.Commit Tid.a;
      Wal.Begin Tid.b; Wal.Operation (Tid.b, BA.deposit 7);
    ];
  (* The same log, reloaded through a backend whose writes all fail. *)
  let failing = Storage.faulty ~seed:1 { Storage.no_faults with write_error = 1. } inner in
  let wal =
    match Disk_wal.load failing with
    | Ok dw -> Disk_wal.wal dw
    | Error c -> Alcotest.failf "log refused: %a" Codec.pp_corruption c
  in
  let length = Wal.length wal and lsn = Wal.last_lsn wal and recs = Wal.records wal in
  let snapshot () = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal) in
  let before = snapshot () in
  (match Wal.append wal (Wal.Commit Tid.b) with
  | () -> Alcotest.fail "append succeeded under write_error = 1"
  | exception Disk_wal.Storage_unavailable _ -> ());
  Helpers.check_int "length unchanged" length (Wal.length wal);
  Helpers.check_int "last_lsn unchanged" lsn (Wal.last_lsn wal);
  Helpers.check_bool "records unchanged" true (List.equal Wal.equal_record recs (Wal.records wal));
  Helpers.check_bool "b still in flight" true (Wal.in_flight wal Tid.b);
  Helpers.check_bool "next checkpoint unchanged" true (Wal.equal_record before (snapshot ()))

(* What a disk-backed log keeps: its replay state, not its records.  Per
   committed transfer that is two slots of the committed log's chunks
   and a bit in the finished-tid set: 2.08 words.  The record list it
   replaced held 28 words per transfer here, a hash table for the
   finished tids would hold 10.9, and a committed log of list cells
   held 6.03.  The pin allowed 9 over the list cells and allows 2.3
   over the chunks (the measured value plus 10%).  The operations are
   shared, so only the log's own structure is counted.  The second run
   starts with a transaction that finishes long before the rest (as
   after reloading a truncated log whose tail opens with an old
   transaction's commit): the run of tids beyond the gap must still end
   up in the bitset. *)
let test_disk_wal_keeps_replay_state_only () =
  let withdraw = { (BA.withdraw_ok 3) with Op.obj = "account-0001" }
  and deposit = { (BA.deposit 3) with Op.obj = "account-0002" } in
  let pin what ~lead ~start =
    let storage = Storage.memory () in
    let dw = Disk_wal.create storage in
    let wal = Disk_wal.wal dw in
    let transfer i =
      let t = Tid.of_int i in
      List.iter (Wal.append wal)
        [ Wal.Begin t; Wal.Operation (t, withdraw); Wal.Operation (t, deposit); Wal.Commit t ]
    in
    let transfers lo hi = for i = lo to hi - 1 do transfer i done in
    let words () =
      Obj.reachable_words (Obj.repr dw) - Obj.reachable_words (Obj.repr storage)
    in
    List.iter transfer lead;
    transfers start (start + 1_000);
    let w3 = words () in
    transfers (start + 1_000) (start + 10_000);
    let w4 = words () in
    let per_txn = float_of_int (w4 - w3) /. 9_000. in
    if per_txn > 2.3 then
      Alcotest.failf "%s: the log grew %.2f words per committed transfer (max 2.3)" what
        per_txn;
    Helpers.check_int
      (what ^ ": every record reads back from storage")
      (4 * (List.length lead + 10_000))
      (List.length (Wal.records wal))
  in
  pin "sequential tids" ~lead:[] ~start:0;
  pin "first finished tid 1000 below the next" ~lead:[ 0 ] ~start:1_000

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
   is v2-only, or v2 or v3 with any shard. *)
let framed_record_gen =
  let open QCheck2.Gen in
  any_record_gen >>= fun r ->
  let sharded =
    map2 (fun version shard -> (r, version, shard)) (oneofl [ Codec.v2; Codec.v3 ])
      (int_range 0 0xFFFF)
  in
  if Codec.v2_only_record r then sharded else oneof [ return (r, Codec.v1, 0); sharded ]

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

(* The verifying walk makes every check a decode makes: a frame whose
   payload has one byte changed and its CRC re-sealed, so that only the
   payload checks stand in the way, is refused by [verify_frames]
   exactly when [decode_frame] refuses it, for the same reason (a
   negative tid included), and an intact frame reports the tag and
   tid mark of the record a decode builds. *)
let prop_verify_checks_as_decode =
  Helpers.qcheck ~count:1000 "verify walk = decode checks on resealed damage"
    QCheck2.Gen.(triple framed_record_gen nat (int_bound 255))
    (fun ((r, version, shard), at, x) ->
      let frame = Codec.encode ~version ~shard r in
      let hdr = Codec.header_size version in
      let n = String.length frame - hdr in
      let b = Bytes.of_string frame in
      let i = hdr + (at mod n) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.set_int32_le b (hdr - 4) (Codec.crc32 (Bytes.sub_string b hdr n));
      let s = Bytes.to_string b in
      let seen = ref [] in
      let verify () = Codec.verify_frames (fun pos tag mark -> seen := (pos, tag, mark) :: !seen) s in
      let mark r = Option.fold ~none:0 ~some:(fun t -> Tid.to_int t + 1) (Wal.max_tid [ r ]) in
      match Codec.decode_frame s 0, verify () with
      | Ok (r', _), Ok (len, None) -> (
          len = String.length s
          && match !seen with
             | [ (0, t, m) ] -> Wal.record_kinds.(t) = Wal.record_kind r' && Int.max 0 m = mark r'
             | _ -> false)
      | Error c, Ok (0, Some c') -> c = c' && !seen = []
      | _ -> false)

(* The verify walk's tid mark is decode's.  Over a run of frames of
   every version, each intact frame reports the tag of the record a
   decode builds and a mark one above the largest tid that record
   mentions; a checkpoint's [next_tid] counts as it stands, and an
   intent, which mentions no tid, reports 0.  A [get_tid] that stops
   raising the mark, or a mark carried from one frame to the next,
   fails it. *)
let decoded_mark = function
  | Wal.Begin t | Commit t | Abort t | Prepare t | Operation (t, _) | Decision { tid = t; _ } ->
      Tid.to_int t + 1
  | Checkpoint cp -> List.fold_left (fun m (t, _) -> Int.max m (Tid.to_int t + 1)) cp.next_tid cp.live
  | Truncate_intent _ -> 0

let prop_verify_mark_is_decode_mark =
  Helpers.qcheck ~count:500 "verify walk's tid mark = decode's"
    QCheck2.Gen.(list_size (int_range 1 6) framed_record_gen)
    (fun framed ->
      let s = String.concat "" (List.map (fun (r, version, shard) -> Codec.encode ~version ~shard r) framed) in
      let seen = ref [] in
      match Codec.verify_frames (fun pos tag mark -> seen := (pos, tag, mark) :: !seen) s with
      | Ok (len, None) when len = String.length s ->
          List.length !seen = List.length framed
          && List.for_all
               (fun (pos, tag, mark) ->
                 match Codec.decode_frame s pos with
                 | Ok (r, _) -> String.equal Wal.record_kinds.(tag) (Wal.record_kind r) && mark = decoded_mark r
                 | Error _ -> false)
               !seen
      | _ -> false)

(* Sizing is writing into the counting buffer, and only that buffer
   writes nothing: for every fixture at every version, [frame_size] is
   the length of the frame [encode] returns, and [put_frame] into a
   buffer one byte short raises rather than dropping the last byte. *)
let test_counting_writer_sizes_and_refuses_short () =
  List.iter
    (fun version ->
      List.iter
        (fun (name, r) ->
          if Tm_engine.Wal_format.fixture_supported ~version r then begin
            let shard = if version = Codec.v1 then 0 else 3 in
            let what = Fmt.str "v%d %s" version name in
            let frame = Codec.encode ~version ~shard r in
            let size = Codec.frame_size ~version ~shard r in
            Helpers.check_int (what ^ ": frame_size = encoded length") (String.length frame) size;
            let b = Bytes.make (size + 5) '\000' in
            Helpers.check_int (what ^ ": put_frame stops at the frame's end") (size + 5)
              (Codec.put_frame b 5 ~version ~shard r);
            Alcotest.(check string) (what ^ ": put_frame writes encode's bytes") frame
              (Bytes.sub_string b 5 size);
            match Codec.put_frame (Bytes.create (size + 4)) 5 ~version ~shard r with
            | stop -> Alcotest.failf "%s: put_frame into a buffer one byte short returned %d" what stop
            | exception Invalid_argument _ -> ()
          end)
        Tm_engine.Wal_format.fixtures)
    Codec.supported_versions

(* v3's varints.  The boundary values of the one-byte fast path and of
   the 63-bit range round trip in a tid, a value and a checkpoint's
   [next_tid].  A frame holding a 10-byte varint, or one cut inside a
   varint, its length and CRC re-sealed so that only the varint reader
   stands in the way, is refused by [decode_frame] and by
   [verify_frames] alike: the same reason at the same offset. *)
let varint_boundaries = [ 0; 63; 64; 127; 128; 8191; 8192; max_int; -1; -64; -65; min_int ]

(* A v3 frame around [payload], sealed with its length and CRC. *)
let sealed_v3 payload =
  let hdr = Codec.header_size Codec.v3 in
  let b = Bytes.of_string (Codec.encode ~version:Codec.v3 (Wal.Commit Tid.a)) in
  let b = Bytes.cat (Bytes.sub b 0 hdr) (Bytes.of_string payload) in
  Bytes.set_int32_le b (hdr - 8) (Int32.of_int (String.length payload));
  Bytes.set_int32_le b (hdr - 4) (Codec.crc32 payload);
  Bytes.to_string b

let refused_alike frame reason =
  match Codec.decode_frame frame 0, Codec.verify_frames (fun _ _ _ -> ()) frame with
  | Error c, Ok (0, Some c') -> c = c' && c.Codec.offset = 0 && String.equal c.Codec.reason reason
  | _ -> false

let prop_varint =
  Helpers.qcheck ~count:300 "v3 varints: boundaries round trip, overlong and cut refused"
    QCheck2.Gen.(pair (oneof [ oneofl varint_boundaries; int ]) nat)
    (fun (i, k) ->
      let tid = Tid.of_int (i land max_int) in
      let op = Op.make ~obj:"acct" ~args:[ Value.Int i ] "deposit" (Value.Int i) in
      let round_trips r =
        match Codec.decode_frame (Codec.encode ~version:Codec.v3 r) 0 with
        | Ok (r', _) -> Wal.equal_record r r'
        | Error _ -> false
      in
      let commit = Codec.encode ~version:Codec.v3 (Wal.Commit (Tid.of_int ((i land max_int) lor (1 lsl 20)))) in
      let varint = String.sub commit (Codec.header_size Codec.v3 + 1) (String.length commit - Codec.header_size Codec.v3 - 1) in
      let cut = 1 + (k mod (String.length varint - 1)) in
      round_trips (Wal.Operation (tid, op))
      && round_trips (Wal.Checkpoint { Wal.committed = [ op ]; live = [ (tid, [ op ]) ]; next_tid = i })
      && refused_alike (sealed_v3 ("\002" ^ String.make 9 '\x80' ^ "\000")) "varint longer than 9 bytes"
      && refused_alike (sealed_v3 ("\002" ^ String.sub varint 0 cut)) "truncated payload")

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

(* The records of [n] committed transfers between 1,024 accounts, tids
   from [first]. *)
let transfer_log ?(first = 0) n =
  List.concat
    (List.init n (fun k ->
         let i = first + k in
         let t = Tid.of_int i in
         let acct k = Fmt.str "account-%04d" ((i * 7 + k) mod 1024) in
         [
           Wal.Begin t;
           Wal.Operation (t, { (BA.withdraw_ok 3) with Op.obj = acct 0 });
           Wal.Operation (t, { (BA.deposit 3) with Op.obj = acct 1 });
           Wal.Commit t;
         ]))

(* A decoded log costs what it returns, the records and their list, and
   a few words per call; the pin allows a quarter more (before: 708013
   words for these 65000 words of records). *)
let test_decode_allocates_its_records () =
  let recs = transfer_log 1000 in
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

(* Checking a compaction journal's image, or the prefix a load only
   verifies, builds nothing: the walk over a 4,000-frame log allocates
   what it does over one frame (before: a decode of every record,
   53,044 words for this log). *)
let test_verify_allocates_nothing_per_frame () =
  let verify s () =
    match Codec.verify_frames (fun _ _ _ -> ()) s with
    | Ok (_, None) -> ()
    | Ok (_, Some c) | Error c -> Alcotest.failf "transfer log refused: %a" Codec.pp_corruption c
  in
  let one = Codec.encode (Wal.Begin Tid.a) and many = Codec.encode_all (transfer_log 1000) in
  verify one ();
  verify many ();
  let w1 = minor_words (verify one) and wn = minor_words (verify many) in
  if wn > w1 then
    Alcotest.failf "verifying 4,000 frames allocated %.0f words, one frame %.0f" wn w1

(* A load decodes only from the log's last checkpoint on: 1,000
   transactions before the checkpoint cost no allocation beyond their
   bytes, so the whole log loads within 64 words of the checkpoint and
   its tail alone (0 now; 69,038 words more when the prefix is decoded
   and stepped). *)
let test_load_skips_superseded_prefix () =
  let prefix = transfer_log 1000 in
  let cp = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records prefix)) in
  let tail = transfer_log ~first:1000 16 in
  let load recs =
    let image = Codec.encode_all recs in
    fun () ->
      match Disk_wal.load (Storage.of_string image) with
      | Ok dw -> dw
      | Error c -> Alcotest.failf "log refused: %a" Codec.pp_corruption c
  in
  let whole = load (prefix @ (cp :: tail)) and short = load (cp :: tail) in
  let same a b = Wal.equal_record (Wal.Checkpoint a) (Wal.Checkpoint b) in
  let state dw = Wal.checkpoint_of ~next_tid:0 (Disk_wal.wal dw) in
  Helpers.check_bool "same replay state" true (same (state (whole ())) (state (short ())));
  Helpers.check_int "the prefix counts toward the length" (List.length prefix)
    (Wal.length (Disk_wal.wal (whole ())) - Wal.length (Disk_wal.wal (short ())));
  let ww = minor_words whole and ws = minor_words short in
  if ww > ws +. 64. then
    Alcotest.failf "loading 1,000 transactions before the checkpoint cost %.0f words (max 64)"
      (ww -. ws)

(* An append to a warmed-up [Disk_wal] costs its record's replay state:
   the frame is encoded into the log's scratch buffer and written as a
   slice, and the retry loop builds no closure (before: 20 / 27 / 19
   words for a Begin / Operation / Commit, 3–4 now).  The appends stay
   inside the memory backend's first page, so no page is allocated. *)
let test_disk_wal_append_allocates_its_record () =
  let dw = Disk_wal.create (Storage.memory ()) in
  let wal = Disk_wal.wal dw in
  let op = { (BA.deposit 5) with Op.obj = "account-0042" } in
  let txn t = [ Wal.Begin t; Wal.Operation (t, op); Wal.Commit t ] in
  List.iter (Wal.append wal) (txn (Tid.of_int 1) @ txn (Tid.of_int 2));
  Wal.force wal;
  List.iter
    (fun r ->
      let w = minor_words (fun () -> Wal.append wal r) in
      if w > 8. then
        Alcotest.failf "%s append allocated %.0f words (max 8)" (Wal.record_kind r) w)
    (txn (Tid.of_int 3));
  Helpers.check_bool "inside the first page" true (Storage.size (Disk_wal.storage dw) < 4096)

(* A force allocates nothing: the group-commit combiner is a top-level
   function and the retry loop is first-order (before: 17 words). *)
let test_force_allocates_nothing () =
  let dw = Disk_wal.create (Storage.memory ()) in
  let wal = Disk_wal.wal dw in
  let t = Tid.of_int 1 in
  Wal.append wal (Wal.Begin t);
  Wal.force wal;
  Wal.append wal (Wal.Commit t);
  let lsn = Wal.last_lsn wal in
  let w = minor_words (fun () -> Wal.force_upto wal lsn) in
  Helpers.check_int "forced" lsn (Wal.flushed_lsn wal);
  if w > 1. then Alcotest.failf "a force allocated %.0f words (max 1)" w

(* The sharded front end and [Database] allocate nothing of their own
   per call beyond a transaction's entries: lock sections, the 2PC
   phases and the commit walks build no closures and copy no lists.
   Each engine logs to [Storage.memory] as the transfer_2pc benchmark
   does, and each figure is the mean of 256 calls after 256 to warm up. *)
module AO = Tm_engine.Atomic_object
module SD = Tm_engine.Sharded_database

let account name =
  AO.create ~spec:(Spec.rename (BA.spec_with_initial 1_000_000) name) ~conflict:BA.nfc_conflict
    ~recovery:Tm_engine.Recovery.DU ()

let memory_wal () = Disk_wal.wal (Disk_wal.create (Storage.memory ()))
let deposit_1 = Op.invocation ~args:[ Value.int 1 ] "deposit"
let withdraw_1 = Op.invocation ~args:[ Value.int 1 ] "withdraw"

(* The mean minor words of [measured] over 256 transactions, each set
   up by [prepare], after 256 unmeasured ones. *)
let mean_words ~prepare measured =
  let total = ref 0. in
  for i = 1 to 512 do
    let x = prepare () in
    let w = minor_words (fun () -> measured x) in
    if i > 256 then total := !total +. w
  done;
  !total /. 256.

let committed = function Ok () -> () | Error _ -> Alcotest.fail "transfer did not commit"

(* A one-shard transfer (begin, two invokes, commit) costs at most 16
   words more through [Sharded_database] than on the bare
   [Shard] under it: the router's transaction entry, its
   shard list and its pending commit, 13 words (before: 98). *)
let test_sharded_transfer_allocation () =
  let transfer begin_txn invoke commit () =
    let t = begin_txn () in
    ignore (invoke t "A" deposit_1);
    ignore (invoke t "B" withdraw_1);
    committed (commit t)
  in
  let dd = Tm_engine.Shard.create ~wal:(memory_wal ()) [ account "A"; account "B" ] in
  let bare =
    mean_words ~prepare:ignore
      (transfer
         (fun () -> Tm_engine.Shard.begin_txn dd)
         (fun t obj inv -> Tm_engine.Shard.invoke dd t ~obj inv)
         (Tm_engine.Shard.try_commit dd))
  in
  let sd = SD.create ~wals:[| memory_wal () |] [ account "A"; account "B" ] in
  let sharded =
    mean_words ~prepare:ignore
      (transfer
         (fun () -> SD.begin_txn sd)
         (fun t obj inv -> SD.invoke sd t ~obj inv)
         (SD.try_commit sd))
  in
  if sharded > bare +. 16. then
    Alcotest.failf "a one-shard transfer allocated %.1f words, the bare engine %.1f (max +16)"
      sharded bare

(* What a one-shard transfer leaves in the log: an Operation frame per
   invoke and a Commit, and no Begin, in v3 frames whose tids, lengths
   and amounts are one-byte varints: 80 bytes in 3 frames.  A Begin
   would add a 15-byte frame, and the v2 writer, which wrote one, wrote
   193 bytes in 4 frames. *)
let test_transfer_log_bytes () =
  let storage = Storage.memory () in
  let sh =
    Tm_engine.Shard.create ~wal:(Disk_wal.wal (Disk_wal.create storage)) [ account "A"; account "B" ]
  in
  let transfer () =
    let t = Tm_engine.Shard.begin_txn sh in
    ignore (Tm_engine.Shard.invoke sh t ~obj:"A" deposit_1);
    ignore (Tm_engine.Shard.invoke sh t ~obj:"B" withdraw_1);
    committed (Tm_engine.Shard.try_commit sh t)
  in
  let appends kind =
    Tm_obs.Metrics.counter_value (Tm_engine.Shard.metrics sh) "tm_wal_appends_total"
      ~labels:[ ("kind", kind) ]
  in
  let frames () = appends "begin" + appends "operation" + appends "commit" in
  transfer ();
  let size = Storage.size storage and before = frames () in
  transfer ();
  Helpers.check_int "no begin appended" 0 (appends "begin");
  Helpers.check_int "frames per transfer" 3 (frames () - before);
  let bytes = Storage.size storage - size in
  if bytes > 80 then Alcotest.failf "a one-shard transfer wrote %d log bytes (max 80)" bytes

(* A cross-shard commit on four shards: two prepares, their forces, the
   decision and two completions, 79 words (before: 232). *)
let test_cross_shard_commit_allocation () =
  let shard = SD.home_shard ~shards:4 in
  let name i = Fmt.str "BA%d" i in
  let rec other i = if shard (name i) <> shard (name 0) then name i else other (i + 1) in
  let a = name 0 and b = other 1 in
  let sd = SD.create ~wals:(Array.init 4 (fun _ -> memory_wal ())) [ account a; account b ] in
  let prepare () =
    let t = SD.begin_txn sd in
    ignore (SD.invoke sd t ~obj:a deposit_1);
    ignore (SD.invoke sd t ~obj:b withdraw_1);
    t
  in
  let w = mean_words ~prepare (fun t -> committed (SD.try_commit sd t)) in
  Helpers.check_int "every commit crossed shards" 512
    (Tm_obs.Metrics.counter_value (SD.metrics sd) "tm_shard_cross_txn_total");
  if w > 96. then Alcotest.failf "a cross-shard commit allocated %.1f words (max 96)" w

(* [Database.try_commit] of a two-object transaction walks its objects
   oldest first without a reversed copy or a closure: what remains is
   the objects' own commits, 10 words (before: 34). *)
let test_database_commit_allocation () =
  let db = Tm_engine.Database.create [ account "A"; account "B" ] in
  let prepare () =
    let t = Tm_engine.Database.begin_txn db in
    ignore (Tm_engine.Database.invoke db t ~obj:"A" deposit_1);
    ignore (Tm_engine.Database.invoke db t ~obj:"B" withdraw_1);
    t
  in
  let w = mean_words ~prepare (fun t -> committed (Tm_engine.Database.try_commit db t)) in
  if w > 16. then Alcotest.failf "Database.try_commit allocated %.1f words (max 16)" w

(* ------------------------------------------------------------------ *)
(* The decode cache: a pass over a log builds each repeated operation
   once, stands idle where the log does not repeat, and never changes
   what decodes.                                                       *)

(* A log shorter than 64 KB decodes without a cache; [padded] appends
   commit frames (which hold no operation) until a log is that long. *)
let cache_floor = 65536

let padded framed =
  let commit = Wal.Commit (Tid.of_int 0) in
  let n = (cache_floor / String.length (Codec.encode commit)) + 1 in
  framed @ List.init n (fun _ -> (Codec.v2, commit))

let encode_framed framed =
  String.concat "" (List.map (fun (version, r) -> Codec.encode ~version r) framed)

let test_decode_shares_repeats () =
  let dep = { (BA.deposit 5) with Op.obj = "account-0042" } in
  let wd = { (BA.withdraw_ok 3) with Op.obj = "account-0042" } in
  let recs =
    [
      Wal.Operation (Tid.of_int 1, dep);
      Wal.Operation (Tid.of_int 2, { dep with Op.obj = String.concat "-" [ "account"; "0042" ] });
      Wal.Operation (Tid.of_int 3, wd);
    ]
  in
  let first_three bytes =
    match Codec.decode_all bytes with
    | Ok { Codec.records = Wal.Operation (_, a) :: Wal.Operation (_, b) :: Wal.Operation (_, c) :: _;
           _ } ->
        (a, b, c)
    | Ok _ -> Alcotest.fail "decoded other records"
    | Error c -> Alcotest.failf "refused: %a" Codec.pp_corruption c
  in
  let a, b, c = first_three (encode_framed (padded (List.map (fun r -> (Codec.v2, r)) recs))) in
  Helpers.check_bool "equal operations decode to one Op.t" true (a == b);
  Helpers.check_bool "distinct operations stay distinct" false (a == c);
  (* The table of names shares an object name between distinct
     operations, but not a result string, which need not repeat. *)
  Helpers.check_bool "distinct operations share their object name" true (a.Op.obj == c.Op.obj);
  (match (a.Op.res, c.Op.res) with
  | Value.Str x, Value.Str y -> Helpers.check_bool "result strings are not shared" false (x == y)
  | _ -> Alcotest.fail "results are not strings");
  let a, b, _ = first_three (Codec.encode_all recs) in
  Helpers.check_bool "a short log has no cache" false (a == b);
  (* A single-frame decode has no table to share through. *)
  let frame = Codec.encode (List.hd recs) in
  let single () =
    match Codec.decode_frame frame 0 with
    | Ok (Wal.Operation (_, op), _) -> op
    | _ -> Alcotest.fail "frame refused"
  in
  Helpers.check_bool "decode_frame shares nothing" false (single () == single ())

(* The decode cache keys an operation on its bytes and its frame's
   integer width.  These two operations encode to the same 37 bytes, one
   in a v2 frame and one in a v3 frame: the v2 object name's 8-byte
   length and its first bytes read, as varints, as a v3 operation whose
   string result swallows the rest.  A cache keyed on the bytes alone
   would hand the v3 frame the v2 frame's operation. *)
let test_decode_cache_keys_width () =
  let obj = "\000\004\052" ^ "abcdefghi" in
  let v2_op = { Op.obj; inv = { Op.name = ""; args = [] }; res = Value.Unit } in
  let v3_op =
    {
      Op.obj = String.make 6 '\000';
      inv = { Op.name = ""; args = [] };
      res = Value.Str ("abcdefghi" ^ String.make 17 '\000');
    }
  in
  let body version op =
    let frame = Codec.encode ~version (Wal.Operation (Tid.of_int 1, op)) in
    (* past the tag and the tid: 8 bytes in v2, 1 in v3 *)
    let start = Codec.header_size version + 1 + if version = Codec.v2 then 8 else 1 in
    String.sub frame start (String.length frame - start)
  in
  Alcotest.(check string) "the two encodings are the same bytes" (body Codec.v2 v2_op)
    (body Codec.v3 v3_op);
  let recs = [ Wal.Operation (Tid.of_int 1, v2_op); Wal.Operation (Tid.of_int 1, v3_op) ] in
  let framed = padded [ (Codec.v2, List.hd recs); (Codec.v3, List.nth recs 1) ] in
  match Codec.decode_all (encode_framed framed) with
  | Error c -> Alcotest.failf "refused: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "each frame decodes to its own operation" true
        (List.equal Wal.equal_record (List.map snd framed) d.Codec.records)

(* Operations drawn from a pool far larger than any table, so slots are
   evicted and reused all along a log, with a few operations that repeat
   often enough to hit.  Values nest lists and strings. *)
let pool_op i =
  let long = String.make (i mod 48) (Char.chr (97 + (i mod 26))) in
  {
    Op.obj = Fmt.str "obj-%d" (i mod 61);
    inv =
      {
        Op.name = [| "put"; "get"; "append"; "swap" |].(i mod 4);
        args =
          [
            Value.Int i;
            Value.Str long;
            Value.List
              [
                Value.Str (string_of_int (i mod 13));
                Value.List [ Value.Int (i / 3); Value.Bool (i mod 2 = 0) ];
              ];
          ];
      };
    res =
      (match i mod 3 with
      | 0 -> Value.ok
      | 1 -> Value.List [ Value.Str (Fmt.str "r%d" i) ]
      | _ -> Value.Unit);
  }

let pooled_records_gen =
  let open QCheck2.Gen in
  let op = map pool_op (oneof [ int_bound 15; int_bound 1_000_000 ]) in
  let record =
    frequency
      [
        (1, map (fun t -> Wal.Begin t) tid_gen);
        (6, map2 (fun t o -> Wal.Operation (t, o)) tid_gen op);
        (1, map (fun t -> Wal.Commit t) tid_gen);
        ( 1,
          map3
            (fun committed live next_tid -> Wal.Checkpoint { Wal.committed; live; next_tid })
            (list_size (int_bound 30) op)
            (list_size (int_bound 3) (pair tid_gen (list_size (int_bound 10) op)))
            (int_bound 20) );
      ]
  in
  list_size (int_range 300 800) (pair (oneofl Codec.supported_versions) record)

let prop_roundtrip_under_eviction =
  Helpers.qcheck ~count:100 "decode_all (encode_all rs) = rs under eviction" pooled_records_gen
    (fun framed ->
      let framed = padded framed in
      match Codec.decode_all (encode_framed framed) with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None
          && List.equal Wal.equal_record (List.map snd framed) d.Codec.records)

(* A miss costs its operation and nothing else: the walk, hash and
   compare allocate nothing and the key is the source's own bytes.  Every
   operation of this log is distinct, so every lookup misses; the
   decoder without a cache allocated 106036 minor words for it, and the
   pin allows 2% more.  (The table itself, at this log's size, is one
   fixed allocation per pass, made in the major heap.) *)
let test_decode_miss_costs_nothing_extra () =
  let recs =
    List.concat
      (List.init 2000 (fun i ->
           let t = Tid.of_int i in
           let put = Tm_adt.Kv_store.put (Fmt.str "key-%05d" i) i in
           [ Wal.Begin t; Wal.Operation (t, put); Wal.Commit t ]))
  in
  let bytes = Codec.encode_all recs in
  let decode () =
    match Codec.decode_all bytes with
    | Ok d -> d.Codec.records
    | Error c -> Alcotest.failf "put log refused: %a" Codec.pp_corruption c
  in
  Helpers.check_bool "put log is long enough for a cache" true
    (String.length bytes >= cache_floor);
  Helpers.check_bool "put log round trips" true (List.equal Wal.equal_record recs (decode ()));
  let w = minor_words decode and max = 106036. *. 1.02 in
  if w > max then Alcotest.failf "decoding 2000 distinct puts allocated %.0f words (max %.0f)" w max

(* A cache that does not hit stands idle, then looks again.  The prefix
   of distinct puts is longer than a window (1024 lookups), so the first
   window hits nothing.  The run of one repeated operation after it is
   longer than the idle stretch (seven windows): its first copies are
   built afresh, and its last are shared again. *)
let test_decode_cache_idles_without_hits () =
  let distinct = 2048 and run = 8192 in
  let rep = { (BA.deposit 5) with Op.obj = "account-0042" } in
  let op i =
    if i < distinct then Tm_adt.Kv_store.put (Fmt.str "key-%05d" i) i else rep
  in
  let recs = List.init (distinct + run) (fun i -> Wal.Operation (Tid.of_int i, op i)) in
  match Codec.decode_all (Codec.encode_all recs) with
  | Error c -> Alcotest.failf "refused: %a" Codec.pp_corruption c
  | Ok d -> (
      Helpers.check_bool "log round trips" true (List.equal Wal.equal_record recs d.Codec.records);
      let run =
        List.filteri (fun i _ -> i >= distinct) d.Codec.records
        |> List.map (function Wal.Operation (_, o) -> o | _ -> Alcotest.fail "not an operation")
      in
      match (run, List.rev run) with
      | a :: b :: _, y :: z :: _ ->
          Helpers.check_bool "idle after a window without hits" false (a == b);
          Helpers.check_bool "sharing again after the idle stretch" true (y == z)
      | _ -> Alcotest.fail "run too short")

(* Object names are watched as operations are.  The prefix names a new
   object in each operation, so the first window of name lookups hits
   nothing and object names are built without a lookup for seven
   windows; operation names are still shared.  The run after it
   alternates two objects, each operation with its own amount so that
   none is shared whole: its first names are built afresh, and its last
   are shared again. *)
let test_decode_names_idle_without_hits () =
  let distinct = 2048 and run = 8192 in
  let op i =
    if i < distinct then { (BA.deposit 1) with Op.obj = Fmt.str "object-%05d" i }
    else { (BA.deposit i) with Op.obj = Fmt.str "account-%04d" (i mod 2) }
  in
  let recs = List.init (distinct + run) (fun i -> Wal.Operation (Tid.of_int i, op i)) in
  match Codec.decode_all (Codec.encode_all recs) with
  | Error c -> Alcotest.failf "refused: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "log round trips" true (List.equal Wal.equal_record recs d.Codec.records);
      let nth k =
        match List.nth d.Codec.records (distinct + k) with
        | Wal.Operation (_, o) -> o
        | _ -> Alcotest.fail "not an operation"
      in
      let a = nth 0 and b = nth 2 and y = nth (run - 3) and z = nth (run - 1) in
      Helpers.check_bool "object names idle after a window without hits" false
        (a.Op.obj == b.Op.obj);
      Helpers.check_bool "operation names shared meanwhile" true
        (a.Op.inv.Op.name == b.Op.inv.Op.name);
      Helpers.check_bool "object names shared again after the idle stretch" true
        (y.Op.obj == z.Op.obj)

(* A single-frame decode builds its result (record, pair and [Ok]) and a
   six-word reader, and no table (the smallest has 1024 slots). *)
let test_decode_frame_allocates_no_table () =
  let op = { (BA.deposit 5) with Op.obj = "account-0042" } in
  let frame = Codec.encode (Wal.Operation (Tid.of_int 17, op)) in
  let decode () = Codec.decode_frame frame 0 in
  let words = float_of_int (Obj.reachable_words (Obj.repr (decode ()))) in
  let w = minor_words decode in
  if w > words +. 8. then
    Alcotest.failf "decode_frame of a %.0f-word result allocated %.0f words (max %.0f)" words w
      (words +. 8.)

(* ------------------------------------------------------------------ *)
(* A load steps the replay state from the frame bytes: it must read
   back what the records those frames decode to step into.            *)

(* The first view in which two logs' replay states differ, or [None]. *)
let replay_state_diff got want =
  let plan_got = Wal.plan_of got and plan_want = Wal.plan_of want in
  let tids =
    List.init (max plan_got.Wal.plan_next_tid plan_want.Wal.plan_next_tid) Tid.of_int
  in
  let each_tid f = List.for_all (fun tid -> f got tid = f want tid) tids in
  let snapshot wal = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 wal) in
  List.find_map
    (fun (view, same) -> if same then None else Some view)
    [
      ("length", Wal.length got = Wal.length want);
      ("last_lsn", Wal.last_lsn got = Wal.last_lsn want);
      ("flushed_lsn", Wal.flushed_lsn got = Wal.flushed_lsn want);
      ("plan (buckets, losers, next tid)", Helpers.plans_equal plan_got plan_want);
      ("in_doubt", List.equal Tid.equal (Wal.in_doubt got) (Wal.in_doubt want));
      ("decided", each_tid Wal.decided);
      ("phase2", each_tid Wal.phase2);
      ("commit_evidence", each_tid Wal.commit_evidence);
      ("in_flight", each_tid Wal.in_flight);
      ("checkpoint_of", Wal.equal_record (snapshot got) (snapshot want));
    ]

(* [None] when a load of [bytes] steps to the state of
   [Wal.of_records] of their decoded records, else what differs. *)
let load_vs_records bytes =
  match (Disk_wal.load (Storage.of_string bytes), Codec.decode_all bytes) with
  | Ok dw, Ok d -> replay_state_diff (Disk_wal.wal dw) (Wal.of_records d.Codec.records)
  | Error c, _ | _, Error c -> Some (Fmt.str "refused: %a" Codec.pp_corruption c)

(* Logs of every record kind but the journal's, each record in a frame
   of a version that can carry it.  Checkpoints carry live transactions'
   operations.  A third of the logs are followed by copies of their
   records other than checkpoints, past the 64 KB a pass needs for its
   decode cache, so the pass from the last checkpoint has one. *)
let replay_log_gen =
  let open QCheck2.Gen in
  let tid = map Tid.of_int (int_bound 24) in
  let op = map pool_op (oneof [ int_bound 15; int_bound 1_000_000 ]) in
  let record =
    frequency
      [
        (1, map (fun t -> Wal.Begin t) tid);
        (8, map2 (fun t o -> Wal.Operation (t, o)) tid op);
        (3, map (fun t -> Wal.Commit t) tid);
        (1, map (fun t -> Wal.Abort t) tid);
        (1, map (fun t -> Wal.Prepare t) tid);
        (1, map2 (fun t commit -> Wal.Decision { tid = t; commit }) tid bool);
        ( 1,
          map3
            (fun committed live next_tid -> Wal.Checkpoint { Wal.committed; live; next_tid })
            (list_size (int_bound 30) op)
            (list_size (int_bound 4) (pair tid (list_size (int_bound 4) op)))
            (int_bound 30) );
      ]
  in
  let framed =
    map2
      (fun r v -> ((if v = Codec.v1 && Codec.v2_only_record r then Codec.v3 else v), r))
      record (oneofl Codec.supported_versions)
  in
  let no_checkpoint = function _, Wal.Checkpoint _ -> false | _ -> true in
  map2
    (fun framed long ->
      let bytes = encode_framed framed in
      let more = encode_framed (List.filter no_checkpoint framed) in
      if (not long) || more = "" then bytes
      else
        String.concat ""
          (bytes :: List.init ((cache_floor / String.length more) + 1) (fun _ -> more)))
    (list_size (int_bound 80) framed)
    (frequency [ (2, pure false); (1, pure true) ])

let prop_load_steps_frames =
  Helpers.qcheck ~count:300 "load's frame step = record step" replay_log_gen (fun bytes ->
      match load_vs_records bytes with
      | None -> true
      | Some view ->
          QCheck2.Test.fail_reportf "a %d-byte log loads to another %s" (String.length bytes) view)

let test_golden_logs_load_as_records () =
  let dir = Filename.concat "golden" "logs" in
  let logs = List.filter (fun f -> Filename.check_suffix f ".wal") (Array.to_list (Sys.readdir dir)) in
  Helpers.check_bool "golden logs found" true (logs <> []);
  List.iter
    (fun file ->
      let ic = open_in_bin (Filename.concat dir file) in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match load_vs_records bytes with
      | None -> ()
      | Some view -> Alcotest.failf "%s loads to another %s" file view)
    (List.sort compare logs)

(* A load pays for what the replay state keeps.  [n] transfers between
   64 accounts, each of its two operations carrying an amount of 1 to 97
   so that few of them repeat, with a checkpoint after the first half:
   the pass from the checkpoint on is over 64 KB, so it has a decode
   cache.  A load builds no [Operation] or [Commit] record and no list
   of the checkpoint's committed operations, and shares the object and
   operation names of the operations it builds: 39.4 words per
   transaction.  A load that decodes each frame into a record and steps
   that reads 46.4, and one whose cache shares no names 50.3; the pin
   allows 42. *)
let test_load_allocates_its_state () =
  let n = 2000 in
  let transfer i =
    let t = Tid.of_int i in
    let acct k = Fmt.str "account-%04d" (((i * 7) + (k * 13)) mod 64) in
    let amount = 1 + (i mod 97) in
    [
      Wal.Operation (t, { (BA.withdraw_ok amount) with Op.obj = acct 0 });
      Wal.Operation (t, { (BA.deposit amount) with Op.obj = acct 1 });
      Wal.Commit t;
    ]
  in
  let txns from k = List.concat (List.init k (fun i -> transfer (from + i))) in
  let prefix = txns 0 (n / 2) in
  let cp = Wal.Checkpoint (Wal.checkpoint_of ~next_tid:0 (Wal.of_records prefix)) in
  let bytes = Codec.encode_all (prefix @ (cp :: txns (n / 2) (n / 2))) in
  let tail = String.length bytes - String.length (Codec.encode_all prefix) in
  Helpers.check_bool "the pass from the checkpoint has a cache" true (tail >= cache_floor);
  let load () =
    match Disk_wal.load (Storage.of_string bytes) with
    | Ok dw -> dw
    | Error c -> Alcotest.failf "transfer log refused: %a" Codec.pp_corruption c
  in
  Helpers.check_bool "the load steps to the records' state" true (load_vs_records bytes = None);
  let per_txn = minor_words load /. float_of_int n in
  if per_txn > 42. then Alcotest.failf "a load allocated %.2f words per transaction (max 42)" per_txn

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
    Alcotest.test_case "negative tid refused at its offset" `Quick
      test_disk_wal_negative_tid_refused;
    Alcotest.test_case "checkpoint truncate compacts backend" `Quick
      test_disk_wal_truncate_to_checkpoint;
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
    Alcotest.test_case "failed append leaves the log unchanged" `Quick
      test_failed_append_leaves_log_unchanged;
    Alcotest.test_case "disk log keeps replay state, not records" `Quick
      test_disk_wal_keeps_replay_state_only;
    prop_encode_matches_reference;
    prop_crc_matches_reference;
    prop_verify_checks_as_decode;
    prop_verify_mark_is_decode_mark;
    Alcotest.test_case "the counting writer never stands in for a real one" `Quick
      test_counting_writer_sizes_and_refuses_short;
    prop_varint;
    Alcotest.test_case "crc32 known answer" `Quick test_crc_known_answer;
    prop_embedded_frame_bound;
    Alcotest.test_case "crc32 allocates only its result" `Quick test_crc_allocates_nothing;
    Alcotest.test_case "encode allocates only its frame" `Quick
      test_encode_allocates_its_frame;
    Alcotest.test_case "decode_all allocates about its records" `Quick
      test_decode_allocates_its_records;
    Alcotest.test_case "a disk log append allocates only its record" `Quick
      test_disk_wal_append_allocates_its_record;
    Alcotest.test_case "verifying a log allocates nothing per frame" `Quick
      test_verify_allocates_nothing_per_frame;
    Alcotest.test_case "a load skips the prefix its checkpoint supersedes" `Quick
      test_load_skips_superseded_prefix;
    Alcotest.test_case "a disk log force allocates nothing" `Quick
      test_force_allocates_nothing;
    Alcotest.test_case "a sharded transfer allocates its shard's work" `Quick
      test_sharded_transfer_allocation;
    Alcotest.test_case "a one-shard transfer writes at most 80 log bytes" `Quick
      test_transfer_log_bytes;
    Alcotest.test_case "a cross-shard commit allocates no closures" `Quick
      test_cross_shard_commit_allocation;
    Alcotest.test_case "Database.try_commit allocates only its objects' commits" `Quick
      test_database_commit_allocation;
    Alcotest.test_case "decoding shares repeated operations" `Quick
      test_decode_shares_repeats;
    Alcotest.test_case "the decode cache keys on the integer width" `Quick
      test_decode_cache_keys_width;
    prop_roundtrip_under_eviction;
    Alcotest.test_case "a decode-cache miss allocates nothing extra" `Quick
      test_decode_miss_costs_nothing_extra;
    Alcotest.test_case "a decode cache without hits stands idle" `Quick
      test_decode_cache_idles_without_hits;
    Alcotest.test_case "object names idle without hits" `Quick test_decode_names_idle_without_hits;
    Alcotest.test_case "decode_frame allocates no table" `Quick
      test_decode_frame_allocates_no_table;
    prop_load_steps_frames;
    Alcotest.test_case "every golden log loads to its records' state" `Quick
      test_golden_logs_load_as_records;
    Alcotest.test_case "a load allocates the state it keeps" `Quick
      test_load_allocates_its_state;
  ]
