(* The WAL wire-format contract in one place: deterministic fixture
   records covering every record kind, the golden frame set derived from
   them (checked into test/golden/ and compared byte-for-byte by the
   test suite), and the generated docs/WAL_FORMAT.md spec.  Everything
   here is a pure function of the codec, so the doc and the goldens can
   only change together with the code. *)

open Tm_core

let versions = Wal.Codec.supported_versions

(* --- fixtures ------------------------------------------------------ *)

let op ?(args = []) ?(res = Value.Unit) obj name =
  { Op.obj; inv = { Op.name; args }; res }

(* One fixture per record kind, plus a second operation exercising the
   nested value encodings (list/str/bool/unit).  These are frozen: the
   golden files pin their exact frame bytes, so editing a fixture is a
   format event, not a refactor. *)
let fixtures : (string * Wal.record) list =
  [
    ("begin", Wal.Begin (Tid.of_int 7));
    ( "operation",
      Wal.Operation
        ( Tid.of_int 7,
          op "acct" "deposit" ~args:[ Value.Int 25 ] ~res:(Value.Int 25) ) );
    ( "operation_rich",
      Wal.Operation
        ( Tid.of_int 8,
          op "queue" "enq"
            ~args:
              [
                Value.List [ Value.Str "x"; Value.Bool true; Value.Unit ];
                Value.Bool false;
              ]
            ~res:(Value.Str "ok") ) );
    ("commit", Wal.Commit (Tid.of_int 7));
    ("abort", Wal.Abort (Tid.of_int 9));
    ( "checkpoint",
      (* A fuzzy checkpoint mid-flight: a committed base, one live
         transaction carrying pre-checkpoint operations, one live
         transaction that has begun but logged nothing. *)
      Wal.Checkpoint
        {
          committed =
            [
              op "acct" "deposit" ~args:[ Value.Int 10 ] ~res:(Value.Int 10);
              op "acct" "withdraw" ~args:[ Value.Int 4 ] ~res:(Value.Bool true);
            ];
          live =
            [
              ( Tid.of_int 5,
                [ op "acct" "balance" ~res:(Value.Int 6) ] );
              (Tid.of_int 6, []);
            ];
          next_tid = 11;
        } );
    ("truncate_intent", Wal.Truncate_intent { old_len = 123; new_len = 45 });
    ("prepare", Wal.Prepare (Tid.of_int 12));
    ("decision", Wal.Decision { tid = Tid.of_int 12; commit = true });
    ("decision_abort", Wal.Decision { tid = Tid.of_int 13; commit = false });
  ]

(* Record kinds that postdate a frame version are absent from that
   version's golden set (encoding them there is an error by contract). *)
let fixture_supported ~version r =
  not (version = Wal.Codec.v1 && Wal.Codec.v2_only_record r)

let golden_file ~version name = Fmt.str "v%d_%s.bin" version name

let golden_frames ~version =
  List.filter_map
    (fun (name, r) ->
      if fixture_supported ~version r then
        Some (golden_file ~version name, Wal.Codec.encode ~version r)
      else None)
    fixtures

(* --- the generated spec ------------------------------------------- *)

let record_tags =
  [
    (0, "begin", "transaction id (int64)");
    (1, "operation", "transaction id, then an operation");
    (2, "commit", "transaction id");
    (3, "abort", "transaction id");
    ( 4,
      "checkpoint",
      "committed operations (list), live transactions (list of id + \
       operation list), next transaction id" );
    (5, "truncate_intent", "old log length, new log length (both int64)");
    (6, "prepare", "transaction id (v2 frames only)");
    ( 7,
      "decision",
      "transaction id, then one outcome byte (1 = commit, 0 = abort) (v2 \
       frames only)" );
  ]

let value_tags =
  [
    (0, "unit", "no body");
    (1, "bool false", "no body");
    (2, "bool true", "no body");
    (3, "int", "int64 LE");
    (4, "str", "length (int64 LE) + bytes");
    (5, "list", "count (int64 LE) + elements");
  ]

let to_markdown () =
  let b = Buffer.create 4096 in
  let pf fmt = Fmt.kstr (Buffer.add_string b) fmt in
  pf "# WAL on-disk format\n\n";
  pf
    "Generated by `bin/walformatdoc.exe` from `lib/engine/wal_format.ml` — \
     do not edit by hand (`make walformatdoc` regenerates, `make \
     walformatdoc-check` fails CI on drift).\n\n";
  pf
    "The write-ahead log is a flat sequence of self-delimiting frames, \
     one record per frame.  The frame header is versioned; the payload \
     encoding is identical across versions, so version negotiation is \
     purely per-frame header dispatch.\n\n";
  pf "Current write version: **v%d**.  Readable versions: %s.\n\n"
    Wal.Codec.write_version
    (String.concat ", "
       (List.map (fun v -> Fmt.str "v%d" v) Wal.Codec.supported_versions));
  pf "## Frame layouts\n\n";
  pf "All integers are little-endian.  The CRC-32 (IEEE 802.3, reflected \
      polynomial `0xEDB88320`) covers the payload bytes only.\n\n";
  pf "### v1 (header %d bytes)\n\n" (Wal.Codec.header_size Wal.Codec.v1);
  pf "| offset | size | field |\n|---|---|---|\n";
  pf "| 0 | 2 | magic `0x%02X 0x%02X` (`\\xd7W`) |\n"
    (Char.code Wal.Codec.magic0) (Char.code Wal.Codec.magic1);
  pf "| 2 | 1 | format version = `0x01` |\n";
  pf "| 3 | 4 | payload length |\n";
  pf "| 7 | 4 | CRC-32 of payload |\n";
  pf "| 11 | n | payload (record tag + body) |\n\n";
  pf "### v2 (header %d bytes)\n\n" (Wal.Codec.header_size Wal.Codec.v2);
  pf "| offset | size | field |\n|---|---|---|\n";
  pf "| 0 | 2 | magic `0x%02X 0x%02X` (`\\xd7W`) |\n"
    (Char.code Wal.Codec.magic0) (Char.code Wal.Codec.magic1);
  pf "| 2 | 1 | format version = `0x02` |\n";
  pf
    "| 3 | 2 | shard id (each shard of a partitioned engine stamps its \
     own; unsharded logs write 0; any value accepted on decode) |\n";
  pf "| 5 | 4 | payload length |\n";
  pf "| 9 | 4 | CRC-32 of payload |\n";
  pf "| 13 | n | payload (record tag + body) |\n\n";
  pf "## Version negotiation\n\n";
  pf
    "- Every reader dispatches per frame on the version byte \
     (`Wal.Codec.check_header`); a log may freely mix v1 and v2 frames \
     (v1 frames persisted by an older binary, v2 appends after them) \
     and replays to exactly the state the same records always replayed \
     to.\n";
  pf
    "- Writes always use v%d.  Appending to a loaded v1 log yields a \
     mixed-version log; the journaled checkpoint-truncation rewrite \
     (`Wal.truncate_to_checkpoint` on a `Disk_wal` log) upgrades it to pure v%d \
     crash-atomically — a crash at any byte of the rewrite leaves a \
     readable log that recovers the pre-upgrade state \
     (`Crash.rewrite ~from:v1` sweeps every such byte state).\n"
    Wal.Codec.write_version Wal.Codec.write_version;
  pf
    "- A frame carrying an unsupported version byte is a typed \
     corruption: the error reports the exact byte offset and the \
     foreign version (`walinspect` prints both).  New record kinds \
     arrive only under new frame versions, so an old binary refuses \
     them deterministically instead of misparsing — `prepare` (tag 6) \
     and `decision` (tag 7), the two-phase-commit records of the \
     sharded engine, travel only under v2 frames (`Wal.Codec.encode` \
     refuses to emit them as v1).\n";
  pf
    "- A failing frame with no intact frame after it is a torn tail \
     (dropped as crash loss); a failing frame followed by an intact one \
     is interior corruption (load refuses).\n\n";
  pf "## Record tags (payload byte 0)\n\n";
  pf "| tag | kind | body |\n|---|---|---|\n";
  List.iter (fun (t, k, body) -> pf "| %d | %s | %s |\n" t k body) record_tags;
  pf
    "\nOperations encode as: object name (str), operation name (str), \
     argument values (list), result value.  Strings and lists carry \
     int64 lengths; transaction ids are int64.\n\n";
  pf "## Value tags\n\n";
  pf "| tag | value | body |\n|---|---|---|\n";
  List.iter (fun (t, k, body) -> pf "| %d | %s | %s |\n" t k body) value_tags;
  pf "\n## Golden frames\n\n";
  pf
    "One golden file per record kind and version under `test/golden/` \
     (`make golden` regenerates; the test suite fails on any byte \
     drift).  Record kinds that postdate a frame version (the 2PC \
     records under v1) have no golden file for it.  Frame sizes and \
     payload CRCs double as a drift tripwire for this document \
     itself:\n\n";
  pf "| fixture | version | file | frame bytes | payload bytes | crc32 |\n";
  pf "|---|---|---|---|---|---|\n";
  List.iter
    (fun version ->
      List.iter
        (fun (name, r) ->
          if fixture_supported ~version r then begin
          let frame = Wal.Codec.encode ~version r in
          let payload_len =
            String.length frame - Wal.Codec.header_size version
          in
          let crc =
            Wal.Codec.crc32
              (String.sub frame
                 (Wal.Codec.header_size version)
                 payload_len)
          in
          pf "| %s | v%d | `%s` | %d | %d | `%08lx` |\n" name version
            (golden_file ~version name)
            (String.length frame) payload_len crc
          end)
        fixtures)
    versions;
  pf
    "\nHarvested v1 logs (`test/golden/logs/*.wal`, produced by \
     `crashtest --keep-log --keep-log-version 1`) are pinned by \
     recovered-state digest in `test/golden/logs/DIGESTS`: the suite \
     replays each under the current binary and compares digests, so v1 \
     read compatibility is checked against real logs, not just \
     fixtures.\n";
  Buffer.contents b
