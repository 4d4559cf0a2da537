(* Golden pinning of the on-disk WAL format.

   Two layers of freeze:

   - Frame goldens: test/golden/v<N>_<kind>.bin holds the exact frame
     bytes of one fixture record per record kind, per format version.
     Encoding must reproduce them byte for byte, and decoding them must
     yield the fixture record — any codec change that moves the wire
     format fails here until `make golden` regenerates the files (and
     the diff shows exactly which kinds/versions moved).

   - Harvested logs: test/golden/logs/*.wal are real v1 and v2 log
     images written by crashtest --keep-log --keep-log-version N (v1:
     one with a fuzzy checkpoint, one with a torn tail; v2: one with
     fuzzy checkpoints), and logs/DIGESTS records the replay digest each
     must recover to.  The current binary must keep replaying them to
     those digests — the migration contract.

   A missing golden file is written to the build sandbox and the test
   fails pointing at `make golden`, so bootstrapping a new record kind
   is one command, not hand-hexing. *)

module Wal = Tm_engine.Wal
module Codec = Tm_engine.Wal.Codec
module Wal_format = Tm_engine.Wal_format
module Wal_inspect = Tm_engine.Wal_inspect

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes)

let hex s =
  String.concat "" (List.map (fun c -> Fmt.str "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

let test_golden_frames version () =
  List.iter
    (fun (name, record) ->
      if not (Wal_format.fixture_supported ~version record) then begin
        (* A v2-only kind must refuse the old frame version outright —
           the absence of a v1 golden is contractual, not an oversight. *)
        match Codec.encode ~version record with
        | exception Invalid_argument _ -> ()
        | _ ->
            Alcotest.failf "%s encoded under v%d but is a v%d-only record kind"
              name version Codec.v2
      end
      else
      let file = Wal_format.golden_file ~version name in
      let path = Filename.concat "golden" file in
      let actual = Codec.encode ~version record in
      if not (Sys.file_exists path) then begin
        (try write_file path actual with Sys_error _ -> ());
        Alcotest.failf
          "golden file %s missing — run `make golden` and commit test/golden/"
          path
      end;
      let expected = read_file path in
      if not (String.equal expected actual) then
        Alcotest.failf
          "%s drifted:@.  golden %s@.  actual %s@.If the format change is \
           intentional, run `make golden` and update docs/WAL_FORMAT.md via \
           `make walformatdoc`."
          file (hex expected) (hex actual);
      (* and the frozen bytes decode back to the fixture record *)
      match Codec.decode_all expected with
      | Error c -> Alcotest.failf "%s does not decode: %a" file Codec.pp_corruption c
      | Ok d -> (
          match d.Codec.records with
          | [ r ] ->
              Helpers.check_bool (file ^ " decodes to the fixture") true
                (Wal.equal_record record r)
          | rs -> Alcotest.failf "%s decoded to %d records" file (List.length rs)))
    Wal_format.fixtures

(* Every record kind has a fixture — a new constructor cannot ship
   without entering the golden set. *)
let test_fixture_coverage () =
  let covered =
    List.sort_uniq String.compare
      (List.map (fun (_, r) -> Wal.record_kind r) Wal_format.fixtures)
  in
  Alcotest.(check (list string))
    "every record kind pinned"
    [
      "abort";
      "begin";
      "checkpoint";
      "commit";
      "decision";
      "operation";
      "prepare";
      "truncate_intent";
    ]
    covered

let digests_path = Filename.concat (Filename.concat "golden" "logs") "DIGESTS"

let read_digests () =
  if not (Sys.file_exists digests_path) then
    Alcotest.failf
      "%s missing — harvest v1 logs with `dune exec bin/crashtest.exe -- \
       --keep-log FILE --keep-log-version 1` and record their `walinspect \
       --digest` output"
      digests_path;
  let lines =
    String.split_on_char '\n' (read_file digests_path)
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None
           else
             match String.index_opt l ' ' with
             | Some i ->
                 Some
                   ( String.sub l 0 i,
                     String.trim (String.sub l (i + 1) (String.length l - i - 1))
                   )
             | None -> Alcotest.failf "malformed DIGESTS line: %S" l)
  in
  if lines = [] then Alcotest.fail "DIGESTS is empty";
  lines

(* The checked-in logs of one format version ([v<N>_*.wal]) replay,
   under this binary, to the recorded recovered-state digests —
   bit-for-bit read compatibility, including across a torn tail. *)
let test_harvested_logs version () =
  let prefix = Fmt.str "v%d_" version in
  let logs = List.filter (fun (file, _) -> String.starts_with ~prefix file) (read_digests ()) in
  if logs = [] then Alcotest.failf "DIGESTS names no %s*.wal log" prefix;
  List.iter
    (fun (file, expected) ->
      let path = Filename.concat (Filename.concat "golden" "logs") file in
      if not (Sys.file_exists path) then
        Alcotest.failf "%s named in DIGESTS but missing" path;
      let bytes = read_file path in
      (* every readable frame must be of the version the name gives *)
      let s = Wal_inspect.inspect bytes in
      List.iter
        (fun (v, _) ->
          Helpers.check_int (Fmt.str "%s frames are v%d" file version) version v)
        s.Wal_inspect.by_version;
      match Wal_inspect.replay_digest bytes with
      | Error c -> Alcotest.failf "%s refused: %a" file Codec.pp_corruption c
      | Ok actual ->
          Alcotest.(check string)
            (file ^ " replays to its recorded digest")
            expected actual)
    logs

let suite =
  List.map
    (fun version ->
      Alcotest.test_case
        (Fmt.str "v%d frame goldens" version)
        `Quick
        (test_golden_frames version))
    Wal_format.versions
  @ [
      Alcotest.test_case "every record kind has a golden fixture" `Quick
        test_fixture_coverage;
      Alcotest.test_case "harvested v1 logs replay to recorded digests" `Quick
        (test_harvested_logs Codec.v1);
      Alcotest.test_case "harvested v2 logs replay to recorded digests" `Quick
        (test_harvested_logs Codec.v2);
    ]
