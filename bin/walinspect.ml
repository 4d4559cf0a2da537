(* walinspect: forensics for an on-disk WAL image.

   Reads a log file's raw bytes and reports what recovery would see
   without running it: record-kind histogram with byte volumes, LSN
   range, checkpoint coverage (and the live-transaction set carried by
   each checkpoint), and the torn-tail / interior-corruption diagnosis
   with byte offsets.  The frames are walked by Disk_wal.load's own
   walk (Wal.Codec.verify_frames, then decode_verified over the intact
   prefix), not by a frame-at-a-time decode_frame loop, so the verdict
   printed here is the verdict a restart gets.

   --verify goes one step further: it loads the log through
   Disk_wal.load, which verifies every frame and folds the records from
   the last checkpoint on into the log's replay state, and reads the replay plan from it with Wal.plan_of — what a
   restart runs — under the restart profiler, and prints the per-phase
   profile.  No objects are rebuilt, so the object-replay
   phase stays empty.

   Exit status: 0 for a clean or torn-tail log (recovery proceeds),
   2 for interior corruption (recovery refuses), 1 on I/O errors. *)

module Wal = Tm_engine.Wal
module Wal_inspect = Tm_engine.Wal_inspect
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module Profile = Tm_obs.Recovery_profile
module Json = Tm_obs.Json

let verify_profile bytes json =
  let profile = Profile.create () in
  let storage = Storage.of_string bytes in
  match Disk_wal.load ~profile storage with
  | Error c ->
      Fmt.pr "verify: load refused: %a@." Wal.Codec.pp_corruption c;
      `Corrupt
  | Ok dw ->
      let plan = Wal.plan_of ~profile (Disk_wal.wal dw) in
      let losers = plan.Wal.plan_loser_tids in
      Profile.finish profile;
      if json then
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [
                  ("committed_ops", Json.Int plan.Wal.plan_ops);
                  ( "loser_txns",
                    Json.Int (Tm_core.Tid.Set.cardinal losers) );
                  ("profile", Profile.to_json profile);
                ]))
      else begin
        Fmt.pr "verify: replay ok — %d committed ops, %d loser txns@."
          plan.Wal.plan_ops
          (Tm_core.Tid.Set.cardinal losers);
        Fmt.pr "%a" Profile.pp profile
      end;
      `Ok

let main file json verify digest shard two_phase =
  let bytes = Cli_util.read_file file in
  (* --shard narrows every view (summary, digest, verify) to the frames
     stamped with that shard id — forensic slicing of a mixed-shard
     dump.  The damage verdict below still comes from the full bytes:
     filtering must never hide corruption. *)
  let full_summary = Wal_inspect.inspect bytes in
  let bytes =
    match shard with
    | None -> bytes
    | Some s -> Wal_inspect.select_shard bytes s
  in
  let summary =
    match shard with None -> full_summary | Some _ -> Wal_inspect.inspect bytes
  in
  (* --two-phase swaps the general summary for the 2PC view: per-shard
     prepare/decision/completion counts and every in-doubt prepare with
     its byte offset and the verdict recovery will reach for it. *)
  if two_phase then begin
    let tp = Wal_inspect.two_phase bytes in
    if json then Fmt.pr "%s@." (Json.to_string (Wal_inspect.two_phase_to_json tp))
    else Fmt.pr "%a" Wal_inspect.pp_two_phase tp
  end
  else if json && not verify then
    Fmt.pr "%s@." (Json.to_string (Wal_inspect.to_json summary))
  else if not verify then Fmt.pr "%a" Wal_inspect.pp summary;
  (* The digest pins the recovered state these bytes replay to; the
     harvest workflow records it next to checked-in v1 logs so future
     binaries are held to it. *)
  if digest then begin
    match Wal_inspect.replay_digest bytes with
    | Ok d -> Fmt.pr "replay-digest %s@." d
    | Error c ->
        Fmt.epr "replay digest unavailable: %a@." Wal.Codec.pp_corruption c;
        exit 2
  end;
  let verify_status =
    if verify then verify_profile bytes json else `Skipped
  in
  match (full_summary.Wal_inspect.damage, verify_status) with
  | Wal_inspect.Interior _, _ | _, `Corrupt -> exit 2
  | _ -> ()

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"On-disk WAL image to inspect.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Additionally load the log (Disk_wal.load) and fold it into the \
           restart's replay plan (Wal.plan_of) under the restart profiler, and \
           print the per-phase profile.")

let digest_arg =
  Arg.(
    value & flag
    & info [ "digest" ]
        ~doc:
          "Print the replay digest — a stable hash of the recovered state \
           (committed operations + loser set) these bytes replay to.  The \
           harvest workflow records it next to checked-in old-format logs, \
           pinning their recovery outcome across format versions.")

let shard_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard" ] ~docv:"N"
        ~doc:
          "Restrict the summary (and --digest / --verify) to frames stamped \
           with shard id $(docv) — forensic slicing of a dump that mixes \
           several shards' frames.  v1 frames carry no shard id and count \
           as shard 0.  The damage verdict and exit status always reflect \
           the full, unfiltered bytes.")

let two_phase_arg =
  Arg.(
    value & flag
    & info [ "two-phase" ]
        ~doc:
          "Print the 2PC forensic view instead of the general summary: \
           per-shard counts of prepare/decision/completion records, plus \
           every in-doubt prepare (a vote with no later local outcome) \
           with its byte offset and the outcome recovery will append — \
           and the evidence (decision frame, surviving phase-2 record, \
           or the presumed-abort default) that outcome rests on.  \
           Composes with --shard and --json.")

let cmd =
  let doc = "forensics for an on-disk WAL image (no replay required)" in
  Cmd.v
    (Cmd.info "walinspect" ~doc)
    Term.(
      const main $ file_arg $ json_arg $ verify_arg $ digest_arg
      $ shard_arg $ two_phase_arg)

let () = exit (Cmd.eval cmd)
