(* Forensic log inspection: everything that can be said about an
   on-disk log's bytes WITHOUT replaying them.  The walk is the
   loader's own ({!Disk_wal.load}): {!Wal.Codec.verify_frames} gives
   the damage verdict — torn tail (dropped as crash loss) vs interior
   corruption (refused) — and {!Wal.Codec.decode_verified} the records
   of the intact prefix, each at its byte offset, so what walinspect
   prints is what a restart will do. *)

open Tm_core
module Json = Tm_obs.Json

type kind_stat = { count : int; bytes : int }

type checkpoint_info = {
  cp_lsn : int;  (* 1-based record position in the decoded log *)
  cp_offset : int;  (* byte offset of its frame *)
  cp_committed_ops : int;
  cp_live : (Tid.t * int) list;  (* live txn -> ops carried in the snapshot *)
  cp_next_tid : int;
}

type damage =
  | Clean
  | Torn_tail of Wal.Codec.corruption
  | Interior of Wal.Codec.corruption

type t = {
  total_bytes : int;
  clean_bytes : int;
  records : int;
  by_kind : (string * kind_stat) list;  (* fixed kind order, zeros included *)
  by_version : (int * int) list;  (* frame-format version -> frame count *)
  by_shard : (int * int) list;  (* frame shard id -> frame count (v1 = 0) *)
  foreign_version : (int * int) option;  (* first foreign frame: offset, version *)
  lsn_range : (int * int) option;  (* 1-based positions, None when empty *)
  tids_seen : int;
  committed_txns : int;
  aborted_txns : int;
  max_tid : Tid.t option;
  checkpoints : checkpoint_info list;
  records_after_last_checkpoint : int;
  damage : damage;
}

let kinds =
  [
    "begin";
    "operation";
    "commit";
    "abort";
    "checkpoint";
    "truncate_intent";
    "prepare";
    "decision";
  ]

(* One intact frame: its record, byte extent and header fields. *)
type frame = {
  record : Wal.record;
  offset : int;
  size : int;  (* frame bytes incl. header *)
  version : int;
  shard : int;  (* 0 for v1 frames *)
}

(* The frames of the intact prefix in log order, its length and the
   damage verdict, walked as {!Disk_wal.load} walks them.  A frame's
   version is its header's third byte and a v2 frame's shard the u16
   after it (docs/WAL_FORMAT.md). *)
let walk bytes =
  let clean_bytes, damage =
    match Wal.Codec.verify_frames (fun _ _ _ -> ()) bytes with
    | Ok (n, None) -> (n, Clean)
    | Ok (n, Some c) -> (n, Torn_tail c)
    | Error c -> (c.Wal.Codec.offset, Interior c)
  in
  let rev = ref [] in
  Wal.Codec.decode_verified (fun pos r -> rev := (pos, r) :: !rev) bytes ~from:0 ~upto:clean_bytes;
  let frames, _ =
    List.fold_left
      (fun (acc, next) (offset, record) ->
        let version = Char.code bytes.[offset + 2] in
        let shard = if version = Wal.Codec.v1 then 0 else String.get_uint16_le bytes (offset + 3) in
        ({ record; offset; size = next - offset; version; shard } :: acc, offset))
      ([], clean_bytes) !rev
  in
  (frames, clean_bytes, damage)

let inspect bytes =
  let framed, clean_bytes, damage = walk bytes in
  (* Per-frame histograms (key, frame count), ascending: format
     versions, so mixed-version logs — v1 frames persisted by an older
     binary with v2 appends after them — are visible, and shards. *)
  let histogram key =
    let tbl = Hashtbl.create 4 in
    let bump k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
    List.iter (fun f -> bump (key f)) framed;
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
  in
  (* A frame whose header is intact up to a version byte this binary
     does not support: report exactly where and what, instead of a bare
     decode failure. *)
  let foreign_version =
    match damage with
    | Clean -> None
    | Torn_tail c | Interior c -> (
        match c.Wal.Codec.version with
        | Some v when not (Wal.Codec.is_supported v) ->
            Some (c.Wal.Codec.offset, v)
        | _ -> None)
  in
  let by_kind =
    let stat k s f =
      if Wal.record_kind f.record = k then { count = s.count + 1; bytes = s.bytes + f.size } else s
    in
    List.map (fun k -> (k, List.fold_left (stat k) { count = 0; bytes = 0 } framed)) kinds
  in
  let seen = Hashtbl.create 16 in
  let committed = Hashtbl.create 16 in
  let aborted = Hashtbl.create 16 in
  let note_tid tid = Hashtbl.replace seen tid () in
  List.iter
    (fun f ->
      match f.record with
      | Wal.Begin tid -> note_tid tid
      | Wal.Operation (tid, _) -> note_tid tid
      | Wal.Commit tid ->
          note_tid tid;
          Hashtbl.replace committed tid ()
      | Wal.Abort tid ->
          note_tid tid;
          Hashtbl.replace aborted tid ()
      | Wal.Checkpoint cp -> List.iter (fun (tid, _) -> note_tid tid) cp.Wal.live
      | Wal.Truncate_intent _ -> ()
      | Wal.Prepare tid -> note_tid tid
      | Wal.Decision { tid; _ } -> note_tid tid)
    framed;
  let checkpoints =
    List.mapi (fun i f -> (i + 1, f)) framed
    |> List.filter_map (fun (lsn, f) ->
           match f.record with
           | Wal.Checkpoint cp ->
               Some
                 {
                   cp_lsn = lsn;
                   cp_offset = f.offset;
                   cp_committed_ops = List.length cp.Wal.committed;
                   cp_live =
                     List.map
                       (fun (tid, ops) -> (tid, List.length ops))
                       cp.Wal.live;
                   cp_next_tid = cp.Wal.next_tid;
                 }
           | _ -> None)
  in
  let records = List.length framed in
  let records_after_last_checkpoint =
    match List.rev checkpoints with
    | [] -> records
    | last :: _ -> records - last.cp_lsn
  in
  {
    total_bytes = String.length bytes;
    clean_bytes;
    records;
    by_kind;
    by_version = histogram (fun f -> f.version);
    by_shard = histogram (fun f -> f.shard);
    foreign_version;
    lsn_range = (if records = 0 then None else Some (1, records));
    tids_seen = Hashtbl.length seen;
    committed_txns = Hashtbl.length committed;
    aborted_txns = Hashtbl.length aborted;
    max_tid = Wal.max_tid (List.map (fun f -> f.record) framed);
    checkpoints;
    records_after_last_checkpoint;
    damage;
  }

let select_shard bytes shard =
  let framed, _, _ = walk bytes in
  let buf = Buffer.create (String.length bytes) in
  List.iter
    (fun f -> if f.shard = shard then Buffer.add_substring buf bytes f.offset f.size)
    framed;
  Buffer.contents buf

let damage_kind = function
  | Clean -> "clean"
  | Torn_tail _ -> "torn_tail"
  | Interior _ -> "interior_corruption"

(* ------------------------------------------------------------------ *)
(* 2PC forensics                                                       *)

type tp_prepare = {
  tpp_tid : Tid.t;
  tpp_offset : int;  (* byte offset of the first Prepare frame *)
  tpp_commit : bool;
  tpp_evidence : string;
}

type tp_shard = {
  tp_shard : int;
  tp_prepares : int;
  tp_decisions : int;
  tp_completions : int;
  tp_in_doubt : tp_prepare list;
}

let two_phase bytes =
  (* Damaged tails dropped, as recovery would. *)
  let framed, _, _ = walk bytes in
  let max_shard = List.fold_left (fun m f -> max m f.shard) 0 framed in
  let n = max_shard + 1 in
  let logs = Array.make n [] in
  let present = Array.make n false in
  (* First-Prepare byte offset per (shard, tid): the address walinspect
     reports for an in-doubt vote. *)
  let prep_offset : (int * Tid.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { record = r; offset = off; shard = s; _ } ->
      present.(s) <- true;
      logs.(s) <- r :: logs.(s);
      match r with
      | Wal.Prepare tid ->
          if not (Hashtbl.mem prep_offset (s, tid)) then
            Hashtbl.add prep_offset (s, tid) off
      | _ -> ())
    framed;
  let logs = Array.map List.rev logs in
  let events = Two_phase.resolution_events (Two_phase.analyze logs) in
  List.filter_map
    (fun s ->
      if not (present.(s)) then None
      else begin
        let count p = List.length (List.filter p logs.(s)) in
        let ever = Hashtbl.create 8 in
        List.iter
          (function Wal.Prepare tid -> Hashtbl.replace ever tid () | _ -> ())
          logs.(s);
        Some
          {
            tp_shard = s;
            tp_prepares = count (function Wal.Prepare _ -> true | _ -> false);
            tp_decisions = count (function Wal.Decision _ -> true | _ -> false);
            tp_completions =
              count (function
                | Wal.Commit tid | Wal.Abort tid -> Hashtbl.mem ever tid
                | _ -> false);
            tp_in_doubt =
              List.filter_map
                (fun (ev : Two_phase.resolution_event) ->
                  if ev.ev_shard <> s then None
                  else
                    Some
                      {
                        tpp_tid = ev.ev_tid;
                        (* an in-doubt tid was prepared here *)
                        tpp_offset = Hashtbl.find prep_offset (s, ev.ev_tid);
                        tpp_commit = ev.ev_commit;
                        tpp_evidence = Two_phase.evidence_name ev.ev_evidence;
                      })
                events;
          }
      end)
    (List.init n (fun s -> s))

let pp_two_phase ppf shards =
  if shards = [] then Fmt.pf ppf "two-phase: no intact frames@."
  else begin
    Fmt.pf ppf "%-6s %9s %10s %12s %9s@." "shard" "prepares" "decisions"
      "completions" "in-doubt";
    List.iter
      (fun tp ->
        Fmt.pf ppf "%-6d %9d %10d %12d %9d@." tp.tp_shard tp.tp_prepares
          tp.tp_decisions tp.tp_completions
          (List.length tp.tp_in_doubt))
      shards;
    let in_doubt =
      List.concat_map (fun tp -> List.map (fun p -> (tp.tp_shard, p)) tp.tp_in_doubt) shards
    in
    if in_doubt = [] then
      Fmt.pf ppf "no prepares in doubt: every vote has a local outcome@."
    else begin
      Fmt.pf ppf "in-doubt prepares (what recovery will append):@.";
      List.iter
        (fun (s, p) ->
          Fmt.pf ppf "  shard %d: %a prepared @@ byte %d -> %s (evidence: %s)@."
            s Tid.pp p.tpp_tid p.tpp_offset
            (if p.tpp_commit then "commit" else "abort")
            p.tpp_evidence)
        in_doubt
    end
  end

let two_phase_to_json shards =
  Json.List
    (List.map
       (fun tp ->
         Json.Obj
           [
             ("shard", Json.Int tp.tp_shard);
             ("prepares", Json.Int tp.tp_prepares);
             ("decisions", Json.Int tp.tp_decisions);
             ("completions", Json.Int tp.tp_completions);
             ( "in_doubt",
               Json.List
                 (List.map
                    (fun p ->
                      Json.Obj
                        [
                          ("tid", Json.Int (Tid.to_int p.tpp_tid));
                          ("offset", Json.Int p.tpp_offset);
                          ( "outcome",
                            Json.Str (if p.tpp_commit then "commit" else "abort")
                          );
                          ("evidence", Json.Str p.tpp_evidence);
                        ])
                    tp.tp_in_doubt) );
           ])
       shards)

let pp ppf t =
  Fmt.pf ppf "log: %d bytes, %d intact, %d records@." t.total_bytes
    t.clean_bytes t.records;
  (match t.lsn_range with
  | None -> Fmt.pf ppf "lsn range: (empty)@."
  | Some (lo, hi) -> Fmt.pf ppf "lsn range: %d..%d@." lo hi);
  Fmt.pf ppf "records by kind:@.";
  List.iter
    (fun (k, s) ->
      if s.count > 0 then Fmt.pf ppf "  %-10s %8d  %10d bytes@." k s.count s.bytes)
    t.by_kind;
  (match t.by_version with
  | [] -> ()
  | vs ->
      Fmt.pf ppf "frame versions:%a  (writes are v%d)@."
        (fun ppf -> List.iter (fun (v, n) -> Fmt.pf ppf " v%d x %d" v n))
        vs Wal.Codec.write_version);
  (match t.by_shard with
  | [] | [ (0, _) ] -> ()  (* unsharded logs stay quiet *)
  | ss ->
      Fmt.pf ppf "frame shards:%a@."
        (fun ppf -> List.iter (fun (s, n) -> Fmt.pf ppf " shard %d x %d" s n))
        ss);
  (match t.foreign_version with
  | None -> ()
  | Some (off, v) ->
      Fmt.pf ppf
        "first foreign-version frame: byte %d carries format version %d \
         (this binary reads%a)@."
        off v
        (fun ppf -> List.iter (Fmt.pf ppf " v%d"))
        Wal.Codec.supported_versions);
  Fmt.pf ppf "transactions: %d seen, %d committed, %d aborted%a@." t.tids_seen
    t.committed_txns t.aborted_txns
    (fun ppf -> function
      | None -> ()
      | Some m -> Fmt.pf ppf ", max tid %a" Tid.pp m)
    t.max_tid;
  (match t.checkpoints with
  | [] -> Fmt.pf ppf "checkpoints: none@."
  | cps ->
      Fmt.pf ppf "checkpoints: %d@." (List.length cps);
      List.iter
        (fun cp ->
          Fmt.pf ppf
            "  lsn %d @@ byte %d: %d committed ops, next tid %d, live:%a@."
            cp.cp_lsn cp.cp_offset cp.cp_committed_ops cp.cp_next_tid
            (fun ppf -> function
              | [] -> Fmt.pf ppf " (none)"
              | live ->
                  List.iter
                    (fun (tid, n) -> Fmt.pf ppf " %a(%d ops)" Tid.pp tid n)
                    live)
            cp.cp_live)
        cps);
  Fmt.pf ppf "records after last checkpoint: %d@."
    t.records_after_last_checkpoint;
  match t.damage with
  | Clean -> Fmt.pf ppf "damage: none (clean tail)@."
  | Torn_tail c ->
      Fmt.pf ppf
        "damage: torn tail at %a — %d trailing bytes will be dropped as \
         crash loss@."
        Wal.Codec.pp_corruption c (t.total_bytes - t.clean_bytes)
  | Interior c ->
      Fmt.pf ppf
        "damage: INTERIOR CORRUPTION at %a — intact frames follow the \
         damage; recovery will refuse this log@."
        Wal.Codec.pp_corruption c

let replay_digest bytes =
  match Wal.Codec.decode_all bytes with
  | Error c -> Error c
  | Ok { Wal.Codec.records; _ } ->
      let committed, losers = Wal.replay records in
      let buf = Buffer.create 256 in
      List.iter
        (fun op -> Buffer.add_string buf (Fmt.str "%a\n" Op.pp op))
        committed;
      Buffer.add_string buf
        (Fmt.str "losers:%a\n"
           Fmt.(list ~sep:comma Tid.pp)
           (Tid.Set.elements losers));
      Ok (Digest.to_hex (Digest.string (Buffer.contents buf)))

let to_json t =
  let corruption_json (c : Wal.Codec.corruption) =
    Json.Obj
      ([ ("offset", Json.Int c.Wal.Codec.offset) ]
      @ (match c.Wal.Codec.version with
        | None -> []
        | Some v -> [ ("version", Json.Int v) ])
      @ [ ("reason", Json.Str c.Wal.Codec.reason) ])
  in
  Json.Obj
    [
      ("total_bytes", Json.Int t.total_bytes);
      ("clean_bytes", Json.Int t.clean_bytes);
      ("records", Json.Int t.records);
      ( "by_kind",
        Json.Obj
          (List.map
             (fun (k, s) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.Int s.count); ("bytes", Json.Int s.bytes) ]
               ))
             t.by_kind) );
      ( "by_version",
        Json.Obj
          (List.map
             (fun (v, n) -> (string_of_int v, Json.Int n))
             t.by_version) );
      ( "by_shard",
        Json.Obj
          (List.map (fun (s, n) -> (string_of_int s, Json.Int n)) t.by_shard) );
      ( "foreign_version",
        match t.foreign_version with
        | None -> Json.Null
        | Some (off, v) ->
            Json.Obj [ ("offset", Json.Int off); ("version", Json.Int v) ] );
      ( "lsn_range",
        match t.lsn_range with
        | None -> Json.Null
        | Some (lo, hi) -> Json.List [ Json.Int lo; Json.Int hi ] );
      ("tids_seen", Json.Int t.tids_seen);
      ("committed_txns", Json.Int t.committed_txns);
      ("aborted_txns", Json.Int t.aborted_txns);
      ( "max_tid",
        match t.max_tid with
        | None -> Json.Null
        | Some m -> Json.Int (Tid.to_int m) );
      ( "checkpoints",
        Json.List
          (List.map
             (fun cp ->
               Json.Obj
                 [
                   ("lsn", Json.Int cp.cp_lsn);
                   ("offset", Json.Int cp.cp_offset);
                   ("committed_ops", Json.Int cp.cp_committed_ops);
                   ( "live",
                     Json.List
                       (List.map
                          (fun (tid, n) ->
                            Json.Obj
                              [
                                ("tid", Json.Int (Tid.to_int tid));
                                ("ops", Json.Int n);
                              ])
                          cp.cp_live) );
                   ("next_tid", Json.Int cp.cp_next_tid);
                 ])
             t.checkpoints) );
      ( "records_after_last_checkpoint",
        Json.Int t.records_after_last_checkpoint );
      ( "damage",
        match t.damage with
        | Clean -> Json.Obj [ ("kind", Json.Str "clean") ]
        | Torn_tail c ->
            Json.Obj
              [ ("kind", Json.Str "torn_tail"); ("at", corruption_json c) ]
        | Interior c ->
            Json.Obj
              [
                ("kind", Json.Str "interior_corruption");
                ("at", corruption_json c);
              ] );
    ]
