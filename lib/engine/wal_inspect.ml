(* Forensic log inspection: everything that can be said about an
   on-disk log's bytes WITHOUT replaying them.  The walker decodes frame
   by frame ({!Wal.Codec.decode_frame}) so each record is attributed to
   its byte extent, and classifies damage exactly as recovery would —
   torn tail (dropped as crash loss) vs interior corruption (refused) —
   using the same resynchronisation scan, so what walinspect prints is
   what a restart will do. *)

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

let inspect bytes =
  let len = String.length bytes in
  (* Walk the frames, keeping each record's offset and size. *)
  let rec walk acc pos =
    if pos >= len then (List.rev acc, pos, Clean)
    else
      match Wal.Codec.decode_frame bytes pos with
      | Ok (r, next) -> walk ((r, pos, next - pos) :: acc) next
      | Error c ->
          if Wal.Codec.valid_frame_after bytes (pos + 1) then
            (List.rev acc, pos, Interior c)
          else (List.rev acc, pos, Torn_tail c)
  in
  let framed, clean_bytes, damage = walk [] 0 in
  (* Per-frame format-version histogram: each decoded frame's header is
     re-read (cheap, no CRC) so mixed-version logs — v1 frames persisted
     by an older binary with v2 appends after them — are visible. *)
  let by_version, by_shard =
    let vt = Hashtbl.create 4 in
    let st = Hashtbl.create 4 in
    let bump tbl k =
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    in
    List.iter
      (fun (_, pos, _) ->
        match Wal.Codec.read_header bytes pos with
        | Ok h ->
            bump vt h.Wal.Codec.h_version;
            bump st h.Wal.Codec.h_shard
        | Error _ -> ())
      framed;
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun v n acc -> (v, n) :: acc) tbl [])
    in
    (sorted vt, sorted st)
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
  let stat = Hashtbl.create 8 in
  List.iter
    (fun (r, _, size) ->
      let k = Wal.record_kind r in
      let s =
        Option.value (Hashtbl.find_opt stat k) ~default:{ count = 0; bytes = 0 }
      in
      Hashtbl.replace stat k { count = s.count + 1; bytes = s.bytes + size })
    framed;
  let by_kind =
    List.map
      (fun k ->
        ( k,
          Option.value (Hashtbl.find_opt stat k)
            ~default:{ count = 0; bytes = 0 } ))
      kinds
  in
  let seen = Hashtbl.create 16 in
  let committed = Hashtbl.create 16 in
  let aborted = Hashtbl.create 16 in
  let note_tid tid = Hashtbl.replace seen tid () in
  List.iter
    (fun (r, _, _) ->
      match r with
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
    List.mapi (fun i (r, off, _) -> (i + 1, r, off)) framed
    |> List.filter_map (fun (lsn, r, off) ->
           match r with
           | Wal.Checkpoint cp ->
               Some
                 {
                   cp_lsn = lsn;
                   cp_offset = off;
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
    total_bytes = len;
    clean_bytes;
    records;
    by_kind;
    by_version;
    by_shard;
    foreign_version;
    lsn_range = (if records = 0 then None else Some (1, records));
    tids_seen = Hashtbl.length seen;
    committed_txns = Hashtbl.length committed;
    aborted_txns = Hashtbl.length aborted;
    max_tid = Wal.max_tid (List.map (fun (r, _, _) -> r) framed);
    checkpoints;
    records_after_last_checkpoint;
    damage;
  }

let select_shard bytes shard =
  let len = String.length bytes in
  let buf = Buffer.create len in
  let rec walk pos =
    if pos < len then
      match Wal.Codec.decode_frame bytes pos with
      | Ok (_, next) ->
          (match Wal.Codec.read_header bytes pos with
          | Ok h when h.Wal.Codec.h_shard = shard ->
              Buffer.add_string buf (String.sub bytes pos (next - pos))
          | _ -> ());
          walk next
      | Error _ -> ()
  in
  walk 0;
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
  let len = String.length bytes in
  (* (record, offset, shard) in log order; damaged tails dropped, as
     recovery would. *)
  let rec walk acc pos =
    if pos >= len then List.rev acc
    else
      match Wal.Codec.decode_frame bytes pos with
      | Ok (r, next) ->
          let shard =
            match Wal.Codec.read_header bytes pos with
            | Ok h -> h.Wal.Codec.h_shard
            | Error _ -> 0
          in
          walk ((r, pos, shard) :: acc) next
      | Error _ -> List.rev acc
  in
  let framed = walk [] 0 in
  let max_shard = List.fold_left (fun m (_, _, s) -> max m s) 0 framed in
  let n = max_shard + 1 in
  let logs = Array.make n [] in
  let present = Array.make n false in
  (* First-Prepare byte offset per (shard, tid): the address walinspect
     reports for an in-doubt vote. *)
  let prep_offset : (int * Tid.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r, off, s) ->
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
