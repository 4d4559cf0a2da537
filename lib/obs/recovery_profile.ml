(* Restart profiler: where a recovery spends its time and what it
   processes.  One value accompanies one restart through the whole
   path — storage scan, frame decode, CRC verify, log scan, object
   replay — each layer charging its own phase.  Wall times come from an
   injectable clock so tests can drive the profile deterministically. *)

type phase =
  | Storage_scan
  | Frame_decode
  | Checksum_verify
  | Checkpoint_seed
  | Log_scan
  | Object_replay
  | Loser_undo

let all_phases =
  [
    Storage_scan;
    Frame_decode;
    Checksum_verify;
    Checkpoint_seed;
    Log_scan;
    Object_replay;
    Loser_undo;
  ]

let phase_name = function
  | Storage_scan -> "storage_scan"
  | Frame_decode -> "frame_decode"
  | Checksum_verify -> "checksum_verify"
  | Checkpoint_seed -> "checkpoint_seed"
  | Log_scan -> "log_scan"
  | Object_replay -> "object_replay"
  | Loser_undo -> "loser_undo"

let phase_index = function
  | Storage_scan -> 0
  | Frame_decode -> 1
  | Checksum_verify -> 2
  | Checkpoint_seed -> 3
  | Log_scan -> 4
  | Object_replay -> 5
  | Loser_undo -> 6

let n_phases = List.length all_phases

type t = {
  clock : unit -> float;
  wall : float array;  (* seconds charged to each phase *)
  calls : int array;
  mutable bytes_scanned : int;
  mutable torn_bytes : int;
  mutable frames_decoded : int;
  mutable records_scanned : int;
  mutable checkpoints_seen : int;
  mutable checkpoint_seed_ops : int;
  mutable replayed_ops : int;
  mutable loser_txns : int;
  per_object : (string, int) Hashtbl.t;  (* obj -> committed ops re-applied *)
  started : float;
  mutable total : float option;  (* end-to-end wall, stamped by [finish] *)
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    clock;
    wall = Array.make n_phases 0.0;
    calls = Array.make n_phases 0;
    bytes_scanned = 0;
    torn_bytes = 0;
    frames_decoded = 0;
    records_scanned = 0;
    checkpoints_seen = 0;
    checkpoint_seed_ops = 0;
    replayed_ops = 0;
    loser_txns = 0;
    per_object = Hashtbl.create 8;
    started = clock ();
    total = None;
  }

let phase_wall t ph = t.wall.(phase_index ph)
let phase_calls t ph = t.calls.(phase_index ph)

let add_wall t ph secs =
  let i = phase_index ph in
  t.wall.(i) <- t.wall.(i) +. Float.max 0.0 secs;
  t.calls.(i) <- t.calls.(i) + 1

let time t ph f =
  let t0 = t.clock () in
  Fun.protect ~finally:(fun () -> add_wall t ph (t.clock () -. t0)) f

(* Charge the elapsed time minus whatever [minus] accumulated inside [f]:
   how nested phases stay non-overlapping (a log scan's checkpoint-seed
   time is the checkpoint's, not the scan's), so the per-phase walls tile
   the restart instead of double counting. *)
let time_excluding t ph ~minus f =
  let before = phase_wall t minus in
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      add_wall t ph (t.clock () -. t0 -. (phase_wall t minus -. before)))
    f

let note_bytes_scanned t n = t.bytes_scanned <- t.bytes_scanned + n
let note_torn_bytes t n = t.torn_bytes <- t.torn_bytes + n
let note_frame t = t.frames_decoded <- t.frames_decoded + 1
let note_records_scanned t n = t.records_scanned <- t.records_scanned + n

let note_checkpoint_seed t ~ops =
  t.checkpoints_seen <- t.checkpoints_seen + 1;
  t.checkpoint_seed_ops <- t.checkpoint_seed_ops + ops

let note_object_replay t ~obj n =
  t.replayed_ops <- t.replayed_ops + n;
  Hashtbl.replace t.per_object obj
    (n + Option.value (Hashtbl.find_opt t.per_object obj) ~default:0)

let note_losers t n = t.loser_txns <- t.loser_txns + n

let finish t = t.total <- Some (t.clock () -. t.started)

let bytes_scanned t = t.bytes_scanned
let torn_bytes t = t.torn_bytes
let frames_decoded t = t.frames_decoded
let records_scanned t = t.records_scanned
let checkpoints_seen t = t.checkpoints_seen
let checkpoint_seed_ops t = t.checkpoint_seed_ops
let replayed_ops t = t.replayed_ops
let loser_txns t = t.loser_txns

let per_object t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_object []
  |> List.sort compare

let phases_wall t = Array.fold_left ( +. ) 0.0 t.wall

let total_wall t =
  match t.total with Some s -> s | None -> phases_wall t

(* ------------------------------------------------------------------ *)
(* Exports: metrics, trace-span payloads, text, JSON.                  *)

let export t reg =
  List.iter
    (fun ph ->
      let labels = [ ("phase", phase_name ph) ] in
      Metrics.Gauge.set
        (Metrics.gauge reg "tm_recovery_phase_seconds" ~labels)
        (phase_wall t ph);
      Metrics.Counter.incr
        ~by:(phase_calls t ph)
        (Metrics.counter reg "tm_recovery_phase_calls_total" ~labels))
    all_phases;
  Metrics.Gauge.set (Metrics.gauge reg "tm_recovery_wall_seconds") (total_wall t);
  let count name v = Metrics.Counter.incr ~by:v (Metrics.counter reg name) in
  count "tm_recovery_bytes_scanned_total" t.bytes_scanned;
  count "tm_recovery_torn_bytes_total" t.torn_bytes;
  count "tm_recovery_frames_decoded_total" t.frames_decoded;
  count "tm_recovery_records_scanned_total" t.records_scanned;
  count "tm_recovery_checkpoints_seen_total" t.checkpoints_seen;
  count "tm_recovery_checkpoint_seed_ops_total" t.checkpoint_seed_ops;
  List.iter
    (fun (obj, n) ->
      Metrics.Counter.incr ~by:n
        (Metrics.counter reg "tm_recovery_object_replayed_ops_total"
           ~labels:[ ("obj", obj) ]))
    (per_object t)

(* Each phase as a trace-span payload: the phase name, its wall time in
   microseconds, and the item count most characteristic of the phase. *)
let span_items t = function
  | Storage_scan -> t.bytes_scanned
  | Frame_decode -> t.frames_decoded
  | Checksum_verify -> t.frames_decoded
  | Checkpoint_seed -> t.checkpoint_seed_ops
  | Log_scan -> t.records_scanned
  | Object_replay -> t.replayed_ops
  | Loser_undo -> t.loser_txns

let us secs = int_of_float (Float.round (secs *. 1e6))

let spans t =
  List.filter_map
    (fun ph ->
      let wall = phase_wall t ph and items = span_items t ph in
      if phase_calls t ph = 0 && items = 0 then None
      else Some (phase_name ph, us wall, items))
    all_phases

let pp ppf t =
  let total = total_wall t in
  Fmt.pf ppf "recovery profile: %.3f ms end-to-end@." (total *. 1e3);
  Fmt.pf ppf "  %-16s %10s %6s %10s@." "phase" "ms" "%" "items";
  List.iter
    (fun ph ->
      let w = phase_wall t ph in
      let pct = if total > 0.0 then 100.0 *. w /. total else 0.0 in
      Fmt.pf ppf "  %-16s %10.3f %5.1f%% %10d@." (phase_name ph) (w *. 1e3)
        pct (span_items t ph))
    all_phases;
  Fmt.pf ppf
    "  scanned %d bytes (%d torn), %d frames, %d records; %d checkpoints \
     (%d seed ops); replayed %d ops; %d losers@."
    t.bytes_scanned t.torn_bytes t.frames_decoded t.records_scanned
    t.checkpoints_seen t.checkpoint_seed_ops t.replayed_ops t.loser_txns;
  match per_object t with
  | [] -> ()
  | objs ->
      Fmt.pf ppf "  per object:%a@."
        Fmt.(list ~sep:nop (fun ppf (o, n) -> Fmt.pf ppf " %s=%d" o n))
        objs

let to_json t =
  Json.Obj
    [
      ("total_seconds", Json.Float (total_wall t));
      ( "phases",
        Json.Obj
          (List.map
             (fun ph ->
               ( phase_name ph,
                 Json.Obj
                   [
                     ("seconds", Json.Float (phase_wall t ph));
                     ("calls", Json.Int (phase_calls t ph));
                     ("items", Json.Int (span_items t ph));
                   ] ))
             all_phases) );
      ("bytes_scanned", Json.Int t.bytes_scanned);
      ("torn_bytes", Json.Int t.torn_bytes);
      ("frames_decoded", Json.Int t.frames_decoded);
      ("records_scanned", Json.Int t.records_scanned);
      ("checkpoints_seen", Json.Int t.checkpoints_seen);
      ("checkpoint_seed_ops", Json.Int t.checkpoint_seed_ops);
      ("replayed_ops", Json.Int t.replayed_ops);
      ("loser_txns", Json.Int t.loser_txns);
      ( "per_object",
        Json.Obj (List.map (fun (o, n) -> (o, Json.Int n)) (per_object t)) );
    ]
