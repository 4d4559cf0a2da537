module Metrics = Tm_obs.Metrics

type retry = {
  max_attempts : int;
  backoff : int -> unit;
}

let default_retry = { max_attempts = 8; backoff = (fun _ -> ()) }

exception Storage_unavailable of { attempts : int; last : string }

type t = {
  storage : Storage.t;
  wal : Wal.t;
  retry : retry;
  shard : int;  (* stamped into every v2 frame this log appends *)
  mutable end_off : int;  (* logical end: bytes of intact, persisted log *)
  mutable bytes_written : int;
  mutable retries : int;
  mutable metrics : Metrics.t option;
  mutable c_bytes : Metrics.counter option;  (* tm_wal_bytes_total, resolved on first frame *)
}

let wal t = t.wal
let storage t = t.storage
let shard t = t.shard
let bytes_written t = t.bytes_written
let retries t = t.retries

let count t name by =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.Counter.incr ~by (Metrics.counter reg name)

(* Run [f] through the retry budget.  A torn write persists a prefix,
   but every attempt rewrites from the same offset, so the torn bytes
   are overwritten rather than accumulated. *)
let with_retry t f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception Storage.Transient last ->
        if attempt >= t.retry.max_attempts then
          raise (Storage_unavailable { attempts = attempt; last })
        else begin
          t.retries <- t.retries + 1;
          count t "tm_storage_retries_total" 1;
          t.retry.backoff attempt;
          go (attempt + 1)
        end
  in
  go 1

let persist t record =
  let frame = Wal.Codec.encode ~shard:t.shard record in
  with_retry t (fun () -> Storage.write_at t.storage ~pos:t.end_off frame);
  t.end_off <- t.end_off + String.length frame;
  t.bytes_written <- t.bytes_written + String.length frame;
  match t.metrics with
  | None -> ()
  | Some reg ->
      let c =
        match t.c_bytes with
        | Some c -> c
        | None ->
            let c = Metrics.counter reg "tm_wal_bytes_total" in
            t.c_bytes <- Some c;
            c
      in
      Metrics.Counter.incr ~by:(String.length frame) c

let install_sink t =
  Wal.set_sink t.wal
    {
      Wal.sink_append = (fun r -> persist t r);
      sink_force = (fun () -> with_retry t (fun () -> Storage.force t.storage));
      sink_attach =
        (fun reg ->
          t.metrics <- Some reg;
          t.c_bytes <- None;
          Storage.attach_metrics t.storage reg);
    }

let make ?(retry = default_retry) ?(shard = 0) storage wal ~end_off =
  if shard < 0 || shard > 0xFFFF then
    invalid_arg (Fmt.str "Disk_wal: shard %d out of range" shard);
  let t =
    {
      storage;
      wal;
      retry;
      shard;
      end_off;
      bytes_written = 0;
      retries = 0;
      metrics = None;
      c_bytes = None;
    }
  in
  install_sink t;
  t

let create ?retry ?shard storage =
  let t = make ?retry ?shard storage (Wal.create ()) ~end_off:0 in
  (* A fresh log owns the backend from byte 0; stale contents (a
     previous incarnation's log) would otherwise replay after ours.
     The truncation is forced immediately: without the barrier a crash
     before this log's first commit flush could resurrect the stale
     log on reload. *)
  if Storage.size storage > 0 then begin
    with_retry t (fun () -> Storage.write_at storage ~pos:0 "");
    with_retry t (fun () -> Storage.force storage)
  end;
  t

(* ------------------------------------------------------------------ *)
(* Crash-atomic log compaction.

   [checkpoint_truncate] must replace the whole backend image with a
   shorter one, but {!Storage.write_at} is not atomic: the file backend
   writes the data and only then shrinks the file, and a crash between
   the two leaves intact stale frames beyond the new log — which reload
   would either misclassify as interior corruption or, frame-aligned,
   silently replay as pre-checkpoint records.

   The fix is a journal + redo protocol, every step of which is a plain
   forced write:

   {ol
   {- {b journal}: append a [Truncate_intent { old_len; new_len }]
      frame followed by the complete compacted image {e after} the live
      log (at [old_len]), and force.  The old log is untouched; a crash
      anywhere up to here leaves at worst a torn journal after an
      intact log, and reload rolls the compaction back (it never
      committed).}
   {- {b install}: write the image at position 0 — [write_at]'s
      trailing truncation removes the journal in the same call — and
      force.  The journal survives (before its own intent frame byte
      for byte, after it geometrically) until the shrink lands, so a
      crash anywhere inside the install finds the intent and {e redoes}
      the install from the journaled image.}}

   The intent frame is self-locating: it must sit exactly at
   [old_len] and the file must end exactly [new_len] bytes after it,
   which a torn journal write can never satisfy.  *)

type journal_state =
  | No_journal
  | Complete of { image : string }
  | Damaged of Wal.Codec.corruption

(* Locate a complete compaction journal in [bytes].  The scan anchors on
   the frame magic and pays for a decode only on an exact candidate:
   intent-sized payload, intent tag, and the self-locating geometry
   above.  At most one journal can exist (the install erases it and the
   image never contains an intent). *)
let find_journal bytes =
  let total = String.length bytes in
  (* tag byte + two 8-byte lengths *)
  let intent_payload = 17 in
  (* The smallest frame an intent can occupy (v1 header); an intent
     written by any supported version is at least this long. *)
  let min_intent_frame = Wal.Codec.min_header_size + intent_payload in
  (* An intent frame of either version: the header parses, the payload
     is intent-sized and the tag byte is the intent's.  [read_header]
     is the version dispatch, so a journal written by a v1 binary is
     found by a v2 one and vice versa. *)
  let plausible p =
    match Wal.Codec.read_header bytes p with
    | Error _ -> false
    | Ok h ->
        h.Wal.Codec.h_payload_len = intent_payload
        && bytes.[p + h.Wal.Codec.h_size] = '\005'
  in
  let rec scan pos =
    if pos + min_intent_frame > total then No_journal
    else
      match String.index_from_opt bytes pos Wal.Codec.magic0 with
      | None -> No_journal
      | Some p when not (plausible p) -> scan (p + 1)
      | Some p -> (
          match Wal.Codec.decode_frame bytes p with
          | Ok (Wal.Truncate_intent { old_len; new_len }, next)
            when p = old_len && next + new_len = total -> (
              (* The journal committed; its image must verify in full
                 before we are allowed to destroy the old log. *)
              let image = String.sub bytes next new_len in
              match Wal.Codec.decode_all image with
              | Ok { Wal.Codec.torn = None; clean_bytes; _ }
                when clean_bytes = new_len ->
                  Complete { image }
              | Ok _ ->
                  Damaged
                    {
                      Wal.Codec.offset = next;
                      version = None;
                      reason = "truncation journal image is torn";
                    }
              | Error c ->
                  Damaged
                    {
                      Wal.Codec.offset = next + c.Wal.Codec.offset;
                      version = c.Wal.Codec.version;
                      reason =
                        "truncation journal image unreadable: "
                        ^ c.Wal.Codec.reason;
                    })
          | Ok _ | Error _ -> scan (p + 1))
  in
  scan 0

(* A retry loop for recovery-path writes, before any [t] exists. *)
let retry_loop retry f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception Storage.Transient last ->
        if attempt >= retry.max_attempts then
          raise (Storage_unavailable { attempts = attempt; last })
        else begin
          retry.backoff attempt;
          go (attempt + 1)
        end
  in
  go 1

let load ?(retry = default_retry) ?shard ?profile storage =
  (* Reads are not retried on content grounds — a short or bit-flipped
     read is silent, and it is the decoder's job to catch it. *)
  let module Profile = Tm_obs.Recovery_profile in
  let bytes =
    match profile with
    | None -> Storage.read_all storage
    | Some p ->
        let bytes =
          Profile.time p Profile.Storage_scan (fun () ->
              Storage.read_all storage)
        in
        Profile.note_bytes_scanned p (String.length bytes);
        bytes
  in
  (* Resolve an interrupted compaction first: a half-installed image
     makes the raw bytes look arbitrarily damaged, so the journal — not
     the plain decode — is the authority on what the log is. *)
  let resolved =
    match find_journal bytes with
    | Damaged c -> Error c
    | Complete { image } ->
        (* Redo the install (idempotent: re-running after any crash
           inside it converges to the same image).  Charged to the
           storage-scan phase: it is restart I/O, not decoding. *)
        let install () =
          retry_loop retry (fun () -> Storage.write_at storage ~pos:0 image);
          retry_loop retry (fun () -> Storage.force storage)
        in
        (match profile with
        | None -> install ()
        | Some p -> Profile.time p Profile.Storage_scan install);
        Ok image
    | No_journal -> Ok bytes
  in
  match resolved with
  | Error _ as e -> e
  | Ok bytes -> (
      match Wal.Codec.decode_all ?profile bytes with
      | Error _ as e -> e
      | Ok { Wal.Codec.records; clean_bytes; torn = _ } ->
          (* An intent surviving in the decoded stream means the journal
             write itself was cut short (a complete journal was resolved
             above): the compaction never committed, so the log is
             exactly the records before the intent — roll it back by
             ignoring the rest.  [end_off] must point at the intent's
             byte offset, which is recovered by walking the actual
             on-disk frame headers — never by re-encoding the kept
             records, whose byte length differs from the disk's once
             the log mixes frame versions (v1 frames persisted by an
             older binary, v2 appends after them). *)
          let offset_of_frame n =
            let rec go pos i =
              if i = n then pos
              else
                match Wal.Codec.read_header bytes pos with
                | Ok h -> go (pos + h.Wal.Codec.h_size + h.Wal.Codec.h_payload_len) (i + 1)
                | Error _ -> pos (* unreachable: these frames just decoded *)
            in
            go 0 0
          in
          let records, clean_bytes =
            let rec split n kept = function
              | [] -> (records, clean_bytes)
              | Wal.Truncate_intent _ :: _ -> (List.rev kept, offset_of_frame n)
              | r :: rest -> split (n + 1) (r :: kept) rest
            in
            split 0 [] records
          in
          (* The mirror is rebuilt before the sink is installed, so the
             replayed records are not re-persisted; a torn tail is
             dropped logically — [end_off] points at the intact prefix,
             and the next append overwrites the debris. *)
          let wal = Wal.of_records records in
          Ok (make ~retry ?shard storage wal ~end_off:clean_bytes))

let checkpoint_truncate t =
  let dropped = Wal.truncate_to_checkpoint t.wal in
  if dropped > 0 then begin
    let image = Wal.Codec.encode_all ~shard:t.shard (Wal.records t.wal) in
    let old_len = t.end_off in
    let intent =
      Wal.Codec.encode ~shard:t.shard
        (Wal.Truncate_intent { old_len; new_len = String.length image })
    in
    (* 1. Journal: intent + full image after the live log, forced.  The
       old log is still intact, so a crash up to here rolls back. *)
    with_retry t (fun () ->
        Storage.write_at t.storage ~pos:old_len (intent ^ image));
    with_retry t (fun () -> Storage.force t.storage);
    (* 2. Install: the image replaces the log from byte 0; [write_at]'s
       trailing truncation erases the journal in the same call.  A crash
       inside this step finds the journal and redoes the install. *)
    with_retry t (fun () -> Storage.write_at t.storage ~pos:0 image);
    with_retry t (fun () -> Storage.force t.storage);
    (* The rewrite forced the whole log through the side door, so the
       pipeline's watermark can advance without another barrier. *)
    Wal.mark_all_flushed t.wal;
    t.end_off <- String.length image
  end;
  dropped
