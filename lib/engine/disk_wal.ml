module Metrics = Tm_obs.Metrics

(* Tries per write or force before giving up; no backoff between
   them, so a run over faulty storage stays deterministic. *)
let max_attempts = 8

exception Storage_unavailable of { attempts : int; last : string }

type t = {
  storage : Storage.t;
  wal : Wal.t;
  shard : int;  (* stamped into every frame this log appends *)
  mutable end_off : int;  (* logical end: bytes of intact, persisted log *)
  mutable buf : Bytes.t;
      (* scratch for encoding an append: empty until the first one, then
         doubled whenever a frame does not fit *)
  mutable bytes_written : int;
  mutable retries : int;
  mutable metrics : Metrics.t option;
}

let wal t = t.wal
let storage t = t.storage
let shard t = t.shard
let bytes_written t = t.bytes_written
let retries t = t.retries

let count t name by =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.Counter.add (Metrics.counter reg name) by

(* The retry budget, one step of it per failed attempt and shared by
   writes and forces: the [attempt]th try failed with [last]; give up
   once the budget is spent, else count the retry. *)
let spend_retry t attempt last =
  if attempt >= max_attempts then raise (Storage_unavailable { attempts = attempt; last });
  t.retries <- t.retries + 1;
  count t "tm_storage_retries_total" 1

(* Write a slice through the retry budget.  A torn write persists a
   prefix, but every attempt rewrites from the same offset, so the torn
   bytes are overwritten rather than accumulated.  First-order, like
   [force_retrying]: a retried call builds no closure. *)
let rec write_retrying t ~pos b len attempt =
  match Storage.write t.storage ~pos b ~off:0 ~len with
  | () -> ()
  | exception Storage.Transient last ->
      spend_retry t attempt last;
      write_retrying t ~pos b len (attempt + 1)

let rec force_retrying t attempt =
  match Storage.force t.storage with
  | () -> ()
  | exception Storage.Transient last ->
      spend_retry t attempt last;
      force_retrying t (attempt + 1)

let write_string t ~pos s =
  write_retrying t ~pos (Bytes.unsafe_of_string s) (String.length s) 1

let force t = force_retrying t 1

(* Encode [record] into the scratch buffer and write the frame.  The
   buffer is reused by the next append, which is sound because appends
   to one log are serialised (see disk_wal.mli) and no backend keeps a
   written buffer. *)
let persist t record =
  let version = Wal.Codec.write_version in
  let len = Wal.Codec.frame_size ~version ~shard:t.shard record in
  if len > Bytes.length t.buf then t.buf <- Bytes.create (max len (2 * Bytes.length t.buf));
  ignore (Wal.Codec.put_frame t.buf 0 ~version ~shard:t.shard record);
  write_retrying t ~pos:t.end_off t.buf len 1;
  t.end_off <- t.end_off + len;
  t.bytes_written <- t.bytes_written + len

(* ------------------------------------------------------------------ *)
(* Crash-atomic log compaction.

   A checkpoint truncation must replace the whole backend image with a
   shorter one, but {!Storage.write} is not atomic: the file backend
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
   {- {b install}: write the image at position 0 — the write's
      trailing truncation removes the journal in the same call — and
      force.  The journal survives (before its own intent frame byte
      for byte, after it geometrically) until the shrink lands, so a
      crash anywhere inside the install finds the intent and {e redoes}
      the install from the journaled image.}}

   The intent frame is self-locating: it must sit exactly at the
   offset its [old_len] field names and the file must end exactly
   [new_len] bytes after it, which a torn journal write can never
   satisfy.  That offset is the old log's length, unless the image is
   longer than the old log (an upgrade that re-encodes v1 frames and
   drops little): the install would then overwrite the intent, so
   placeholder intents, each naming the offset after its own, pad the
   journal until the real intent lies past the image.  A torn journal
   still rolls back at the first intent.  *)

let journal ~shard ~old_len image =
  let new_len = String.length image in
  let intent at = Wal.Codec.encode ~shard (Wal.Truncate_intent { old_len = at; new_len }) in
  let rec pad at placeholders =
    if at >= new_len then String.concat "" (List.rev (image :: intent at :: placeholders))
    else
      let p = intent (at + 1) in
      pad (at + String.length p) (p :: placeholders)
  in
  pad old_len []

(* Replace the stored log by [kept], by the protocol above. *)
let compact t kept =
  let image = Wal.Codec.encode_all ~shard:t.shard kept in
  (* 1. Journal: intent + full image after the live log, forced.  The
     old log is still intact, so a crash up to here rolls back. *)
  write_string t ~pos:t.end_off (journal ~shard:t.shard ~old_len:t.end_off image);
  force t;
  (* 2. Install: the image replaces the log from byte 0; the write's
     trailing truncation erases the journal in the same call.  A crash
     inside this step finds the journal and redoes the install. *)
  write_string t ~pos:0 image;
  force t;
  t.end_off <- String.length image

(* The log as stable storage holds it: the records of its intact
   prefix, decoded from the backend's bytes. *)
let read_back t =
  let bytes = Storage.read_all t.storage in
  let len = String.length bytes in
  if len < t.end_off then
    failwith (Fmt.str "Disk_wal: the stored log reads back %d of its %d bytes" len t.end_off);
  match Wal.Codec.decode_all (if len = t.end_off then bytes else String.sub bytes 0 t.end_off) with
  | Ok { Wal.Codec.records; torn = None; _ } -> records
  | Ok { Wal.Codec.torn = Some c; _ } | Error c ->
      failwith (Fmt.str "Disk_wal: the stored log reads back damaged: %a" Wal.Codec.pp_corruption c)

let install_sink t =
  Wal.set_sink t.wal
    {
      Wal.sink_append = (fun r -> persist t r);
      sink_force = (fun () -> force t);
      sink_attach =
        (fun reg ->
          t.metrics <- Some reg;
          Storage.attach_metrics t.storage reg);
      sink_records = (fun () -> read_back t);
      sink_rewrite = (fun kept -> compact t kept);
    }

let make ?(shard = 0) storage =
  if shard < 0 || shard > 0xFFFF then
    invalid_arg (Fmt.str "Disk_wal: shard %d out of range" shard);
  let t =
    {
      storage;
      wal = Wal.create ();
      shard;
      end_off = 0;
      buf = Bytes.empty;
      bytes_written = 0;
      retries = 0;
      metrics = None;
    }
  in
  install_sink t;
  t

let create ?shard storage =
  let t = make ?shard storage in
  (* A fresh log owns the backend from byte 0; stale contents (a
     previous incarnation's log) would otherwise replay after ours.
     The truncation is forced immediately: without the barrier a crash
     before this log's first commit flush could resurrect the stale
     log on reload. *)
  if Storage.size storage > 0 then begin
    write_string t ~pos:0 "";
    force t
  end;
  t

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
  (* tag byte + two 8-byte lengths, fixed in every version *)
  let intent_payload = 17 in
  (* The smallest frame an intent can occupy (v1 header); an intent
     written by any supported version is at least this long. *)
  let min_intent_frame = Wal.Codec.min_header_size + intent_payload in
  (* An intent frame of any version: the header parses, the payload
     is intent-sized and the tag byte is the intent's.  [check_header]
     is the version dispatch, so a journal written by an older binary
     is found by a newer one and vice versa; it allocates nothing, so a
     candidate that fails costs no [result]. *)
  let plausible p =
    Wal.Codec.check_header bytes p = intent_payload
    && bytes.[p + Wal.Codec.header_size (Char.code bytes.[p + 2])] = '\005'
  in
  let rec scan pos =
    if pos + min_intent_frame > total then No_journal
    else
      match String.index_from bytes pos Wal.Codec.magic0 with
      | exception Not_found -> No_journal
      | p when not (plausible p) -> scan (p + 1)
      | p -> (
          match Wal.Codec.decode_frame bytes p with
          | Ok (Wal.Truncate_intent { old_len; new_len }, next)
            when p = old_len && next + new_len = total -> (
              (* The journal committed; its image must verify in full
                 before we are allowed to destroy the old log. *)
              let image = String.sub bytes next new_len in
              match Wal.Codec.verify_frames (fun _ _ _ -> ()) image with
              | Ok (_, None) -> Complete { image }
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

(* What the verifying walk of {!load} learns of the log before the
   first intent: where its last checkpoint is, and what the frames
   before that checkpoint add to the log's counters. *)
type scan = {
  mutable intent : int;  (* offset of the first Truncate_intent, or -1 *)
  mutable frames : int;  (* frames before [intent] *)
  mutable commits : int;  (* Commit records among them *)
  mutable hwm : int;  (* first tid above every tid they mention *)
  mutable checkpoint : int;  (* offset of the last Checkpoint, or -1 *)
  mutable superseded : int;  (* [frames] before [checkpoint] *)
  mutable superseded_commits : int;
  mutable superseded_hwm : int;
}

(* Record tags (docs/WAL_FORMAT.md). *)
let commit_tag = 2
let checkpoint_tag = 4
let intent_tag = 5

let note_frame scan pos tag hwm =
  if scan.intent < 0 then
    if tag = intent_tag then scan.intent <- pos
    else begin
      if tag = checkpoint_tag then begin
        scan.checkpoint <- pos;
        scan.superseded <- scan.frames;
        scan.superseded_commits <- scan.commits;
        scan.superseded_hwm <- scan.hwm
      end;
      scan.frames <- scan.frames + 1;
      if tag = commit_tag then scan.commits <- scan.commits + 1;
      scan.hwm <- Int.max scan.hwm hwm
    end

let load ?shard ?profile storage =
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
  (* The sink is installed first, and [Wal.restore_frames] does not
     forward to it, so nothing read below is re-persisted. *)
  let t = make ?shard storage in
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
          write_string t ~pos:0 image;
          force t
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
      (* One walk verifies every frame and builds nothing; a second
         steps the log's replay state from the bytes of the frames from
         the last checkpoint on, so no record or record list is built
         and the prefix the checkpoint stands for is paid for by its
         checksums alone.  An intent surviving in the stream means the
         journal write itself was cut short (a complete journal was
         resolved above): the compaction never committed, so the log is
         exactly the records before the intent — roll it back by
         restoring none of the rest.  The frames after it are still
         verified, so a torn tail or interior corruption there gets the
         same verdict as anywhere else.  [end_off] is the intent's byte
         offset as the walk reports it, which holds for a log that mixes
         frame versions too (v1 or v2 frames persisted by an older
         binary, v3 appends after them). *)
      let scan =
        {
          intent = -1;
          frames = 0;
          commits = 0;
          hwm = 0;
          checkpoint = -1;
          superseded = 0;
          superseded_commits = 0;
          superseded_hwm = 0;
        }
      in
      match Wal.Codec.verify_frames ?profile (note_frame scan) bytes with
      | Error _ as e -> e
      | Ok (clean_bytes, _) ->
          let upto = if scan.intent < 0 then clean_bytes else scan.intent in
          Wal.restore_frames ?profile t.wal ~superseded:scan.superseded
            ~superseded_commits:scan.superseded_commits ~superseded_hwm:scan.superseded_hwm bytes
            ~from:(Int.max 0 scan.checkpoint) ~upto;
          (* A torn tail is dropped logically: [end_off] points at the
             intact prefix, and the next append overwrites the debris. *)
          t.end_off <- upto;
          Ok t)
