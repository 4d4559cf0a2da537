open Tm_core
module Metrics = Tm_obs.Metrics
module Profile = Tm_obs.Recovery_profile

type checkpoint = {
  committed : Op.t list;
  live : (Tid.t * Op.t list) list;
  next_tid : int;
}

type record =
  | Begin of Tid.t
  | Operation of Tid.t * Op.t
  | Commit of Tid.t
  | Abort of Tid.t
  | Checkpoint of checkpoint
  | Truncate_intent of { old_len : int; new_len : int }
  | Prepare of Tid.t
  | Decision of { tid : Tid.t; commit : bool }

let pp_record ppf = function
  | Begin tid -> Fmt.pf ppf "BEGIN %a" Tid.pp tid
  | Operation (tid, op) -> Fmt.pf ppf "OP %a %a" Tid.pp tid Op.pp op
  | Commit tid -> Fmt.pf ppf "COMMIT %a" Tid.pp tid
  | Abort tid -> Fmt.pf ppf "ABORT %a" Tid.pp tid
  | Checkpoint cp ->
      Fmt.pf ppf "CHECKPOINT (%d ops, %d live txns, next tid %d)"
        (List.length cp.committed) (List.length cp.live) cp.next_tid
  | Truncate_intent { old_len; new_len } ->
      Fmt.pf ppf "TRUNCATE-INTENT (%d -> %d bytes)" old_len new_len
  | Prepare tid -> Fmt.pf ppf "PREPARE %a" Tid.pp tid
  | Decision { tid; commit } ->
      Fmt.pf ppf "DECISION %a %s" Tid.pp tid (if commit then "COMMIT" else "ABORT")

let equal_checkpoint a b =
  List.equal Op.equal a.committed b.committed
  && List.equal
       (fun (t1, o1) (t2, o2) -> Tid.equal t1 t2 && List.equal Op.equal o1 o2)
       a.live b.live
  && a.next_tid = b.next_tid

let equal_record a b =
  match a, b with
  | Begin x, Begin y | Commit x, Commit y | Abort x, Abort y | Prepare x, Prepare y
    ->
      Tid.equal x y
  | Operation (x, p), Operation (y, q) -> Tid.equal x y && Op.equal p q
  | Checkpoint x, Checkpoint y -> equal_checkpoint x y
  | Truncate_intent x, Truncate_intent y ->
      x.old_len = y.old_len && x.new_len = y.new_len
  | Decision x, Decision y -> Tid.equal x.tid y.tid && x.commit = y.commit
  | ( ( Begin _ | Operation _ | Commit _ | Abort _ | Checkpoint _
      | Truncate_intent _ | Prepare _ | Decision _ ),
      _ ) ->
      false

(* ------------------------------------------------------------------ *)
(* Replay state: the one log fold.                                     *)

(* What a log reads back to.  [replay], [max_tid], [checkpoint_of] and
   [plan] are views of it, and a {!t} keeps one up to date as records
   are appended or restored.  A checkpoint record summarises its whole
   prefix, so the state restarts from its snapshot (only the high-water
   mark is carried monotonically through).  Lookups use [find] rather
   than [find_opt]: no [Some] per record. *)
type state = {
  mutable committed : Op_log.t;  (* committed operations *)
  pending : (Tid.t, Op.t list) Hashtbl.t;
      (* every transaction with records but no outcome, with its
         operations newest first — and operations logged under a tid
         after its outcome, kept in case it commits again *)
  finished : Tid_bits.t;  (* tids with a Commit or Abort record *)
  mutable hwm : int;  (* first tid strictly above every tid in the log *)
  prepared : Tid_bits.t;  (* tids with a Prepare record *)
  mutable in_doubt : Tid.t array;
      (* [0, n_in_doubt): prepared with no Commit or Abort since, in
         first-Prepare order; a vector, so a grown one costs no words *)
  mutable n_in_doubt : int;
  decided : Tid_bits.t;  (* tids with a Decision *)
  phase2 : Tid_bits.t;  (* tids with a Commit or Abort after their Prepare *)
  commit_evidence : Tid_bits.t;  (* a Decision { commit = true } or a phase-2 Commit *)
}

let empty_state () =
  {
    committed = Op_log.empty;
    pending = Hashtbl.create 16;
    finished = Tid_bits.create ();
    hwm = 0;
    prepared = Tid_bits.create ();
    in_doubt = [||];
    n_in_doubt = 0;
    decided = Tid_bits.create ();
    phase2 = Tid_bits.create ();
    commit_evidence = Tid_bits.create ();
  }

(* The operations [st] holds for [tid], newest first. *)
let txn_ops st tid = match Hashtbl.find st.pending tid with ops -> ops | exception Not_found -> []
let note st tid = st.hwm <- max st.hwm (Tid.to_int tid + 1)
let open_txn st tid = if not (Hashtbl.mem st.pending tid) then Hashtbl.add st.pending tid []

(* The index of [tid] among the in-doubt tids from [i] on, or -1. *)
let rec find_in_doubt st tid i =
  if i = st.n_in_doubt then -1
  else if Tid.equal st.in_doubt.(i) tid then i
  else find_in_doubt st tid (i + 1)

let push_in_doubt st tid =
  let n = st.n_in_doubt in
  if n = Array.length st.in_doubt then begin
    let grown = Array.make (max 8 (2 * n)) tid in
    Array.blit st.in_doubt 0 grown 0 n;
    st.in_doubt <- grown
  end;
  st.in_doubt.(n) <- tid;
  st.n_in_doubt <- n + 1

(* A local outcome: a Commit or Abort of a tid prepared here is a
   phase-2 record, and takes the tid out of doubt. *)
let finish st tid ~commit =
  Hashtbl.remove st.pending tid;
  Tid_bits.add st.finished tid;
  if Tid_bits.mem st.prepared tid then begin
    Tid_bits.add st.phase2 tid;
    if commit then Tid_bits.add st.commit_evidence tid;
    let i = find_in_doubt st tid 0 in
    if i >= 0 then begin
      Array.blit st.in_doubt (i + 1) st.in_doubt i (st.n_in_doubt - i - 1);
      st.n_in_doubt <- st.n_in_doubt - 1
    end
  end

(* One step per record kind.  A record step ({!step}: appends,
   {!of_records}) and the frame step of a load ({!Codec.step_frame})
   both call these, so a record decoded from its frame steps the state
   exactly as the record itself would. *)

let step_begin st tid =
  note st tid;
  open_txn st tid

let step_operation st tid op =
  note st tid;
  Hashtbl.replace st.pending tid (op :: txn_ops st tid)

let step_commit st tid =
  note st tid;
  st.committed <- Op_log.push_rev st.committed (txn_ops st tid);
  finish st tid ~commit:true

let step_abort st tid =
  note st tid;
  finish st tid ~commit:false

(* A prepared transaction voted yes in a cross-shard commit but this
   shard's log alone cannot tell the outcome.  Plain replay treats it
   exactly like any other unfinished transaction — presumed abort — so
   a participant whose coordinator never decided loses nothing it was
   entitled to keep.  {!Sharded_database.recover} resolves in-doubt
   transactions against the other shards' logs {e before} replay by
   appending the real outcome record, read from this state
   ({!in_doubt}). *)
let step_prepare st tid =
  note st tid;
  open_txn st tid;
  if find_in_doubt st tid 0 < 0 then begin
    Tid_bits.add st.prepared tid;
    push_in_doubt st tid
  end

(* The coordinator's 2PC outcome record.  It is pure coordination
   state: it must NOT mark the transaction as locally begun — on the
   coordinator's own shard the transaction also logs its local
   Prepare/Commit records, and a shard that only coordinated (no local
   ops) must not grow a phantom loser. *)
let step_decision st tid ~commit =
  note st tid;
  Tid_bits.add st.decided tid;
  if commit then Tid_bits.add st.commit_evidence tid

(* A checkpoint's snapshot stands for the whole prefix: committed
   operations and the logs of transactions that were in flight when it
   was taken.  Everything else about the prefix is forgotten.  The
   state takes [committed] over. *)
let seed st ~committed ~live ~next_tid =
  st.committed <- committed;
  Hashtbl.reset st.pending;
  Tid_bits.clear st.finished;
  (* No 2PC outcome spans a checkpoint: {!Sharded_database.checkpoint}
     forces every shard and refuses while a cross-shard transaction is
     between its first prepare and its completion, so nothing is in
     doubt here and no later resolution needs the evidence of a
     transaction the snapshot already settled. *)
  List.iter Tid_bits.clear [ st.prepared; st.decided; st.phase2; st.commit_evidence ];
  st.n_in_doubt <- 0;
  List.iter
    (fun (tid, ops) ->
      note st tid;
      match ops with
      | [] -> open_txn st tid
      | _ -> Hashtbl.replace st.pending tid (List.rev ops))
    live;
  st.hwm <- max st.hwm next_tid

let step st = function
  | Begin tid -> step_begin st tid
  | Operation (tid, op) -> step_operation st tid op
  | Commit tid -> step_commit st tid
  | Abort tid -> step_abort st tid
  | Truncate_intent _ ->
      (* A compaction journal marker; {!Disk_wal.load} resolves it
         before the log reaches replay, but a decoded stray is
         harmless — it carries no transaction state. *)
      ()
  | Prepare tid -> step_prepare st tid
  | Decision { tid; commit } -> step_decision st tid ~commit
  | Checkpoint cp ->
      seed st ~committed:(Op_log.of_list cp.committed) ~live:cp.live ~next_tid:cp.next_tid

let state_of recs =
  let st = empty_state () in
  List.iter (step st) recs;
  st

(* [f] over every transaction with records and no outcome: the ones
   recovery must treat as aborted. *)
let fold_unfinished st f acc =
  Hashtbl.fold
    (fun tid ops acc -> if Tid_bits.mem st.finished tid then acc else f tid ops acc)
    st.pending acc

let losers st = fold_unfinished st (fun tid _ acc -> Tid.Set.add tid acc) Tid.Set.empty

let snapshot ~next_tid st =
  let live =
    fold_unfinished st (fun tid ops acc -> (tid, List.rev ops) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
  in
  { committed = Op_log.to_list st.committed; live; next_tid = max next_tid st.hwm }

type plan = {
  plan_objects : (string, Op_log.t) Hashtbl.t;
  plan_loser_tids : Tid.Set.t;
  plan_ops : int;
  plan_next_tid : int;
}

(* Committed operations land in per-object buckets, so recovery restores
   each object without filtering the whole committed history: one hash
   lookup and one chunk slot per operation, each bucket in commit
   order. *)
let plan_of_state ?profile st =
  let bucket () = (Op_log.by_object st.committed, Op_log.length st.committed) in
  let objects, total_ops =
    match profile with
    | None -> bucket ()
    | Some p -> Profile.time_excluding p Profile.Log_scan bucket
  in
  let loser_tids =
    match profile with
    | None -> losers st
    | Some p ->
        (* Redo-only log: "undoing" a loser is resolving that it never
           took effect — nothing to roll back, so this phase is pure set
           computation. *)
        let tids = Profile.time p Profile.Loser_undo (fun () -> losers st) in
        Profile.note_losers p (Tid.Set.cardinal tids);
        tids
  in
  { plan_objects = objects; plan_loser_tids = loser_tids; plan_ops = total_ops; plan_next_tid = st.hwm }

(* The pure views: each folds a record list into a fresh state. *)

let replay recs =
  let st = state_of recs in
  (Op_log.to_list st.committed, losers st)

let max_tid recs =
  let st = state_of recs in
  if st.hwm = 0 then None else Some (Tid.of_int (st.hwm - 1))

let partition_of_object ~workers name = Hashtbl.hash name mod workers

let plan ~workers recs =
  if workers <> 1 then invalid_arg "Wal.plan: workers must be 1";
  plan_of_state (state_of recs)

(* ------------------------------------------------------------------ *)
(* The log.                                                            *)

(* A sink holds the log on stable storage ({!Disk_wal}): appends are
   persisted as they happen, [force] is the durability barrier, the log
   is read back and rewritten through it, and a metrics attachment is
   forwarded so storage counters land in the same registry as the log's
   own. *)
type sink = {
  sink_append : record -> unit;
  sink_force : unit -> unit;
  sink_attach : Metrics.t -> unit;
  sink_records : unit -> record list;
  sink_rewrite : record list -> unit;
}

(* Handles into the attached registry.  Each is resolved on its first
   event and reused after that, so an append or force bumps a field
   instead of searching the registry, and a series is still registered
   only once it has something to count. *)
type meters = {
  reg : Metrics.t;
  appends : Metrics.counter option array;  (* tm_wal_appends_total, by [kind_index] *)
  mutable forces : (Metrics.counter * Metrics.counter * Metrics.histogram) option;
}

type t = {
  state : state;
  mutable records_rev : record list;
      (* the stable log of a sink-less log, newest first; [] with a sink,
         whose storage holds the records *)
  mutable count : int;
  mutable metrics : meters option;
  mutable sink : sink option;
  (* --- durability pipeline state (group commit) ---
     Appends are assigned monotone LSNs (1-based, counting every append
     since creation — truncation does not rewind them); [flushed] is the
     watermark below which the sink has certified durability.  The
     combiner fields serialise flushing across OS threads: exactly one
     waiter runs [sink_force] per round while later arrivals park on
     [flush_done] and piggyback on the result. *)
  mutable appended : int;  (* lsn of the newest fully-appended record *)
  mutable flushed : int;  (* durability watermark (meaningful with a sink) *)
  mutable commits_appended : int;  (* Commit records appended so far *)
  mutable commits_flushed : int;  (* Commit records covered by a force *)
  flush_lock : Mutex.t;
  flush_done : Condition.t;
  mutable flusher_busy : bool;
}

let create () =
  {
    state = empty_state ();
    records_rev = [];
    count = 0;
    metrics = None;
    sink = None;
    appended = 0;
    flushed = 0;
    commits_appended = 0;
    commits_flushed = 0;
    flush_lock = Mutex.create ();
    flush_done = Condition.create ();
    flusher_busy = false;
  }

let set_sink t sink =
  t.sink <- Some sink;
  (* Everything already present predates the sink (e.g. records decoded
     from the backend); it is exactly what stable storage holds, so the
     storage keeps the records and the watermark starts at the end. *)
  t.records_rev <- [];
  t.flushed <- max t.flushed t.appended;
  t.commits_flushed <- max t.commits_flushed t.commits_appended;
  match t.metrics with None -> () | Some m -> sink.sink_attach m.reg

let record_kinds =
  [| "begin"; "operation"; "commit"; "abort"; "checkpoint"; "truncate_intent"; "prepare"; "decision" |]

let kind_index = function
  | Begin _ -> 0
  | Operation _ -> 1
  | Commit _ -> 2
  | Abort _ -> 3
  | Checkpoint _ -> 4
  | Truncate_intent _ -> 5
  | Prepare _ -> 6
  | Decision _ -> 7

let record_kind r = record_kinds.(kind_index r)

let attach_metrics t reg =
  t.metrics <- Some { reg; appends = Array.make (Array.length record_kinds) None; forces = None };
  match t.sink with None -> () | Some s -> s.sink_attach reg

let last_lsn t = t.appended

let flushed_lsn t =
  (* Without a sink, stable storage is modelled in-memory: an append is
     durable by fiat the instant it returns. *)
  match t.sink with None -> t.appended | Some _ -> t.flushed

(* Accounting for one actual barrier: [batch] is the number of commit
   records whose durability this single [sink_force] certified. *)
let note_force t batch =
  match t.metrics with
  | None -> ()
  | Some m ->
      let forces, group_commits, batches =
        match m.forces with
        | Some h -> h
        | None ->
            let h =
              ( Metrics.counter m.reg "tm_wal_forces_total",
                Metrics.counter m.reg "tm_wal_group_commits_total",
                Metrics.histogram m.reg "tm_wal_group_commit_batch" )
            in
            m.forces <- Some h;
            h
      in
      Metrics.Counter.incr forces;
      Metrics.Counter.incr group_commits;
      Metrics.Histogram.observe_int batches batch

(* The group-commit combiner, entered holding [flush_lock]: wait until
   [lsn] is flushed, running the barrier when no other thread is.  It
   returns holding the lock, or raises a failed barrier's exception
   having released it.  A top-level function of its arguments, so a
   force builds no closure. *)
let rec await_flush t s lsn =
  if t.flushed < lsn then
    if t.flusher_busy then begin
      (* Piggyback: a batch is in flight; park on the group-commit
         condition and re-check when its round completes. *)
      Condition.wait t.flush_done t.flush_lock;
      await_flush t s lsn
    end
    else begin
      t.flusher_busy <- true;
      (* Snapshot under the lock: records with lsn <= target finished
         their sink append before being numbered, so the barrier below
         provably covers their bytes. *)
      let target = t.appended in
      let commits_target = t.commits_appended in
      Mutex.unlock t.flush_lock;
      match s.sink_force () with
      | exception e ->
          (* The flusher died.  Hand the round over — a parked waiter
             wakes, finds the combiner free and retries the flush
             itself — and surface the failure to this caller (no thread
             is left blocked on a dead flusher). *)
          Mutex.lock t.flush_lock;
          t.flusher_busy <- false;
          Condition.broadcast t.flush_done;
          Mutex.unlock t.flush_lock;
          raise e
      | () ->
          Mutex.lock t.flush_lock;
          t.flusher_busy <- false;
          if target > t.flushed then begin
            t.flushed <- target;
            let batch = commits_target - t.commits_flushed in
            t.commits_flushed <- max t.commits_flushed commits_target;
            note_force t batch
          end;
          Condition.broadcast t.flush_done;
          await_flush t s lsn
    end

let force_upto t lsn =
  match t.sink with
  | None -> ()
  | Some s ->
      Mutex.lock t.flush_lock;
      await_flush t s lsn;
      Mutex.unlock t.flush_lock

let force t = force_upto t t.appended

(* Move the watermark to the end of the log: every record is on stable
   storage, by a barrier run outside the combiner or because the record
   was read from there. *)
let mark_all_flushed t =
  Mutex.lock t.flush_lock;
  t.flushed <- max t.flushed t.appended;
  t.commits_flushed <- max t.commits_flushed t.commits_appended;
  Mutex.unlock t.flush_lock

(* Take [r] into the state and the counters once stable storage holds
   it; [durable] moves the watermark with it (a record read back from
   storage).  Counter updates are taken under [flush_lock] so a
   concurrent flusher's snapshot is consistent. *)
let admit ~durable t r =
  step t.state r;
  (match t.sink with None -> t.records_rev <- r :: t.records_rev | Some _ -> ());
  t.count <- t.count + 1;
  Mutex.lock t.flush_lock;
  t.appended <- t.appended + 1;
  (match r with Commit _ -> t.commits_appended <- t.commits_appended + 1 | _ -> ());
  if durable then begin
    t.flushed <- t.appended;
    t.commits_flushed <- t.commits_appended
  end;
  Mutex.unlock t.flush_lock

let append t r =
  (* The sink first: if storage refuses the record, the log must not
     count it, step over it or snapshot it into a later checkpoint.  The
     LSN is published only after the sink has the bytes, so a flusher
     that snapshots [appended] and forces is guaranteed to have covered
     every numbered record. *)
  (match t.sink with None -> () | Some s -> s.sink_append r);
  admit ~durable:false t r;
  match t.metrics with
  | None -> ()
  | Some m ->
      let i = kind_index r in
      let appends =
        match m.appends.(i) with
        | Some c -> c
        | None ->
            let c =
              Metrics.counter m.reg "tm_wal_appends_total" ~labels:[ ("kind", record_kinds.(i)) ]
            in
            m.appends.(i) <- Some c;
            c
      in
      Metrics.Counter.incr appends

let restore t r = admit ~durable:true t r

let of_records recs =
  let t = create () in
  List.iter (restore t) recs;
  t

let records t =
  match t.sink with None -> List.rev t.records_rev | Some s -> s.sink_records ()

let length t = t.count
let in_flight t tid = Hashtbl.mem t.state.pending tid && not (Tid_bits.mem t.state.finished tid)
let plan_of ?profile t = plan_of_state ?profile t.state
let in_doubt t = List.init t.state.n_in_doubt (Array.get t.state.in_doubt)
let decided t tid = Tid_bits.mem t.state.decided tid
let phase2 t tid = Tid_bits.mem t.state.phase2 tid
let commit_evidence t tid = Tid_bits.mem t.state.commit_evidence tid
let checkpoint_of ~next_tid t = snapshot ~next_tid t.state

let truncate_to_checkpoint t =
  (* Newest first, so the first [Checkpoint] found is the latest one;
     everything older is summarised by it (the fuzzy snapshot carries
     live transactions' logs) and can be dropped.  The replay state does
     not change: it already stands for the checkpoint and its tail. *)
  let rec split newer = function
    | [] -> None
    | (Checkpoint _ as c) :: older -> Some (c :: newer, older)
    | r :: older -> split (r :: newer) older
  in
  let newest_first =
    match t.sink with None -> t.records_rev | Some s -> List.rev (s.sink_records ())
  in
  match split [] newest_first with
  | None -> 0
  | Some (kept, older) ->
      let dropped = List.length older in
      if dropped > 0 then begin
        (match t.sink with
        | None -> t.records_rev <- List.rev kept
        | Some s ->
            (* The rewrite is forced through the side door, so the
               watermark advances without another barrier. *)
            s.sink_rewrite kept;
            mark_all_flushed t);
        t.count <- t.count - dropped;
        match t.metrics with
        | None -> ()
        | Some m ->
            Metrics.Counter.add (Metrics.counter m.reg "tm_wal_truncated_records_total") dropped
      end;
      dropped

(* ------------------------------------------------------------------ *)
(* Binary framing for the on-disk log.                                 *)

module Codec = struct
  let v1 = 1
  let v2 = 2
  let v3 = 3
  let write_version = v3
  let supported_versions = [ v1; v2; v3 ]
  let is_supported v = List.mem v supported_versions

  (* The frame header is versioned, and the version byte also names the
     payload's integer encoding; the record tags and field order are the
     same in every version, so old payload bytes replay bit-for-bit.

       v1: magic0 magic1 0x01 | payload_len LE32 | crc32 LE32 | payload
       v2: magic0 magic1 0x02 | shard LE16 | payload_len LE32 | crc32 LE32 | payload
       v3: magic0 magic1 0x03 | shard LE16 | payload_len LE32 | crc32 LE32 | payload

     New record tags arrive only under v2 and later frames, so a v1-only
     binary reports them as a typed foreign-version corruption instead of
     misparsing them.  Every payload integer of a v3 frame (tids,
     lengths, [Value.Int], a checkpoint's [next_tid]) is a zigzag LEB128
     varint, except a [Truncate_intent]'s two lengths, which stay 8 bytes
     so that an intent frame has one size ({!Disk_wal}'s journal search
     probes for exactly that size).  The magic is the anchor a scan for
     the next intact frame resynchronizes on, to tell interior
     corruption from a torn tail. *)
  let magic0 = '\xd7'
  let magic1 = 'W'

  let header_size = function
    | 1 -> 11
    | 2 | 3 -> 13
    | v -> invalid_arg (Fmt.str "Wal.Codec.header_size: unsupported version %d" v)

  (* The smallest supported header — how many bytes a scanner needs
     before it can even read the version byte and dispatch. *)
  let min_header_size = 11

  (* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by
     eight: eight tables of 256 entries, held end to end in one array.
     Table 0 is the byte-at-a-time table; entry [n] of table [k] is the
     CRC of byte [n] followed by [k] zero bytes, so one step folds eight
     bytes with eight lookups.  The tables and the running value are
     plain [int]s, so no step boxes an [int32] and a CRC allocates
     nothing. *)
  let crc_tables =
    let t = Array.make (8 * 256) 0 in
    for n = 0 to 255 do
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      t.(n) <- !c
    done;
    for i = 256 to (8 * 256) - 1 do
      let prev = t.(i - 256) in
      t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done;
    t

  let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

  (* The CRC of the [len] bytes of [b] from [off], as an unsigned 32-bit
     [int]: eight bytes a step, read as two little-endian words, then the
     last few one at a time. *)
  let crc32_bytes b off len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Wal.Codec.crc32_bytes";
    let t = crc_tables in
    let c = ref 0xFFFFFFFF and i = ref off in
    let stop = off + len in
    while !i <= stop - 8 do
      let one = u32 b !i lxor !c and two = u32 b (!i + 4) in
      c :=
        Array.unsafe_get t (0x700 + (one land 0xFF))
        lxor Array.unsafe_get t (0x600 + ((one lsr 8) land 0xFF))
        lxor Array.unsafe_get t (0x500 + ((one lsr 16) land 0xFF))
        lxor Array.unsafe_get t (0x400 + (one lsr 24))
        lxor Array.unsafe_get t (0x300 + (two land 0xFF))
        lxor Array.unsafe_get t (0x200 + ((two lsr 8) land 0xFF))
        lxor Array.unsafe_get t (0x100 + ((two lsr 16) land 0xFF))
        lxor Array.unsafe_get t (two lsr 24);
      i := !i + 8
    done;
    for i = !i to stop - 1 do
      c :=
        Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
        lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  (* The CRC over a slice of a string, in place: the bytes are only
     read, which is what makes [Bytes.unsafe_of_string] sound. *)
  let crc32_sub s off len = crc32_bytes (Bytes.unsafe_of_string s) off len
  let crc32 s = Int32.of_int (crc32_sub s 0 (String.length s))

  (* --- payload writer ---

     One walk writes a record and sizes it: the [put_*] functions write
     into [b] and return the position after what they wrote, and into
     the zero-length buffer [counting] they write nothing and only
     advance the position, so [put_record fixed counting 0 r] is the
     payload's size.  Any other buffer too short for what is written
     raises [Invalid_argument], as [Bytes.set] does.  Strings and lists
     carry their length first.  [fixed] says how the payload's integers
     are written: 8 bytes little-endian (v1, v2) or as varints (v3).  It
     is an argument of every call rather than a setting, because shards
     append from several threads at once. *)

  let counting = Bytes.create 0
  let fixed_ints version = version < v3

  (* Zigzag moves the sign to the low bit, so an integer of small
     magnitude, of either sign, has a short varint.  The result is read
     as 63 unsigned bits ([lsr]), seven to a byte, low bits first, with
     the top bit of a byte set when another follows: at most 9 bytes. *)
  let zigzag i = (i lsl 1) lxor (i asr 62)
  let unzigzag z = (z lsr 1) lxor -(z land 1)

  let[@inline] put_byte b p c = if b != counting then Bytes.set b p c; p + 1
  let[@inline] put_u64 b p i = if b != counting then Bytes.set_int64_le b p (Int64.of_int i); p + 8

  let rec put_varint b p z =
    if z lsr 7 = 0 then put_byte b p (Char.unsafe_chr z)
    else put_varint b (put_byte b p (Char.unsafe_chr (z land 0x7f lor 0x80))) (z lsr 7)

  let[@inline] put_int fixed b p i = if fixed then put_u64 b p i else put_varint b p (zigzag i)

  let put_string fixed b p s =
    let n = String.length s in
    let p = put_int fixed b p n in
    if b != counting then Bytes.blit_string s 0 b p n;
    p + n

  let rec put_each put fixed b p = function
    | [] -> p
    | x :: l -> put_each put fixed b (put fixed b p x) l

  let put_list put fixed b p l = put_each put fixed b (put_int fixed b p (List.length l)) l
  let[@inline] put_tid fixed b p tid = put_int fixed b p (Tid.to_int tid)

  let rec put_value fixed b p = function
    | Value.Unit -> put_byte b p '\000'
    | Value.Bool false -> put_byte b p '\001'
    | Value.Bool true -> put_byte b p '\002'
    | Value.Int i -> put_int fixed b (put_byte b p '\003') i
    | Value.Str s -> put_string fixed b (put_byte b p '\004') s
    | Value.List l -> put_list put_value fixed b (put_byte b p '\005') l

  let put_op fixed b p (op : Op.t) =
    let p = put_string fixed b p op.obj in
    let p = put_string fixed b p op.inv.Op.name in
    let p = put_list put_value fixed b p op.inv.Op.args in
    put_value fixed b p op.res

  let put_live fixed b p (tid, ops) = put_list put_op fixed b (put_tid fixed b p tid) ops

  (* A payload is the record's tag, its index in [record_kinds], then
     its body. *)
  let put_record fixed b p r =
    let p = put_byte b p (Char.unsafe_chr (kind_index r)) in
    match r with
    | Begin tid | Commit tid | Abort tid | Prepare tid -> put_tid fixed b p tid
    | Operation (tid, op) -> put_op fixed b (put_tid fixed b p tid) op
    | Checkpoint cp ->
        let p = put_list put_op fixed b p cp.committed in
        let p = put_list put_live fixed b p cp.live in
        put_int fixed b p cp.next_tid
    | Truncate_intent { old_len; new_len } -> put_u64 b (put_u64 b p old_len) new_len
    | Decision { tid; commit } -> put_byte b (put_tid fixed b p tid) (if commit then '\001' else '\000')

  (* [Prepare] and [Decision], the last two tags, postdate v1 frames. *)
  let v2_only_record r = kind_index r >= 6

  (* The bytes [r]'s frame occupies, after checking that [r] may travel
     in a [version] frame of [shard]. *)
  let frame_size ~version ~shard r =
    if not (is_supported version) then
      invalid_arg (Fmt.str "Wal.Codec.encode: unsupported version %d" version);
    if version = v1 && v2_only_record r then
      invalid_arg (Fmt.str "Wal.Codec.encode: %s records require v2 frames" (record_kind r));
    if version = v1 && shard <> 0 then
      invalid_arg "Wal.Codec.encode: v1 frames carry no shard id";
    if shard < 0 || shard > 0xFFFF then
      invalid_arg (Fmt.str "Wal.Codec.encode: shard %d out of range" shard);
    header_size version + put_record (fixed_ints version) counting 0 r

  (* Write [r]'s frame at [pos] of [b]: payload first, then the header
     with the payload's length and CRC.  Returns the position after the
     frame. *)
  let put_frame b pos ~version ~shard r =
    let start = pos + header_size version in
    let stop = put_record (fixed_ints version) b start r in
    Bytes.set b pos magic0;
    Bytes.set b (pos + 1) magic1;
    Bytes.set b (pos + 2) (Char.chr version);
    if version <> v1 then Bytes.set_uint16_le b (pos + 3) shard;
    Bytes.set_int32_le b (start - 8) (Int32.of_int (stop - start));
    Bytes.set_int32_le b (start - 4) (Int32.of_int (crc32_bytes b start (stop - start)));
    stop

  let encode ?(version = write_version) ?(shard = 0) r =
    let size = frame_size ~version ~shard r in
    let b = Bytes.create size in
    let stop = put_frame b 0 ~version ~shard r in
    assert (stop = size);
    Bytes.unsafe_to_string b

  let encode_all ?(version = write_version) ?(shard = 0) recs =
    let total = List.fold_left (fun acc r -> acc + frame_size ~version ~shard r) 0 recs in
    let b = Bytes.create total in
    let stop = List.fold_left (fun pos r -> put_frame b pos ~version ~shard r) 0 recs in
    assert (stop = total);
    Bytes.unsafe_to_string b

  (* --- payload reader ---

     A reader walks the source string itself, bounded by [stop], the end
     of the frame being decoded: no payload is copied, and no length
     field, however wrong, can pull in a byte past the frame.  The one
     walk builds a record or, with [build] off, verifies it: it makes
     the same checks in the same order, so damage raises the same [Bad],
     but allocates nothing, returning a placeholder where it would
     build.  Either way it raises [mark] above every tid it reads.

     A log often repeats itself: the same few operations on the same
     objects, frame after frame.  A reader that decodes a run of frames
     ([decode_verified]) carries a decode cache so that it pays for the log's
     variety, not its length.  The cache is direct-mapped and bounded: a
     slot of [ops] holds the operation first decoded from the encoded
     slice at [op_off] of the source, and a colliding entry evicts the
     slot's occupant.  The key of an operation is its own bytes in the
     source and its frame's integer width, so a miss copies no key and a
     mixed log never reads a v3 operation's bytes as a v2 one's.
     Decoded values are immutable, so sharing them is invisible.

     A log that does not repeat gains nothing from the cache and pays
     for it: the walk and hash of every operation, and each miss stored
     in a table the collector must then promote.  So the cache watches
     its own hit rate, a window of [window] lookups at a time.  A window
     in which fewer than one lookup in eight hits leaves the cache idle
     for the next seven windows' worth of operations, which are built
     without a lookup.  A log with no repeats pays the cache on about one
     operation in eight, and one that starts repeating gets it back
     within eight windows.

     The cache shares names too.  An operation it must build (a miss,
     or any operation while the cache stands idle) takes its object and
     operation names, if short, from a second direct-mapped table, keyed
     by the string's own bytes: a log most often names few objects, and
     a type has few operations, so their names are built once a pass,
     however varied the arguments around them.  A lookup costs a hash of
     at most [max_shared] bytes, and a hit saves a string of two or more
     words.  A miss costs more: it stores its string in the table, a
     write the collector must track.  So argument and result strings,
     which need not repeat (a key-value log's keys), are not looked up,
     and object names are watched as operations are: a log whose objects
     do not repeat builds their names without a lookup, seven windows in
     eight.

     A short log decodes without a cache.  Its decoded records are small,
     so sharing saves little, and the lookups would slow the many short
     loads of crash testing, which decode only logs of a few KB. *)

  exception Bad of string

  let op_slots = 4096

  (* The lookups in a window of the hit-rate watch, and the fewest slots
     a table has. *)
  let window = 1024

  (* The shortest log, in bytes, whose pass gets a cache: room for a
     table of [window] slots at 64 bytes a slot. *)
  let min_cached = 64 * window

  (* The longest name the cache shares, and its slots for names. *)
  let max_shared = 32
  let name_slots = 1024

  (* A table's hit-rate watch. *)
  type watch = {
    mutable lookups : int;  (* in the current window *)
    mutable hits : int;  (* in the current window *)
    mutable idle : int;  (* values still to build without a lookup *)
  }

  type memo = {
    op_off : int array;
    op_key : int array;
        (* the encoding's length, doubled, plus 1 for fixed-width
           integers; 0: empty, as no operation encodes to no bytes *)
    ops : Op.t array;
    op_watch : watch;
    names : string array;  (* "": empty, as no shared name is empty *)
    obj_watch : watch;  (* of object names only *)
  }

  (* Count a lookup; a window in which fewer than one lookup in eight
     hits idles the table for the next seven windows' worth of values. *)
  let count w hit =
    if hit then w.hits <- w.hits + 1;
    w.lookups <- w.lookups + 1;
    if w.lookups = window then begin
      if 8 * w.hits < window then w.idle <- 7 * window;
      w.lookups <- 0;
      w.hits <- 0
    end

  (* The cache for a pass over [len] bytes: one operation slot per 64
     bytes, from [window] up to [op_slots].  An operation's frame takes
     at least 47 bytes in v1 and v2 and at least 19 in v3 (37 on
     average in the restart benchmark's image), so that is a slot per
     one or two operations; a log of 256 KB or more gets the cap.  The
     empty slot is a fresh value: [Array.make] of a young value first
     runs a minor collection, so the pass starts in an empty minor heap
     and fewer of its short-lived values are promoted (a static filler
     took restart's [major_words_per_txn] from 27.6 to 33.7). *)
  let new_memo len =
    let rec fit n = if n >= op_slots || 64 * n >= len then n else fit (2 * n) in
    let n = fit window in
    let none = Op.make ~obj:"" "" Value.Unit in
    {
      op_off = Array.make n 0;
      op_key = Array.make n 0;
      ops = Array.make n none;
      op_watch = { lookups = 0; hits = 0; idle = 0 };
      names = Array.make name_slots "";
      obj_watch = { lookups = 0; hits = 0; idle = 0 };
    }

  type reader = {
    src : string;
    mutable pos : int;
    mutable stop : int;
    mutable fixed : bool;  (* the current frame's integers are 8 bytes *)
    mutable build : bool;  (* false: verify only *)
    mutable mark : int;  (* the first tid above every tid read *)
    memo : memo option;  (* [None] for single-frame readers *)
  }

  let reader ?memo ~build src pos = { src; pos; stop = pos; fixed = false; build; mark = 0; memo }
  let need r n = if r.stop - r.pos < n then raise (Bad "truncated payload")

  let get_byte r = need r 1; let c = r.src.[r.pos] in r.pos <- r.pos + 1; Char.code c

  let get_u64 r =
    need r 8;
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  (* The bytes of a varint after its first, which held the low seven
     bits: seven more bits each.  The ninth byte holds the last seven of
     63 bits, so it may not ask for a tenth. *)
  let rec varint_rest r z shift =
    need r 1;
    let c = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    let z = z lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then z
    else if shift = 56 then raise (Bad "varint longer than 9 bytes")
    else varint_rest r z (shift + 7)

  (* Most varints are one byte; that case makes no call. *)
  let get_varint r =
    need r 1;
    let c = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    unzigzag (if c < 0x80 then c else varint_rest r (c land 0x7f) 7)

  let get_int r = if r.fixed then get_u64 r else get_varint r

  let get_len r =
    let n = get_int r in
    if n < 0 || n > r.stop - r.pos then raise (Bad "implausible length") else n

  (* Do bytes [a, a + len) of [s] and [b, b + len) of [u] match?  A
     word at a time, and allocating nothing. *)
  let rec same s a u b len =
    if len >= 8 then
      (String.get_int64_le s a : int64) = String.get_int64_le u b
      && same s (a + 8) u (b + 8) (len - 8)
    else
      len = 0
      || (String.unsafe_get s a = String.unsafe_get u b && same s (a + 1) u (b + 1) (len - 1))

  (* A hash of bytes [i, stop) of [s], a word at a time, each step
     folding high bits down so every byte reaches the low bits a slot
     index keeps. *)
  let mix h w =
    let h = (h lxor w) * 0x100000001b3 in
    h lxor (h lsr 29)

  let rec hash s i stop h =
    if stop - i >= 8 then hash s (i + 8) stop (mix h (Int64.to_int (String.get_int64_le s i)))
    else if i < stop then hash s (i + 1) stop (mix h (Char.code (String.unsafe_get s i)))
    else h

  let get_string r =
    let n = get_len r in
    let p = r.pos in
    r.pos <- p + n;
    if not r.build || n = 0 then "" else String.sub r.src p n

  (* An object ([obj]) or operation name, shared through the cache's
     table of names if the reader has a cache.  Object name lookups are
     watched; operation names come from a type's few operations. *)
  let get_name ~obj r =
    match r.memo with
    | Some m when r.build ->
        let n = get_len r in
        let p = r.pos in
        r.pos <- p + n;
        let w = m.obj_watch in
        if n = 0 then ""
        else if n > max_shared then String.sub r.src p n
        else if obj && w.idle > 0 then begin
          w.idle <- w.idle - 1;
          String.sub r.src p n
        end
        else begin
          let slot = hash r.src p (p + n) n land (name_slots - 1) in
          let s = Array.unsafe_get m.names slot in
          let hit = String.length s = n && same s 0 r.src p n in
          if obj then count w hit;
          if hit then s
          else begin
            let s = String.sub r.src p n in
            Array.unsafe_set m.names slot s;
            s
          end
        end
    | _ -> get_string r

  let[@tail_mod_cons] rec get_n get r n =
    if n = 0 then [] else let x = get r in x :: get_n get r (n - 1)

  let rec walk_n get r n = if n > 0 then (ignore (get r); walk_n get r (n - 1))

  let get_list get r =
    let n = get_len r in
    if r.build then get_n get r n else (walk_n get r n; [])

  let get_tid r =
    let n = get_int r in
    if n < 0 then raise (Bad "negative tid");
    if n >= r.mark then r.mark <- n + 1;
    Tid.of_int n

  let bad_value_tag n = Bad (Fmt.str "bad value tag %d" n)

  let rec get_value r =
    match get_byte r with
    | 0 -> Value.Unit
    | 1 -> Value.Bool false
    | 2 -> Value.Bool true
    | 3 -> let i = get_int r in if r.build then Value.Int i else Value.Unit
    | 4 -> let s = get_string r in if r.build then Value.Str s else Value.Unit
    | 5 -> let l = get_list get_value r in if r.build then Value.List l else Value.Unit
    | n -> raise (bad_value_tag n)

  let unbuilt_op = Op.make ~obj:"" "" Value.Unit

  let build_op r =
    let obj = get_name ~obj:true r in
    let name = get_name ~obj:false r in
    let args = get_list get_value r in
    let res = get_value r in
    if r.build then { Op.obj; inv = { Op.name; args }; res } else unbuilt_op

  (* With a cache, an operation is first walked without building, to
     measure and hash its bytes. *)
  let get_op r =
    match r.memo with
    | None -> build_op r
    | Some m when m.op_watch.idle > 0 ->
        m.op_watch.idle <- m.op_watch.idle - 1;
        build_op r
    | Some m ->
        let start = r.pos in
        r.build <- false;
        (match build_op r with
        | _ -> r.build <- true
        | exception e -> r.build <- true; raise e);
        let len = r.pos - start in
        (* The table's length is a power of two. *)
        let slot = hash r.src start r.pos len land (Array.length m.ops - 1) in
        let key = (2 * len) + Bool.to_int r.fixed in
        let hit =
          Array.unsafe_get m.op_key slot = key
          && same r.src (Array.unsafe_get m.op_off slot) r.src start len
        in
        count m.op_watch hit;
        if hit then Array.unsafe_get m.ops slot
        else begin
          r.pos <- start;
          let op = build_op r in
          Array.unsafe_set m.op_off slot start;
          Array.unsafe_set m.op_key slot key;
          Array.unsafe_set m.ops slot op;
          op
        end

  let unbuilt_live = (Tid.a, [])

  let get_live r =
    let tid = get_tid r in
    let ops = get_list get_op r in
    if r.build then (tid, ops) else unbuilt_live

  let unbuilt = Commit Tid.a

  (* The tid mark counts as the replay state's high-water mark does: a
     checkpoint's [next_tid] as it stands. *)
  let get_record r =
    match get_byte r with
    | 0 -> let tid = get_tid r in if r.build then Begin tid else unbuilt
    | 1 ->
        let tid = get_tid r in
        let op = get_op r in
        if r.build then Operation (tid, op) else unbuilt
    | 2 -> let tid = get_tid r in if r.build then Commit tid else unbuilt
    | 3 -> let tid = get_tid r in if r.build then Abort tid else unbuilt
    | 4 ->
        let committed = get_list get_op r in
        let live = get_list get_live r in
        let next_tid = get_int r in
        if next_tid > r.mark then r.mark <- next_tid;
        if r.build then Checkpoint { committed; live; next_tid } else unbuilt
    | 5 ->
        let old_len = get_u64 r in
        let new_len = get_u64 r in
        if old_len < 0 || new_len < 0 then
          raise (Bad "negative truncate-intent length");
        if r.build then Truncate_intent { old_len; new_len } else unbuilt
    | 6 -> let tid = get_tid r in if r.build then Prepare tid else unbuilt
    | 7 ->
        let tid = get_tid r in
        let commit =
          match get_byte r with
          | 0 -> false
          | 1 -> true
          | n -> raise (Bad (Fmt.str "bad decision flag %d" n))
        in
        if r.build then Decision { tid; commit } else unbuilt
    | n -> raise (Bad (Fmt.str "bad record tag %d" n))

  (* The verify walk of one record: its tid mark, 0 for none. *)
  let verify_record r =
    r.mark <- 0;
    ignore (get_record r);
    r.mark

  type corruption = {
    offset : int;
    version : int option;
    reason : string;
  }

  let pp_corruption ppf c =
    match c.version with
    | None -> Fmt.pf ppf "byte %d: %s" c.offset c.reason
    | Some v -> Fmt.pf ppf "byte %d (v%d frame): %s" c.offset v c.reason

  (* The one header parse — the single version-negotiation point every
     reader (decode, resync scan, journal search, forensics) dispatches
     through.  [check_header s pos] validates the frame header at [pos]
     and returns its payload length, or one of the negative codes below.
     It pays no CRC and allocates nothing, so the decoders build no
     [result] per frame. *)
  let short_header = -1
  let bad_magic = -2
  let foreign_version = -3
  let short_payload = -4

  let check_header s pos =
    let len = String.length s in
    if len - pos < 3 then short_header
    else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then bad_magic
    else
      let v = Char.code s.[pos + 2] in
      if not (is_supported v) then foreign_version
      else
        let h_size = header_size v in
        if len - pos < h_size then short_header
        else
          (* the payload length sits just before the CRC *)
          let n = Int32.to_int (String.get_int32_le s (pos + h_size - 8)) in
          if n < 0 || n > len - pos - h_size then short_payload else n

  (* The corruption for a [check_header] failure [code] at [pos].  It
     carries the frame's version byte whenever it was readable —
     including a foreign version, so a reader can report exactly which
     format it refused and where. *)
  let header_error s pos code =
    let version =
      if code = bad_magic || String.length s - pos < 3 then None
      else Some (Char.code s.[pos + 2])
    in
    let reason =
      if code = short_header then "truncated header"
      else if code = bad_magic then "bad magic"
      else if code = foreign_version then
        Fmt.str "unsupported format version %d" (Char.code s.[pos + 2])
      else "truncated payload"
    in
    { offset = pos; version; reason }

  let frame_error s pos reason =
    { offset = pos; version = Some (Char.code s.[pos + 2]); reason }

  (* Point [r] at the payload of the frame at [pos], [n] bytes long,
     read with its version's integers. *)
  let enter r pos n =
    let version = Char.code r.src.[pos + 2] in
    r.pos <- pos + header_size version;
    r.stop <- r.pos + n;
    r.fixed <- fixed_ints version

  (* Check the frame at [pos] of [r.src], whose header [check_header]
     accepted with payload length [n], in place: its CRC over the source
     string, then [walk] over the payload, bounded by the frame's end,
     where it leaves [r.stop].  Raises [Bad].  With a profile, CRC
     verification is charged to its own phase (the rest of the frame
     work is the caller's to account). *)
  let check_frame ?profile walk r pos n =
    enter r pos n;
    let s = r.src and start = r.pos in
    let expected = Int32.to_int (String.get_int32_le s (start - 4)) land 0xFFFFFFFF in
    let actual =
      match profile with
      | None -> crc32_sub s start n
      | Some p -> Profile.time p Profile.Checksum_verify (fun () -> crc32_sub s start n)
    in
    if actual <> expected then raise (Bad "crc mismatch");
    let v = walk r in
    if r.pos <> r.stop then raise (Bad "trailing bytes in payload");
    v

  let decode_frame s pos =
    let n = check_header s pos in
    if n < 0 then Error (header_error s pos n)
    else
      let r = reader ~build:true s pos in
      match check_frame get_record r pos n with
      | record -> Ok (record, r.stop)
      | exception Bad reason -> Error (frame_error s pos reason)

  (* Is there an intact frame anywhere at or after [pos]?  Used to
     classify a decode failure: damage followed by provably-written data
     is interior corruption; damage extending to the end of the log is a
     torn tail.

     The resync cursor anchors on the magic bytes ([String.index_from]
     skips damage at memchr speed) and rejects implausible headers
     before paying for a CRC, so a heavily damaged log costs one cheap
     header check per 0xd7 byte rather than a full check per byte
     offset.  [budget] caps the payload bytes spent on CRC probes of
     plausible-looking candidates (adversarially structured damage can
     synthesise many): an exhausted budget returns [true] — the
     conservative verdict, interior corruption — so a refusal can never
     degrade into silently dropping records as a torn tail. *)
  let default_probe_budget = 1 lsl 24

  let valid_frame_after ?(budget = default_probe_budget) s pos =
    let len = String.length s in
    let r = reader ~build:false s pos in
    let rec resync budget pos =
      if pos + min_header_size > len then false
      else
        match String.index_from s pos magic0 with
        | exception Not_found -> false
        | p ->
            if p + min_header_size > len then false
            else
              let n = check_header s p in
              if n < 0 then resync budget (p + 1)
              else if budget <= 0 then true
              else
                match check_frame verify_record r p n with
                | _ -> true
                | exception Bad _ ->
                    resync (budget - header_size (Char.code s.[p + 2]) - n) (p + 1)
    in
    resync budget pos

  type decoded = {
    records : record list;
    clean_bytes : int;  (** length of the intact prefix *)
    torn : corruption option;
        (** a trailing torn/corrupt frame that was dropped as crash loss *)
  }

  (* The frame loop.  Every frame is checked in full, header, CRC and a
     payload walk, and nothing is built: each intact frame goes to [f]
     as its byte offset, its record tag and the tid mark [verify_record]
     reads, all unboxed, so the loop allocates nothing per frame. *)
  let verify_frames ?profile f s =
    let len = String.length s in
    let r = reader ~build:false s 0 in
    let rec frames pos =
      if pos = len then None
      else
        let n = check_header s pos in
        if n < 0 then Some (header_error s pos n)
        else
          match check_frame ?profile verify_record r pos n with
          | hwm ->
              (match profile with None -> () | Some p -> Profile.note_frame p);
              f pos (Char.code (String.unsafe_get s (r.stop - n))) hwm;
              frames r.stop
          | exception Bad reason -> Some (frame_error s pos reason)
    in
    let go () =
      match frames 0 with
      | None -> Ok (len, None)
      | Some c ->
          (* Tail or interior?  A later intact frame proves bytes past
             the damage were durably written, so the damage cannot be
             an interrupted final append. *)
          if valid_frame_after s (c.offset + 1) then Error c else Ok (c.offset, Some c)
    in
    match profile with
    | None -> go ()
    | Some p ->
        let result = Profile.time_excluding p Profile.Frame_decode go in
        (match result with
        | Ok (clean_bytes, _) -> Profile.note_torn_bytes p (len - clean_bytes)
        | Error _ -> ());
        result

  (* The frame loop over a run of frames [verify_frames] passed.  One
     reader, with the pass's decode cache if the run is long enough for
     one, serves every frame: [body pos r] reads the frame at [pos],
     [r] having entered its payload, and must read it to its end.  The
     loop keeps nothing. *)
  let run_frames ?profile body s ~from ~upto =
    let fail () = invalid_arg "Wal.Codec: not a run of verified frames" in
    if from < 0 || upto > String.length s || from > upto then fail ();
    let memo = if upto - from < min_cached then None else Some (new_memo (upto - from)) in
    let r = reader ?memo ~build:true s from in
    let rec frames pos =
      if pos < upto then begin
        let n = check_header s pos in
        if n < 0 then fail ();
        enter r pos n;
        body pos r;
        if r.pos <> r.stop then fail ();
        frames r.stop
      end
      else if pos > upto then fail ()
    in
    let go () = try frames from with Bad _ -> fail () in
    match profile with
    | None -> go ()
    | Some p -> Profile.time_excluding p Profile.Frame_decode go

  let decode_verified f s ~from ~upto = run_frames (fun pos r -> f pos (get_record r)) s ~from ~upto

  (* A checkpoint's committed operations, decoded straight into a log. *)
  let rec push_ops r log n = if n = 0 then log else push_ops r (Op_log.push log (get_op r)) (n - 1)

  (* Step [st] by the frame [r] has entered, building only what the
     state keeps: an [Operation] is read as its tid and its operation,
     a [Commit] as its tid, and a [Checkpoint]'s committed operations go
     straight into the log its seed takes over, so none of them builds
     a record or a list.  The rarer kinds are decoded as records.
     Returns 1 for a [Commit], else 0.  With a profile, a step is
     charged to the log scan, and a checkpoint's decode and seed to the
     seeding phase. *)
  let step_frame profile st r =
    match get_byte r with
    | 1 ->
        let tid = get_tid r in
        let op = get_op r in
        (match profile with
        | None -> step_operation st tid op
        | Some p -> Profile.time_excluding p Profile.Log_scan (fun () -> step_operation st tid op));
        0
    | 2 ->
        let tid = get_tid r in
        (match profile with
        | None -> step_commit st tid
        | Some p -> Profile.time_excluding p Profile.Log_scan (fun () -> step_commit st tid));
        1
    | 4 ->
        let seed_frame () =
          let committed = push_ops r Op_log.empty (get_len r) in
          let live = get_list get_live r in
          seed st ~committed ~live ~next_tid:(get_int r);
          Op_log.length committed
        in
        (match profile with
        | None -> ignore (seed_frame ())
        | Some p ->
            let ops = Profile.time p Profile.Checkpoint_seed seed_frame in
            Profile.note_checkpoint_seed p ~ops);
        0
    | _ ->
        r.pos <- r.pos - 1;
        let record = get_record r in
        (match profile with
        | None -> step st record
        | Some p -> Profile.time_excluding p Profile.Log_scan (fun () -> step st record));
        0

  let decode_all s =
    match verify_frames (fun _ _ _ -> ()) s with
    | Error c -> Error c
    | Ok (clean_bytes, torn) ->
        let rev = ref [] in
        decode_verified (fun _ record -> rev := record :: !rev) s ~from:0 ~upto:clean_bytes;
        Ok { records = List.rev !rev; clean_bytes; torn }
end

(* Take in a load's frames: the [superseded] frames before [from], of
   which [superseded_commits] are commits and whose tids lie below
   [superseded_hwm], count without a step, and the frames from [from]
   to [upto] are stepped from their bytes.  A load is one thread's
   until it returns, so the counters move once, at the end. *)
let restore_frames ?profile t ~superseded ~superseded_commits ~superseded_hwm s ~from ~upto =
  (match t.sink with
  | None -> invalid_arg "Wal.restore_frames: a sink-less log holds its records itself"
  | Some _ -> ());
  let st = t.state in
  st.hwm <- Int.max st.hwm superseded_hwm;
  let frames = ref 0 and commits = ref 0 in
  Codec.run_frames ?profile
    (fun _ r ->
      incr frames;
      commits := !commits + Codec.step_frame profile st r)
    s ~from ~upto;
  (match profile with None -> () | Some p -> Profile.note_records_scanned p !frames);
  let records = superseded + !frames in
  t.count <- t.count + records;
  Mutex.lock t.flush_lock;
  t.appended <- t.appended + records;
  t.commits_appended <- t.commits_appended + superseded_commits + !commits;
  t.flushed <- t.appended;
  t.commits_flushed <- t.commits_appended;
  Mutex.unlock t.flush_lock
