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

(* What a log reads back to.  [replay], [max_tid], [fuzzy_checkpoint] and
   [plan] are views of it, and a {!t} keeps one up to date as records
   are appended or restored.  A checkpoint record summarises its whole
   prefix, so the state restarts from its snapshot (only the high-water
   mark is carried monotonically through).  Lookups use [find] rather
   than [find_opt]: no [Some] per record. *)
type state = {
  mutable committed_rev : Op.t list;  (* committed operations, newest first *)
  pending : (Tid.t, Op.t list) Hashtbl.t;
      (* every transaction with records but no outcome, with its
         operations newest first — and operations logged under a tid
         after its outcome, kept in case it commits again *)
  finished : Tid_bits.t;  (* tids with a Commit or Abort record *)
  mutable hwm : int;  (* first tid strictly above every tid in the log *)
}

let empty_state () =
  { committed_rev = []; pending = Hashtbl.create 16; finished = Tid_bits.create (); hwm = 0 }

(* The operations [st] holds for [tid], newest first. *)
let txn_ops st tid = match Hashtbl.find st.pending tid with ops -> ops | exception Not_found -> []
let note st tid = st.hwm <- max st.hwm (Tid.to_int tid + 1)
let open_txn st tid = if not (Hashtbl.mem st.pending tid) then Hashtbl.add st.pending tid []

let finish st tid =
  Hashtbl.remove st.pending tid;
  Tid_bits.add st.finished tid

let step profile st = function
  | Begin tid ->
      note st tid;
      open_txn st tid
  | Operation (tid, op) ->
      note st tid;
      Hashtbl.replace st.pending tid (op :: txn_ops st tid)
  | Commit tid ->
      note st tid;
      st.committed_rev <- txn_ops st tid @ st.committed_rev;
      finish st tid
  | Abort tid ->
      note st tid;
      finish st tid
  | Truncate_intent _ ->
      (* A compaction journal marker; {!Disk_wal.load} resolves it
         before the log reaches replay, but a decoded stray is
         harmless — it carries no transaction state. *)
      ()
  | Prepare tid ->
      (* A prepared transaction voted yes in a cross-shard commit but
         this shard's log alone cannot tell the outcome.  Plain replay
         treats it exactly like any other unfinished transaction —
         presumed abort — so a participant whose coordinator never
         decided loses nothing it was entitled to keep.
         {!Sharded_database.recover} resolves in-doubt transactions
         against the other shards' logs {e before} replay by appending
         the real outcome record. *)
      note st tid;
      open_txn st tid
  | Decision { tid; commit = _ } ->
      (* The coordinator's 2PC outcome record.  It is pure coordination
         state: it must NOT mark the transaction as locally begun — on
         the coordinator's own shard the transaction also logs its
         local Prepare/Commit records, and a shard that only
         coordinated (no local ops) must not grow a phantom loser. *)
      note st tid
  | Checkpoint cp ->
      (* The snapshot stands for the whole prefix: committed operations
         and the logs of transactions that were in flight when it was
         taken.  Everything else about the prefix is forgotten. *)
      let seed () =
        st.committed_rev <- List.rev cp.committed;
        Hashtbl.reset st.pending;
        Tid_bits.clear st.finished;
        List.iter
          (fun (tid, ops) ->
            note st tid;
            match ops with
            | [] -> open_txn st tid
            | _ -> Hashtbl.replace st.pending tid (List.rev ops))
          cp.live;
        st.hwm <- max st.hwm cp.next_tid
      in
      (match profile with
      | None -> seed ()
      | Some p ->
          Profile.note_checkpoint_seed p ~ops:(List.length cp.committed);
          Profile.time p Profile.Checkpoint_seed seed)

let state_of recs =
  let st = empty_state () in
  List.iter (step None st) recs;
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
  { committed = List.rev st.committed_rev; live; next_tid = max next_tid st.hwm }

type plan = {
  plan_objects : (string, Op.t list) Hashtbl.t;
  plan_loser_tids : Tid.Set.t;
  plan_ops : int;
  plan_next_tid : int;
}

(* Committed operations land in per-object buckets, so recovery restores
   each object without filtering the whole committed history.  The
   state's list is newest first, so consing onto a bucket leaves it in
   commit order.  One hash lookup per operation: the buckets are refs. *)
let plan_of_state ?profile st =
  let bucket () =
    let by_obj : (string, Op.t list ref) Hashtbl.t = Hashtbl.create 64 in
    let total_ops = ref 0 in
    List.iter
      (fun (op : Op.t) ->
        incr total_ops;
        match Hashtbl.find by_obj op.Op.obj with
        | ops -> ops := op :: !ops
        | exception Not_found -> Hashtbl.add by_obj op.Op.obj (ref [ op ]))
      st.committed_rev;
    let objects = Hashtbl.create (Hashtbl.length by_obj) in
    Hashtbl.iter (fun name ops -> Hashtbl.add objects name !ops) by_obj;
    (objects, !total_ops)
  in
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
  (List.rev st.committed_rev, losers st)

let max_tid recs =
  let st = state_of recs in
  if st.hwm = 0 then None else Some (Tid.of_int (st.hwm - 1))

let fuzzy_checkpoint ~next_tid recs = snapshot ~next_tid (state_of recs)
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
  mutable truncated : int;
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
    truncated = 0;
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
let admit ~durable profile t r =
  step profile t.state r;
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
  admit ~durable:false None t r;
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

let restore ?profile t r =
  match profile with
  | None -> admit ~durable:true None t r
  | Some p ->
      Profile.note_records_scanned p 1;
      Profile.time_excluding p Profile.Log_scan (fun () -> admit ~durable:true profile t r)

(* What stepping the records would have left of them once the checkpoint
   after them is restored: their count, their commits and the tid mark. *)
let restore_superseded t ~records ~commits ~next_tid =
  (match t.sink with
  | None -> invalid_arg "Wal.restore_superseded: a sink-less log holds its records itself"
  | Some _ -> ());
  t.state.hwm <- Int.max t.state.hwm next_tid;
  t.count <- t.count + records;
  Mutex.lock t.flush_lock;
  t.appended <- t.appended + records;
  t.commits_appended <- t.commits_appended + commits;
  t.flushed <- t.appended;
  t.commits_flushed <- t.commits_appended;
  Mutex.unlock t.flush_lock

let of_records recs =
  let t = create () in
  List.iter (restore t) recs;
  t

let records t =
  match t.sink with None -> List.rev t.records_rev | Some s -> s.sink_records ()

let length t = t.count
let truncated t = t.truncated
let in_flight t tid = Hashtbl.mem t.state.pending tid && not (Tid_bits.mem t.state.finished tid)
let plan_of ?profile t = plan_of_state ?profile t.state
let checkpoint_of ~next_tid t = snapshot ~next_tid t.state

let prefix t n =
  let rec take n l = if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r in
  (* The rebuilt log keeps the metrics attachment: a crash loses volatile
     state, not the accounting of the log that survived it.  (Recovery
     re-attaches the new database's registry anyway.)  The sink is NOT
     carried over — a prefix is a volatile recovery artifact, and
     appending to it must not touch the stable storage it came from. *)
  let log = of_records (take n (records t)) in
  log.metrics <- t.metrics;
  log

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
        t.truncated <- t.truncated + dropped;
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
  let write_version = v2
  let supported_versions = [ v1; v2 ]
  let is_supported v = List.mem v supported_versions

  (* The frame header is versioned; the payload encoding (record tag +
     body) is byte-identical across versions, so version negotiation is
     purely a header concern and old payload bytes replay bit-for-bit.

       v1: magic0 magic1 0x01 | payload_len LE32 | crc32 LE32 | payload
       v2: magic0 magic1 0x02 | shard LE16 | payload_len LE32 | crc32 LE32 | payload

     v2 adds a 16-bit shard id (written as 0 until the sharded engine
     lands; any value is accepted on decode) and, with the version byte,
     reserves room for record-kind growth: new record tags arrive only
     under v2 frames, so a v1-only binary can never misparse them — it
     reports a typed foreign-version corruption with the exact offset.
     The magic gives the decoder a resynchronization anchor: after a
     corrupt frame it can scan for the next intact one to tell interior
     corruption from a torn tail. *)
  let magic0 = '\xd7'
  let magic1 = 'W'

  let header_size = function
    | 1 -> 11
    | 2 -> 13
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

     A frame is sized before it is written: the [*_size] functions walk
     a record without allocating, and the [put_*] functions write it
     into [Bytes] of exactly that size, each returning the position
     after what it wrote.  Integers are 8-byte little-endian, strings
     and lists carry their length first. *)

  let rec sum_sizes size acc = function
    | [] -> acc
    | x :: l -> sum_sizes size (acc + size x) l

  let string_size s = 8 + String.length s
  let list_size size l = sum_sizes size 8 l

  let rec value_size = function
    | Value.Unit | Value.Bool _ -> 1
    | Value.Int _ -> 9
    | Value.Str s -> 1 + string_size s
    | Value.List l -> 1 + list_size value_size l

  let op_size (op : Op.t) =
    string_size op.obj
    + string_size op.inv.Op.name
    + list_size value_size op.inv.Op.args
    + value_size op.res

  let live_size (_, ops) = 8 + list_size op_size ops

  (* Payload bytes of [r]: its tag byte and body. *)
  let record_size = function
    | Begin _ | Commit _ | Abort _ | Prepare _ -> 9
    | Operation (_, op) -> 9 + op_size op
    | Checkpoint cp -> 1 + list_size op_size cp.committed + list_size live_size cp.live + 8
    | Truncate_intent _ -> 17
    | Decision _ -> 10

  let put_byte b p c = Bytes.set b p c; p + 1
  let put_int b p i = Bytes.set_int64_le b p (Int64.of_int i); p + 8

  let put_string b p s =
    let n = String.length s in
    Bytes.blit_string s 0 b (put_int b p n) n;
    p + 8 + n

  let rec put_each put b p = function
    | [] -> p
    | x :: l -> put_each put b (put b p x) l

  let put_list put b p l = put_each put b (put_int b p (List.length l)) l
  let put_tid b p tid = put_int b p (Tid.to_int tid)

  let rec put_value b p = function
    | Value.Unit -> put_byte b p '\000'
    | Value.Bool false -> put_byte b p '\001'
    | Value.Bool true -> put_byte b p '\002'
    | Value.Int i -> put_int b (put_byte b p '\003') i
    | Value.Str s -> put_string b (put_byte b p '\004') s
    | Value.List l -> put_list put_value b (put_byte b p '\005') l

  let put_op b p (op : Op.t) =
    let p = put_string b p op.obj in
    let p = put_string b p op.inv.Op.name in
    let p = put_list put_value b p op.inv.Op.args in
    put_value b p op.res

  let put_live b p (tid, ops) = put_list put_op b (put_tid b p tid) ops

  let put_record b p = function
    | Begin tid -> put_tid b (put_byte b p '\000') tid
    | Operation (tid, op) -> put_op b (put_tid b (put_byte b p '\001') tid) op
    | Commit tid -> put_tid b (put_byte b p '\002') tid
    | Abort tid -> put_tid b (put_byte b p '\003') tid
    | Checkpoint cp ->
        let p = put_list put_op b (put_byte b p '\004') cp.committed in
        let p = put_list put_live b p cp.live in
        put_int b p cp.next_tid
    | Truncate_intent { old_len; new_len } ->
        put_int b (put_int b (put_byte b p '\005') old_len) new_len
    | Prepare tid -> put_tid b (put_byte b p '\006') tid
    | Decision { tid; commit } ->
        put_byte b (put_tid b (put_byte b p '\007') tid) (if commit then '\001' else '\000')

  (* Record kinds that postdate the v1 header: they may only travel
     under v2 frames, so a v1-only binary refuses them as a typed
     foreign-version corruption instead of misparsing the payload. *)
  let v2_only_record = function
    | Prepare _ | Decision _ -> true
    | Begin _ | Operation _ | Commit _ | Abort _ | Checkpoint _
    | Truncate_intent _ ->
        false

  (* The bytes [r]'s frame occupies, after checking that [r] may travel
     in a [version] frame of [shard]. *)
  let frame_size ~version ~shard r =
    if not (is_supported version) then
      invalid_arg (Fmt.str "Wal.Codec.encode: unsupported version %d" version);
    if version = v1 && v2_only_record r then
      invalid_arg
        (Fmt.str "Wal.Codec.encode: %s records require v2 frames"
           (record_kind r));
    if version = v1 && shard <> 0 then
      invalid_arg "Wal.Codec.encode: v1 frames carry no shard id";
    if shard < 0 || shard > 0xFFFF then
      invalid_arg (Fmt.str "Wal.Codec.encode: shard %d out of range" shard);
    header_size version + record_size r

  (* Write [r]'s frame at [pos] of [b]: payload first, then the header
     with the payload's length and CRC.  Returns the position after the
     frame. *)
  let put_frame b pos ~version ~shard r =
    let start = pos + header_size version in
    let stop = put_record b start r in
    Bytes.set b pos magic0;
    Bytes.set b (pos + 1) magic1;
    Bytes.set b (pos + 2) (Char.chr version);
    if version = v2 then Bytes.set_uint16_le b (pos + 3) shard;
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
     field, however wrong, can pull in a byte past the frame.

     A log often repeats itself: the same few operations on the same
     objects, frame after frame.  A reader that decodes a run of frames
     ([decode_verified]) carries a decode cache so that it pays for the log's
     variety, not its length.  The cache is direct-mapped and bounded: a
     slot of [ops] holds the operation first decoded from the encoded
     slice [op_off]/[op_len] of the source, and a colliding entry evicts
     the slot's occupant.  The key of an operation is its own bytes in
     the source, so a miss copies no key.  Decoded values are immutable,
     so sharing them is invisible.

     A log that does not repeat gains nothing from the cache and pays
     for it: the walk and hash of every operation, and each miss stored
     in a table the collector must then promote.  So the cache watches
     its own hit rate, a window of [window] lookups at a time.  A window
     in which fewer than one lookup in eight hits leaves the cache idle
     for the next seven windows' worth of operations, which are built
     without a lookup.  A log with no repeats pays the cache on about one
     operation in eight, and one that starts repeating gets it back
     within eight windows.

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

  type memo = {
    op_off : int array;
    op_len : int array;  (* 0: empty, as no operation encodes to no bytes *)
    ops : Op.t array;
    mutable lookups : int;  (* in the current window *)
    mutable hits : int;  (* in the current window *)
    mutable idle : int;  (* operations still to build without a lookup *)
  }

  (* The cache for a pass over [len] bytes: one operation slot per 64
     bytes (an operation's frame takes at least 47), from [window] up to
     [op_slots]. *)
  let new_memo len =
    let rec fit n = if n >= op_slots || 64 * n >= len then n else fit (2 * n) in
    let n = fit window in
    let none = Op.make ~obj:"" "" Value.Unit in
    {
      op_off = Array.make n 0;
      op_len = Array.make n 0;
      ops = Array.make n none;
      lookups = 0;
      hits = 0;
      idle = 0;
    }

  type reader = {
    src : string;
    mutable pos : int;
    mutable stop : int;
    memo : memo option;  (* [None] for single-frame readers *)
  }

  let need r n = if r.stop - r.pos < n then raise (Bad "truncated payload")

  let get_byte r = need r 1; let c = r.src.[r.pos] in r.pos <- r.pos + 1; Char.code c

  let get_int r =
    need r 8;
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let get_len r =
    let n = get_int r in
    if n < 0 || n > r.stop - r.pos then raise (Bad "implausible length") else n

  (* Do bytes [a, a + len) and [b, b + len) of [s] match?  A word at a
     time, and allocating nothing. *)
  let rec same s a b len =
    if len >= 8 then
      (String.get_int64_le s a : int64) = String.get_int64_le s b
      && same s (a + 8) (b + 8) (len - 8)
    else
      len = 0 || (String.unsafe_get s a = String.unsafe_get s b && same s (a + 1) (b + 1) (len - 1))

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

  let get_string r = let n = get_len r in
    let s = String.sub r.src r.pos n in r.pos <- r.pos + n; s

  let[@tail_mod_cons] rec get_n get r n =
    if n = 0 then [] else let x = get r in x :: get_n get r (n - 1)

  let get_list get r = get_n get r (get_len r)
  let get_tid r =
    let n = get_int r in
    if n < 0 then raise (Bad "negative tid") else Tid.of_int n

  let bad_value_tag n = Bad (Fmt.str "bad value tag %d" n)

  let rec get_value r =
    match get_byte r with
    | 0 -> Value.Unit
    | 1 -> Value.Bool false
    | 2 -> Value.Bool true
    | 3 -> Value.Int (get_int r)
    | 4 -> Value.Str (get_string r)
    | 5 -> Value.List (get_list get_value r)
    | n -> raise (bad_value_tag n)

  let build_op r =
    let obj = get_string r in
    let name = get_string r in
    let args = get_list get_value r in
    let res = get_value r in
    { Op.obj; inv = { Op.name; args }; res }

  (* The walk of an operation's encoding: every check [build_op] makes,
     in the same order, so damage raises the same [Bad]; nothing built. *)
  let skip_string r = let n = get_len r in r.pos <- r.pos + n

  let rec skip_value r =
    match get_byte r with
    | 0 | 1 | 2 -> ()
    | 3 -> need r 8; r.pos <- r.pos + 8
    | 4 -> skip_string r
    | 5 -> skip_values r (get_len r)
    | n -> raise (bad_value_tag n)

  and skip_values r n = if n > 0 then (skip_value r; skip_values r (n - 1))

  let skip_op r =
    skip_string r;
    skip_string r;
    skip_values r (get_len r);
    skip_value r

  let get_op r =
    match r.memo with
    | None -> build_op r
    | Some m when m.idle > 0 ->
        m.idle <- m.idle - 1;
        build_op r
    | Some m ->
        let start = r.pos in
        skip_op r;
        let len = r.pos - start in
        (* The table's length is a power of two. *)
        let slot = hash r.src start r.pos len land (Array.length m.ops - 1) in
        let hit =
          Array.unsafe_get m.op_len slot = len
          && same r.src (Array.unsafe_get m.op_off slot) start len
        in
        if hit then m.hits <- m.hits + 1;
        m.lookups <- m.lookups + 1;
        if m.lookups = window then begin
          if 8 * m.hits < window then m.idle <- 7 * window;
          m.lookups <- 0;
          m.hits <- 0
        end;
        if hit then Array.unsafe_get m.ops slot
        else begin
          r.pos <- start;
          let op = build_op r in
          Array.unsafe_set m.op_off slot start;
          Array.unsafe_set m.op_len slot len;
          Array.unsafe_set m.ops slot op;
          op
        end

  let get_live r = let tid = get_tid r in (tid, get_list get_op r)

  let get_record r =
    match get_byte r with
    | 0 -> Begin (get_tid r)
    | 1 -> let tid = get_tid r in Operation (tid, get_op r)
    | 2 -> Commit (get_tid r)
    | 3 -> Abort (get_tid r)
    | 4 ->
        let committed = get_list get_op r in
        let live = get_list get_live r in
        let next_tid = get_int r in
        Checkpoint { committed; live; next_tid }
    | 5 ->
        let old_len = get_int r in
        let new_len = get_int r in
        if old_len < 0 || new_len < 0 then
          raise (Bad "negative truncate-intent length");
        Truncate_intent { old_len; new_len }
    | 6 -> Prepare (get_tid r)
    | 7 ->
        let tid = get_tid r in
        (match get_byte r with
        | 0 -> Decision { tid; commit = false }
        | 1 -> Decision { tid; commit = true }
        | n -> raise (Bad (Fmt.str "bad decision flag %d" n)))
    | n -> raise (Bad (Fmt.str "bad record tag %d" n))

  (* The walk of a record's encoding: every check [get_record] makes, in
     the same order, so damage raises the same [Bad] (a negative tid
     included); nothing built.  It returns the first tid above every tid
     the record mentions, as the replay state's high-water mark counts
     them (a checkpoint's [next_tid] as it stands), or 0 for none. *)
  let skip_tid r = Tid.to_int (get_tid r) + 1

  let rec skip_ops r n = if n > 0 then (skip_op r; skip_ops r (n - 1))

  let rec skip_lives r n hwm =
    if n = 0 then hwm
    else
      let h = skip_tid r in
      skip_ops r (get_len r);
      skip_lives r (n - 1) (Int.max hwm h)

  let skip_record r =
    match get_byte r with
    | 0 | 2 | 3 | 6 -> skip_tid r
    | 1 ->
        let h = skip_tid r in
        skip_op r;
        h
    | 4 ->
        skip_ops r (get_len r);
        let hwm = skip_lives r (get_len r) 0 in
        Int.max hwm (get_int r)
    | 5 ->
        let old_len = get_int r in
        let new_len = get_int r in
        if old_len < 0 || new_len < 0 then
          raise (Bad "negative truncate-intent length");
        0
    | 7 ->
        let h = skip_tid r in
        (match get_byte r with
        | 0 | 1 -> h
        | n -> raise (Bad (Fmt.str "bad decision flag %d" n)))
    | n -> raise (Bad (Fmt.str "bad record tag %d" n))

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

  (* Check the frame at [pos] of [r.src], whose header [check_header]
     accepted with payload length [n], in place: its CRC over the source
     string, then [walk] over the payload, bounded by the frame's end,
     where it leaves [r.stop].  Raises [Bad].  With a profile, CRC
     verification is charged to its own phase (the rest of the frame
     work is the caller's to account). *)
  let check_frame ?profile walk r pos n =
    let s = r.src in
    let start = pos + header_size (Char.code s.[pos + 2]) in
    let expected = Int32.to_int (String.get_int32_le s (start - 4)) land 0xFFFFFFFF in
    let actual =
      match profile with
      | None -> crc32_sub s start n
      | Some p -> Profile.time p Profile.Checksum_verify (fun () -> crc32_sub s start n)
    in
    if actual <> expected then raise (Bad "crc mismatch");
    r.pos <- start;
    r.stop <- start + n;
    let v = walk r in
    if r.pos <> r.stop then raise (Bad "trailing bytes in payload");
    v

  let decode_frame s pos =
    let n = check_header s pos in
    if n < 0 then Error (header_error s pos n)
    else
      let r = { src = s; pos; stop = pos; memo = None } in
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
    let r = { src = s; pos; stop = pos; memo = None } in
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
                match check_frame skip_record r p n with
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
     as its byte offset, its record tag and the tid mark [skip_record]
     reads, all unboxed, so the loop allocates nothing per frame. *)
  let verify_frames ?profile f s =
    let len = String.length s in
    let r = { src = s; pos = 0; stop = 0; memo = None } in
    let rec frames pos =
      if pos = len then None
      else
        let n = check_header s pos in
        if n < 0 then Some (header_error s pos n)
        else
          match check_frame ?profile skip_record r pos n with
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

  (* The decode loop over frames [verify_frames] passed.  One reader, with
     the pass's decode cache if the run is long enough for one, serves
     every frame, and each decoded record goes to [f] with its frame's
     byte offset: the loop itself keeps no record. *)
  let decode_verified ?profile f s ~from ~upto =
    let fail () = invalid_arg "Wal.Codec.decode_verified: not a run of verified frames" in
    if from < 0 || upto > String.length s || from > upto then fail ();
    let memo = if upto - from < min_cached then None else Some (new_memo (upto - from)) in
    let r = { src = s; pos = from; stop = from; memo } in
    let rec frames pos =
      if pos < upto then begin
        let n = check_header s pos in
        if n < 0 then fail ();
        r.pos <- pos + header_size (Char.code s.[pos + 2]);
        r.stop <- r.pos + n;
        let record = get_record r in
        if r.pos <> r.stop then fail ();
        f pos record;
        frames r.stop
      end
      else if pos > upto then fail ()
    in
    let go () = try frames from with Bad _ -> fail () in
    match profile with
    | None -> go ()
    | Some p -> Profile.time_excluding p Profile.Frame_decode go

  let decode_all s =
    match verify_frames (fun _ _ _ -> ()) s with
    | Error c -> Error c
    | Ok (clean_bytes, torn) ->
        let rev = ref [] in
        decode_verified (fun _ record -> rev := record :: !rev) s ~from:0 ~upto:clean_bytes;
        Ok { records = List.rev !rev; clean_bytes; torn }
end
