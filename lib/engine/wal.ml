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

(* A sink mirrors the in-memory log onto stable storage ({!Disk_wal}):
   appends are persisted as they happen, [force] is the durability
   barrier, and a metrics attachment is forwarded so storage counters
   land in the same registry as the log's own. *)
type sink = {
  sink_append : record -> unit;
  sink_force : unit -> unit;
  sink_attach : Metrics.t -> unit;
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
  mutable records_rev : record list;
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

let make_log records_rev count =
  let commits =
    List.fold_left
      (fun n r -> match r with Commit _ -> n + 1 | _ -> n)
      0 records_rev
  in
  {
    records_rev;
    count;
    truncated = 0;
    metrics = None;
    sink = None;
    appended = count;
    flushed = 0;
    commits_appended = commits;
    commits_flushed = 0;
    flush_lock = Mutex.create ();
    flush_done = Condition.create ();
    flusher_busy = false;
  }

let create () = make_log [] 0
let of_records recs = make_log (List.rev recs) (List.length recs)

(* On-disk format versions.  The byte-level contract lives in {!Codec}
   (and docs/WAL_FORMAT.md); the constants sit up here so the metrics
   attachment below can export the written version without a forward
   reference into the codec. *)
let format_v1 = 1
let format_v2 = 2
let write_format_version = format_v2

let set_sink t sink =
  t.sink <- Some sink;
  (* Everything already present predates the sink (e.g. records decoded
     from the backend by {!Disk_wal.load}); it is exactly what stable
     storage holds, so the watermark starts there. *)
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
  Metrics.Gauge.set
    (Metrics.gauge reg "tm_wal_format_version")
    (float_of_int write_format_version);
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

let force_upto t lsn =
  match t.sink with
  | None -> ()
  | Some s ->
      Mutex.lock t.flush_lock;
      let rec await () =
        if t.flushed >= lsn then Ok ()
        else if t.flusher_busy then begin
          (* Piggyback: a batch is in flight; park on the group-commit
             condition and re-check when its round completes. *)
          Condition.wait t.flush_done t.flush_lock;
          await ()
        end
        else begin
          t.flusher_busy <- true;
          (* Snapshot under the lock: records with lsn <= target finished
             their sink append before being numbered, so the barrier below
             provably covers their bytes. *)
          let target = t.appended in
          let commits_target = t.commits_appended in
          Mutex.unlock t.flush_lock;
          let result = try Ok (s.sink_force ()) with e -> Error e in
          Mutex.lock t.flush_lock;
          t.flusher_busy <- false;
          match result with
          | Ok () ->
              if target > t.flushed then begin
                t.flushed <- target;
                let batch = commits_target - t.commits_flushed in
                t.commits_flushed <- max t.commits_flushed commits_target;
                note_force t batch
              end;
              Condition.broadcast t.flush_done;
              await ()
          | Error e ->
              (* The flusher died.  Hand the round over — a parked waiter
                 wakes, finds the combiner free and retries the flush
                 itself — and surface the failure to this caller (no
                 thread is left blocked on a dead flusher). *)
              Condition.broadcast t.flush_done;
              Error e
        end
      in
      let result = await () in
      Mutex.unlock t.flush_lock;
      (match result with Ok () -> () | Error e -> raise e)

let force t = force_upto t t.appended

let mark_all_flushed t =
  Mutex.lock t.flush_lock;
  t.flushed <- max t.flushed t.appended;
  t.commits_flushed <- max t.commits_flushed t.commits_appended;
  Mutex.unlock t.flush_lock

let append t r =
  t.records_rev <- r :: t.records_rev;
  t.count <- t.count + 1;
  (match t.sink with None -> () | Some s -> s.sink_append r);
  (* Publish the LSN only after the sink has the bytes: a flusher that
     snapshots [appended] and forces is then guaranteed to have covered
     every numbered record.  Counter updates are taken under [flush_lock]
     so a concurrent flusher's snapshot is consistent. *)
  Mutex.lock t.flush_lock;
  t.appended <- t.appended + 1;
  (match r with Commit _ -> t.commits_appended <- t.commits_appended + 1 | _ -> ());
  Mutex.unlock t.flush_lock;
  match t.metrics with
  | None -> ()
  | Some m -> (
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
      Metrics.Counter.incr appends;
      match r with
      | Checkpoint cp ->
          Metrics.Histogram.observe_int
            (Metrics.histogram m.reg "tm_wal_checkpoint_ops")
            (List.length cp.committed)
      | Begin _ | Operation _ | Commit _ | Abort _ | Truncate_intent _
      | Prepare _ | Decision _ ->
          ())

let records t = List.rev t.records_rev
let length t = t.count
let truncated t = t.truncated

let prefix t n =
  let rec take n l = if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r in
  let kept = take n (records t) in
  (* The rebuilt log keeps the metrics attachment: a crash loses volatile
     state, not the accounting of the log that survived it.  (Recovery
     re-attaches the new database's registry anyway.)  The sink is NOT
     carried over — a prefix is a volatile recovery artifact, and
     appending to it must not touch the stable storage it came from. *)
  let log = make_log (List.rev kept) (List.length kept) in
  log.metrics <- t.metrics;
  log

let truncate_to_checkpoint t =
  (* [records_rev] is newest first, so the first [Checkpoint] found is the
     latest one; everything older is summarised by it (the fuzzy snapshot
     carries live transactions' logs) and can be dropped. *)
  let rec split kept_rev = function
    | [] -> None
    | (Checkpoint _ as c) :: older -> Some (kept_rev, c, older)
    | r :: older -> split (r :: kept_rev) older
  in
  match split [] t.records_rev with
  | None -> 0
  | Some (newer_rev, c, older) ->
      let dropped = List.length older in
      if dropped > 0 then begin
        t.records_rev <- List.rev_append newer_rev [ c ];
        t.count <- t.count - dropped;
        t.truncated <- t.truncated + dropped;
        match t.metrics with
        | None -> ()
        | Some m ->
            Metrics.Counter.incr ~by:dropped
              (Metrics.counter m.reg "tm_wal_truncated_records_total")
      end;
      dropped

(* One pass shared by [replay], [fuzzy_checkpoint] and [max_tid]: fold the
   log into committed operations (commit order), the per-transaction logs
   of unfinished transactions, and the tid high-water mark.  A checkpoint
   record summarises its whole prefix, so scanning restarts from its
   snapshot (only the high-water mark is carried monotonically through). *)
type scan = {
  mutable committed_rev : Op.t list;
  ops_of : (Tid.t, Op.t list) Hashtbl.t;  (* newest first; unfinished txns *)
  seen : (Tid.t, unit) Hashtbl.t;
  finished : (Tid.t, unit) Hashtbl.t;
  mutable hwm : int;  (* first tid strictly above every tid in the log *)
}

let scan ?profile recs =
  let st =
    {
      committed_rev = [];
      ops_of = Hashtbl.create 16;
      seen = Hashtbl.create 16;
      finished = Hashtbl.create 16;
      hwm = 0;
    }
  in
  let note tid = st.hwm <- max st.hwm (Tid.to_int tid + 1) in
  List.iter
    (fun r ->
      match r with
      | Begin tid ->
          note tid;
          Hashtbl.replace st.seen tid ()
      | Operation (tid, op) ->
          note tid;
          Hashtbl.replace st.seen tid ();
          Hashtbl.replace st.ops_of tid
            (op :: Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[])
      | Commit tid ->
          note tid;
          st.committed_rev <-
            Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[] @ st.committed_rev;
          Hashtbl.remove st.ops_of tid;
          Hashtbl.replace st.finished tid ()
      | Abort tid ->
          note tid;
          Hashtbl.remove st.ops_of tid;
          Hashtbl.replace st.finished tid ()
      | Truncate_intent _ ->
          (* A compaction journal marker; {!Disk_wal.load} resolves it
             before the log reaches replay, but a decoded stray is
             harmless — it carries no transaction state. *)
          ()
      | Prepare tid ->
          (* A prepared transaction voted yes in a cross-shard commit but
             this shard's log alone cannot tell the outcome.  Plain
             replay treats it exactly like any other unfinished
             transaction — presumed abort — so a participant whose
             coordinator never decided loses nothing it was entitled to
             keep.  {!Sharded_database.recover} resolves in-doubt
             transactions against the other shards' logs {e before}
             replay by appending the real outcome record. *)
          note tid;
          Hashtbl.replace st.seen tid ()
      | Decision { tid; commit = _ } ->
          (* The coordinator's 2PC outcome record.  It is pure
             coordination state: it must NOT mark the transaction as
             locally begun — on the coordinator's own shard the
             transaction also logs its local Prepare/Commit records, and
             a shard that only coordinated (no local ops) must not grow
             a phantom loser. *)
          note tid
      | Checkpoint cp ->
          (* The snapshot stands for the whole prefix: committed operations
             and the logs of transactions that were in flight when it was
             taken.  Everything else about the prefix is forgotten. *)
          let seed () =
            st.committed_rev <- List.rev cp.committed;
            Hashtbl.reset st.ops_of;
            Hashtbl.reset st.seen;
            Hashtbl.reset st.finished;
            List.iter
              (fun (tid, ops) ->
                note tid;
                Hashtbl.replace st.seen tid ();
                if ops <> [] then Hashtbl.replace st.ops_of tid (List.rev ops))
              cp.live;
            st.hwm <- max st.hwm cp.next_tid
          in
          (match profile with
          | None -> seed ()
          | Some p ->
              Profile.note_checkpoint_seed p ~ops:(List.length cp.committed);
              Profile.time p Profile.Checkpoint_seed seed))
    recs;
  st

let replay ?profile recs =
  let st =
    match profile with
    | None -> scan recs
    | Some p ->
        Profile.note_records_scanned p (List.length recs);
        Profile.time_excluding p Profile.Log_scan ~minus:Profile.Checkpoint_seed
          (fun () -> scan ~profile:p recs)
  in
  let compute_losers () =
    Hashtbl.fold
      (fun tid () acc -> if Hashtbl.mem st.finished tid then acc else Tid.Set.add tid acc)
      st.seen Tid.Set.empty
  in
  let losers =
    match profile with
    | None -> compute_losers ()
    | Some p ->
        (* Redo-only log: "undoing" a loser is resolving that it never
           took effect — nothing to roll back, so this phase is pure
           set computation. *)
        let losers = Profile.time p Profile.Loser_undo compute_losers in
        Profile.note_losers p (Tid.Set.cardinal losers);
        losers
  in
  (List.rev st.committed_rev, losers)

let max_tid recs =
  let st = scan recs in
  if st.hwm = 0 then None else Some (Tid.of_int (st.hwm - 1))

(* ------------------------------------------------------------------ *)
(* Replay plan: the restart fold.                                      *)

type plan = {
  plan_objects : (string, Op.t list) Hashtbl.t;
  plan_loser_tids : Tid.Set.t;
  plan_ops : int;
  plan_next_tid : int;
}

let partition_of_object ~workers name = Hashtbl.hash name mod workers

let plan ?profile ~workers recs =
  if workers <> 1 then invalid_arg "Wal.plan: workers must be 1";
  (* The same fold as [scan], but committed operations land directly in
     per-object buckets (newest first until the final reversal) instead
     of one global list, so recovery restores each object without
     filtering the whole committed history.  One hash lookup per
     bucketed operation: the buckets are refs. *)
  let by_obj : (string, Op.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let ops_of : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let finished = Hashtbl.create 16 in
  let hwm = ref 0 in
  let total_ops = ref 0 in
  let note tid = hwm := max !hwm (Tid.to_int tid + 1) in
  let bucket (op : Op.t) =
    incr total_ops;
    match Hashtbl.find by_obj op.Op.obj with
    | ops -> ops := op :: !ops
    | exception Not_found -> Hashtbl.add by_obj op.Op.obj (ref [ op ])
  in
  let step = function
    | Begin tid ->
        note tid;
        Hashtbl.replace seen tid ()
    | Operation (tid, op) ->
        note tid;
        Hashtbl.replace seen tid ();
        (* [find] rather than [find_opt]: no [Some] per operation. *)
        Hashtbl.replace ops_of tid
          (op
          :: (match Hashtbl.find ops_of tid with
             | ops -> ops
             | exception Not_found -> []))
    | Commit tid ->
        note tid;
        (match Hashtbl.find ops_of tid with
        | ops -> List.iter bucket (List.rev ops)
        | exception Not_found -> ());
        Hashtbl.remove ops_of tid;
        Hashtbl.replace finished tid ()
    | Abort tid ->
        note tid;
        Hashtbl.remove ops_of tid;
        Hashtbl.replace finished tid ()
    | Truncate_intent _ -> ()
    | Prepare tid ->
        (* Same presumed-abort reading as [scan]: prepared-but-undecided
           is a loser until a resolution record says otherwise. *)
        note tid;
        Hashtbl.replace seen tid ()
    | Decision { tid; commit = _ } -> note tid
    | Checkpoint cp ->
        let seed () =
          Hashtbl.reset by_obj;
          total_ops := 0;
          List.iter bucket cp.committed;
          Hashtbl.reset ops_of;
          Hashtbl.reset seen;
          Hashtbl.reset finished;
          List.iter
            (fun (tid, ops) ->
              note tid;
              Hashtbl.replace seen tid ();
              if ops <> [] then Hashtbl.replace ops_of tid (List.rev ops))
            cp.live;
          hwm := max !hwm cp.next_tid
        in
        (match profile with
        | None -> seed ()
        | Some p ->
            Profile.note_checkpoint_seed p ~ops:(List.length cp.committed);
            Profile.time p Profile.Checkpoint_seed seed)
  in
  let fold () =
    List.iter step recs;
    let objects = Hashtbl.create (Hashtbl.length by_obj) in
    Hashtbl.iter (fun name ops -> Hashtbl.add objects name (List.rev !ops)) by_obj;
    objects
  in
  let objects =
    match profile with
    | None -> fold ()
    | Some p ->
        Profile.note_records_scanned p (List.length recs);
        Profile.time_excluding p Profile.Log_scan ~minus:Profile.Checkpoint_seed fold
  in
  let compute_losers () =
    Hashtbl.fold
      (fun tid () acc -> if Hashtbl.mem finished tid then acc else Tid.Set.add tid acc)
      seen Tid.Set.empty
  in
  let losers =
    match profile with
    | None -> compute_losers ()
    | Some p ->
        let losers = Profile.time p Profile.Loser_undo compute_losers in
        Profile.note_losers p (Tid.Set.cardinal losers);
        losers
  in
  {
    plan_objects = objects;
    plan_loser_tids = losers;
    plan_ops = !total_ops;
    plan_next_tid = !hwm;
  }

(* ------------------------------------------------------------------ *)
(* Binary framing for the on-disk log.                                 *)

module Codec = struct
  let v1 = format_v1
  let v2 = format_v2
  let write_version = write_format_version
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

  (* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).  The table
     and the running value are plain [int]s, so no step boxes an [int32]
     and a CRC allocates nothing. *)
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  (* The CRC of the [len] bytes of [b] from [off], as an unsigned 32-bit
     [int]. *)
  let crc32_bytes b off len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Wal.Codec.crc32_bytes";
    let c = ref 0xFFFFFFFF in
    for i = off to off + len - 1 do
      c :=
        Array.unsafe_get crc_table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
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
     field, however wrong, can pull in a byte past the frame. *)

  exception Bad of string

  type reader = { src : string; mutable pos : int; mutable stop : int }

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

  let get_string r = let n = get_len r in
    let s = String.sub r.src r.pos n in r.pos <- r.pos + n; s

  let[@tail_mod_cons] rec get_n get r n =
    if n = 0 then [] else let x = get r in x :: get_n get r (n - 1)

  let get_list get r = get_n get r (get_len r)
  let get_tid r = Tid.of_int (get_int r)

  let rec get_value r =
    match get_byte r with
    | 0 -> Value.Unit
    | 1 -> Value.Bool false
    | 2 -> Value.Bool true
    | 3 -> Value.Int (get_int r)
    | 4 -> Value.Str (get_string r)
    | 5 -> Value.List (get_list get_value r)
    | n -> raise (Bad (Fmt.str "bad value tag %d" n))

  let get_op r =
    let obj = get_string r in
    let name = get_string r in
    let args = get_list get_value r in
    let res = get_value r in
    { Op.obj; inv = { Op.name; args }; res }

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

  type corruption = {
    offset : int;
    version : int option;
    reason : string;
  }

  let pp_corruption ppf c =
    match c.version with
    | None -> Fmt.pf ppf "byte %d: %s" c.offset c.reason
    | Some v -> Fmt.pf ppf "byte %d (v%d frame): %s" c.offset v c.reason

  type header = {
    h_version : int;
    h_shard : int;  (* 0 for v1 frames *)
    h_payload_len : int;
    h_size : int;  (* header bytes before the payload *)
  }

  (* The one header parse — the single version-negotiation point every
     reader (decode, resync scan, journal search, forensics) dispatches
     through.  [check_header s pos] validates the frame header at [pos]
     and returns its payload length, or one of the negative codes below.
     It pays no CRC and allocates nothing, so the decoders build no
     [result] or [header] per frame. *)
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

  let read_header s pos =
    let n = check_header s pos in
    if n < 0 then Error (header_error s pos n)
    else
      let v = Char.code s.[pos + 2] in
      Ok
        {
          h_version = v;
          h_shard = (if v = v1 then 0 else String.get_uint16_le s (pos + 3));
          h_payload_len = n;
          h_size = header_size v;
        }

  (* Verify and decode, in place, the frame at [pos] of [r.src], whose
     header [check_header] accepted with payload length [n]: the CRC runs
     over the source string and [r] is bounded by the frame's end, where
     it leaves [r.stop].  Raises [Bad].  With a profile, CRC verification
     is charged to its own phase (the rest of the frame work is the
     caller's to account). *)
  let read_frame ?profile r pos n =
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
    let record = get_record r in
    if r.pos <> r.stop then raise (Bad "trailing bytes in payload");
    record

  let decode_frame ?profile s pos =
    let n = check_header s pos in
    if n < 0 then Error (header_error s pos n)
    else
      let r = { src = s; pos; stop = pos } in
      match read_frame ?profile r pos n with
      | record -> Ok (record, r.stop)
      | exception Bad reason -> Error (frame_error s pos reason)

  (* Is there an intact frame anywhere at or after [pos]?  Used to
     classify a decode failure: damage followed by provably-written data
     is interior corruption; damage extending to the end of the log is a
     torn tail.

     The resync cursor anchors on the magic bytes ([String.index_from]
     skips damage at memchr speed) and rejects implausible headers
     before paying for a CRC, so a heavily damaged log costs one cheap
     header check per 0xd7 byte rather than a full decode per byte
     offset.  [budget] caps the payload bytes spent on CRC probes of
     plausible-looking candidates (adversarially structured damage can
     synthesise many): an exhausted budget returns [true] — the
     conservative verdict, interior corruption — so a refusal can never
     degrade into silently dropping records as a torn tail. *)
  let default_probe_budget = 1 lsl 24

  let valid_frame_after ?(budget = default_probe_budget) s pos =
    let len = String.length s in
    let r = { src = s; pos; stop = pos } in
    let rec resync budget pos =
      if pos + min_header_size > len then false
      else
        match String.index_from_opt s pos magic0 with
        | None -> false
        | Some p ->
            if p + min_header_size > len then false
            else
              let n = check_header s p in
              if n < 0 then resync budget (p + 1)
              else if budget <= 0 then true
              else
                match read_frame r p n with
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

  (* One reader serves every frame, and the list is built in order
     (tail modulo cons), so a decoded frame costs its record and one list
     cell. *)
  let decode_all ?profile s =
    let len = String.length s in
    let r = { src = s; pos = 0; stop = 0 } in
    let damage = ref None in
    let[@tail_mod_cons] rec frames pos =
      if pos = len then []
      else
        let n = check_header s pos in
        if n < 0 then (damage := Some (header_error s pos n); [])
        else
          match read_frame ?profile r pos n with
          | record ->
              (match profile with None -> () | Some p -> Profile.note_frame p);
              record :: frames r.stop
          | exception Bad reason -> (damage := Some (frame_error s pos reason); [])
    in
    let go () =
      let records = frames 0 in
      match !damage with
      | None -> Ok { records; clean_bytes = len; torn = None }
      | Some c ->
          (* Tail or interior?  A later intact frame proves bytes past
             the damage were durably written, so the damage cannot be
             an interrupted final append. *)
          if valid_frame_after s (c.offset + 1) then Error c
          else Ok { records; clean_bytes = c.offset; torn = Some c }
    in
    match profile with
    | None -> go ()
    | Some p ->
        let result =
          Profile.time_excluding p Profile.Frame_decode
            ~minus:Profile.Checksum_verify go
        in
        (match result with
        | Ok { clean_bytes; _ } -> Profile.note_torn_bytes p (len - clean_bytes)
        | Error _ -> ());
        result
end

let fuzzy_checkpoint ?(next_tid = 0) recs =
  let st = scan recs in
  let live =
    Hashtbl.fold
      (fun tid () acc ->
        if Hashtbl.mem st.finished tid then acc
        else
          (tid, List.rev (Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[]))
          :: acc)
      st.seen []
    |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
  in
  { committed = List.rev st.committed_rev; live; next_tid = max next_tid st.hwm }
