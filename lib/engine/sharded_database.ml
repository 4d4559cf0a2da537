open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type txn = { mutable touched : int list (* shard ids, newest first; sorted where used *) }

type t = {
  shards : Shard.t array;
  txns : (Tid.t, txn) Hashtbl.t;
  mutable next_tid : int;
  mutable next_gtrace : int;
      (* global trace ids: one per cross-shard commit attempt, stamped
         into every 2PC span the attempt emits on any shard so an
         offline viewer can stitch the per-shard fragments together. *)
  mutable committed : int;
  mutable cross_in_flight : int;
      (* cross-shard transactions between first prepare and completion;
         checkpoints are deferred while > 0 (an in-doubt [Prepare] must
         stay visible to recovery, and a fuzzy checkpoint would erase
         it). *)
  lock : Mutex.t;
      (* global: tid allocation, the txn table, [cross_in_flight] and
         [committed].  Always acquired before any shard mutex, never
         after one. *)
  mutable trace : Trace.t option;  (* the recorder shared by every shard *)
  reg : Metrics.t;  (* engine-level metrics; shards have their own *)
  c_prepares : Metrics.counter;
  c_cross : Metrics.counter;
  c_abort_prepare : Metrics.counter;
  g_flushed : Metrics.gauge array;
  g_inflight : Metrics.gauge;
}

let max_shards = 0x10000 (* shard ids are stamped into u16 frame headers *)

let make_metrics n =
  let reg = Metrics.create () in
  ( reg,
    Metrics.counter reg "tm_2pc_prepares_total",
    Metrics.counter reg "tm_shard_cross_txn_total",
    Metrics.counter reg "tm_2pc_aborts_total" ~labels:[ ("phase", "prepare") ],
    Array.init n (fun i ->
        Metrics.gauge reg "tm_shard_flushed_lsn"
          ~labels:[ ("shard", string_of_int i) ]),
    Metrics.gauge reg "tm_2pc_in_flight" )

let make ?(first_tid = 0) shards =
  let n = Array.length shards in
  let reg, c_prepares, c_cross, c_abort_prepare, g_flushed, g_inflight =
    make_metrics n
  in
  {
    shards;
    txns = Hashtbl.create 64;
    next_tid = first_tid;
    next_gtrace = 0;
    committed = 0;
    cross_in_flight = 0;
    lock = Mutex.create ();
    trace = None;
    reg;
    c_prepares;
    c_cross;
    c_abort_prepare;
    g_flushed;
    g_inflight;
  }

let check_shard_count n =
  if n < 1 then invalid_arg "Sharded_database: at least one shard required";
  if n > max_shards then
    invalid_arg (Fmt.str "Sharded_database: %d shards exceed the frame header's %d" n max_shards)

(* Route the object list to per-shard lists, preserving input order
   within each shard — the same assignment {!recover} must reproduce. *)
let partition_objects ~shards:n objs =
  let parts = Array.make n [] in
  List.iter
    (fun o ->
      let s = Wal.partition_of_object ~workers:n (Atomic_object.name o) in
      parts.(s) <- o :: parts.(s))
    objs;
  Array.map List.rev parts

let create ?record_history ?first_tid ~wals objs =
  let n = Array.length wals in
  check_shard_count n;
  let parts = partition_objects ~shards:n objs in
  let shards =
    Array.init n (fun i ->
        Shard.create ?record_history ~index:i ~wal:wals.(i) parts.(i))
  in
  make ?first_tid shards

let shard_count t = Array.length t.shards
let shards t = t.shards

let shard_of_object t name =
  Wal.partition_of_object ~workers:(Array.length t.shards) name

let find_object t name =
  Database.find_object (Shard.database t.shards.(shard_of_object t name)) name

let objects t =
  Array.to_list t.shards
  |> List.concat_map (fun sh -> Database.objects (Shard.database sh))

(* One recorder shared by every shard: a single logical clock totally
   orders all shards' spans, so a participant's prepare always
   timestamps before the coordinator decision that depended on it —
   the causal order the Perfetto flow arrows render. *)
let set_trace t tr =
  t.trace <- Some tr;
  Array.iter (fun sh -> Database.set_trace (Shard.database sh) tr) t.shards

let trace t = t.trace
let registry t = t.reg

(* Sites test [tracing t s] before building a span kind. *)
let tracing t s = Database.tracing (Shard.database t.shards.(s))

let emit_2pc t s ~tid kind =
  Database.emit_trace (Shard.database t.shards.(s)) ~tid kind

let locked t f = Mutex.protect t.lock f

let txn_of t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some x -> x
  | None ->
      invalid_arg (Fmt.str "Sharded_database: unknown transaction %a" Tid.pp tid)

let begin_txn t =
  locked t (fun () ->
      let tid = Tid.of_int t.next_tid in
      t.next_tid <- t.next_tid + 1;
      Hashtbl.replace t.txns tid { touched = [] };
      tid)

let note_flushed t s =
  Metrics.Gauge.set t.g_flushed.(s) (float_of_int (Wal.flushed_lsn (Shard.wal t.shards.(s))))

let invoke ?choose t tid ~obj inv =
  let s = shard_of_object t obj in
  let sh = t.shards.(s) in
  let first =
    locked t (fun () ->
        let txn = txn_of t tid in
        let first = not (List.mem s txn.touched) in
        if first then txn.touched <- s :: txn.touched;
        first)
  in
  Shard.with_lock sh (fun () ->
      if first then Database.adopt_txn (Shard.database sh) tid;
      Durable_database.invoke ?choose (Shard.db sh) tid ~obj inv)

(* Cross-shard commit: prepare every participant in ascending shard
   order (forcing each yes vote), write the forced decision on the
   coordinator, then complete everywhere lazily.  [parts] is sorted and
   has >= 2 elements. *)
let commit_cross t tid ~gtid parts =
  (* Phase 1.  Each prepare runs under its shard's mutex; the forces
     run after all appends so one group-commit flush per shard covers
     its vote. *)
  let rec prep prepared = function
    | [] -> Ok (List.rev prepared)
    | s :: rest -> (
        let sh = t.shards.(s) in
        match Shard.with_lock sh (fun () -> Durable_database.prepare (Shard.db sh) tid) with
        | Ok lsn ->
            Metrics.Counter.incr t.c_prepares;
            if tracing t s then emit_2pc t s ~tid (Trace.Prepare_append { shard = s; gtid });
            prep ((s, lsn) :: prepared) rest
        | Error e ->
            (* The failing shard already aborted itself.  Roll back the
               yes-voters (their prepares may even be unforced — an
               aborted vote needs no durability), and plain-abort the
               shards the vote never reached. *)
            List.iter
              (fun (p, _) ->
                let shp = t.shards.(p) in
                ignore
                  (Shard.with_lock shp (fun () ->
                       Durable_database.finish_prepared (Shard.db shp) tid
                         ~commit:false));
                if tracing t p then
                  emit_2pc t p ~tid (Trace.Completion { shard = p; gtid; commit = false }))
              prepared;
            List.iter
              (fun p ->
                let shp = t.shards.(p) in
                Shard.with_lock shp (fun () ->
                    Durable_database.abort (Shard.db shp) tid))
              rest;
            Metrics.Counter.incr t.c_abort_prepare;
            Error e)
  in
  match prep [] parts with
  | Error _ as e -> e
  | Ok prepared ->
      List.iter
        (fun (s, lsn) ->
          Wal.force_upto (Shard.wal t.shards.(s)) lsn;
          note_flushed t s;
          if tracing t s then emit_2pc t s ~tid (Trace.Prepare_force { shard = s; lsn; gtid }))
        prepared;
      (* The decision: one forced append on the coordinator's own log —
         the global commit point.  The coordinator is the lowest
         participant index, so its id is derivable from the
         transaction's footprint at recovery (not that presumed abort
         ever needs to ask it anything). *)
      let coord = List.hd parts in
      let shc = t.shards.(coord) in
      let dlsn =
        Shard.with_lock shc (fun () ->
            Wal.append (Shard.wal shc) (Wal.Decision { tid; commit = true });
            if tracing t coord then
              Database.emit_trace (Shard.database shc) ~tid
                (Trace.Wal_append { record = "decision" });
            Wal.last_lsn (Shard.wal shc))
      in
      Wal.force_upto (Shard.wal shc) dlsn;
      note_flushed t coord;
      if tracing t coord then
        emit_2pc t coord ~tid
          (Trace.Decision_force { shard = coord; lsn = dlsn; gtid; commit = true });
      (* Phase 2: complete everywhere.  No force — recovery re-resolves
         a lost completion from the surviving decision evidence. *)
      List.iter
        (fun (s, _) ->
          let sh = t.shards.(s) in
          ignore
            (Shard.with_lock sh (fun () ->
                 Durable_database.finish_prepared (Shard.db sh) tid ~commit:true));
          if tracing t s then emit_2pc t s ~tid (Trace.Completion { shard = s; gtid; commit = true }))
        prepared;
      Ok ()

(* What the durability wait needs: nothing once a cross-shard commit
   has forced its decision (or for a transaction that executed
   nothing), else the single shard's commit record. *)
type pending = Durable | Flush of { shard : int; tid : Tid.t; lsn : int }

let try_commit_nowait t tid =
  let parts, cross, gtid =
    locked t (fun () ->
        let txn = txn_of t tid in
        Hashtbl.remove t.txns tid;
        let parts = List.sort compare txn.touched in
        let cross = List.length parts > 1 in
        let gtid = t.next_gtrace in
        if cross then begin
          t.next_gtrace <- gtid + 1;
          t.cross_in_flight <- t.cross_in_flight + 1;
          Metrics.Gauge.set t.g_inflight (float_of_int t.cross_in_flight);
          Metrics.Counter.incr t.c_cross
        end;
        (parts, cross, gtid))
  in
  let result =
    match parts with
    | [] -> Ok Durable (* executed nothing anywhere: trivially committed *)
    | [ s ] -> (
        (* Single-shard fast path: exactly the unsharded pipeline —
           stage 1 under the shard mutex; the durability park
           ({!wait_durable}) comes outside it, so the group-commit
           combiner can batch neighbours. *)
        let sh = t.shards.(s) in
        match
          Shard.with_lock sh (fun () ->
              Durable_database.try_commit_nowait (Shard.db sh) tid)
        with
        | Error _ as e -> e
        | Ok lsn -> Ok (Flush { shard = s; tid; lsn }))
    | parts -> (
        match commit_cross t tid ~gtid parts with
        | Error _ as e -> e
        | Ok () -> Ok Durable)
  in
  locked t (fun () ->
      if cross then begin
        t.cross_in_flight <- t.cross_in_flight - 1;
        Metrics.Gauge.set t.g_inflight (float_of_int t.cross_in_flight)
      end;
      if Result.is_ok result then t.committed <- t.committed + 1);
  result

let wait_durable t = function
  | Durable -> ()
  | Flush { shard; tid; lsn } ->
      Durable_database.wait_durable (Shard.db t.shards.(shard)) tid lsn;
      note_flushed t shard

let try_commit t tid =
  match try_commit_nowait t tid with
  | Error _ as e -> e
  | Ok pending ->
      wait_durable t pending;
      Ok ()

(* Dynamic atomicity is local (Theorem 2): each shard's lock tables
   and history stand alone.  A waits-for cycle is not local — it may
   thread through several shards — so the search runs over the union of
   every shard's edges. *)
let deadlock t =
  let g = Deadlock.create () in
  Array.iter
    (fun sh ->
      Shard.with_lock sh (fun () ->
          List.iter
            (fun (tid, on) ->
              Deadlock.set_waiting g tid ~on:(on @ Deadlock.waiting g tid))
            (Database.waits_for (Shard.database sh))))
    t.shards;
  Deadlock.find_cycle g

let abort t tid =
  let parts = locked t (fun () ->
      let txn = txn_of t tid in
      Hashtbl.remove t.txns tid;
      List.sort compare txn.touched)
  in
  List.iter
    (fun s ->
      let sh = t.shards.(s) in
      Shard.with_lock sh (fun () -> Durable_database.abort (Shard.db sh) tid))
    parts

let flush t =
  Array.iter (fun sh -> Durable_database.flush (Shard.db sh)) t.shards;
  Array.iteri (fun s _ -> note_flushed t s) t.shards

let checkpoint t =
  locked t (fun () ->
      if t.cross_in_flight > 0 then false
      else begin
        (* Force every shard first: a participant's unforced completion
           record must reach disk before any shard's checkpoint could
           license truncating away the decision evidence that would
           otherwise re-derive it. *)
        Array.iter (fun sh -> Wal.force (Shard.wal sh)) t.shards;
        Array.iteri (fun s _ -> note_flushed t s) t.shards;
        Array.iter
          (fun sh ->
            Shard.with_lock sh (fun () ->
                Durable_database.checkpoint (Shard.db sh)))
          t.shards;
        true
      end)

let committed_count t = locked t (fun () -> t.committed)

let metrics t =
  let out = Metrics.create () in
  Metrics.merge out t.reg;
  Array.iter
    (fun sh ->
      Metrics.merge
        ~extra_labels:[ ("shard", string_of_int (Shard.index sh)) ]
        out (Shard.metrics sh))
    t.shards;
  out

let recover ?audit ~wals ~rebuild () =
  let n = Array.length wals in
  check_shard_count n;
  (* Complete the interrupted protocol in the logs themselves: one
     real outcome record per in-doubt transaction, forced, so ordinary
     single-shard replay below needs no 2PC awareness — and a crash
     during recovery just re-resolves to the same outcomes. *)
  let analysis = Two_phase.analyze (Array.map Wal.records wals) in
  let resolution_events = Two_phase.resolution_events analysis in
  Option.iter (fun f -> f resolution_events) audit;
  let resolved_aborts = ref 0 in
  Array.iteri
    (fun s wal ->
      match Two_phase.resolutions analysis ~shard:s with
      | [] -> ()
      | rs ->
          List.iter
            (fun { Two_phase.tid; commit } ->
              if not commit then incr resolved_aborts;
              Wal.append wal (if commit then Wal.Commit tid else Wal.Abort tid))
            rs;
          Wal.force wal)
    wals;
  let parts = partition_objects ~shards:n (rebuild ()) in
  let rec go s acc =
    if s = n then Ok (List.rev acc)
    else
      match
        Durable_database.recover ~wal:wals.(s)
          ~rebuild:(fun () -> parts.(s))
          ()
      with
      | Error _ as e -> e
      | Ok shard_result -> go (s + 1) (shard_result :: acc)
  in
  match go 0 [] with
  | Error e -> Error e
  | Ok results ->
      let shards =
        Array.of_list
          (List.mapi (fun i (db, _) -> Shard.of_db ~index:i ~wal:wals.(i) db) results)
      in
      (* The global allocator restarts above every shard's high-water
         mark — ids are allocated globally, so the max is the mark. *)
      let first_tid =
        Array.fold_left
          (fun m sh -> max m (Database.next_tid (Shard.database sh)))
          0 shards
      in
      let t = make ~first_tid shards in
      Metrics.Counter.incr ~by:!resolved_aborts
        (Metrics.counter t.reg "tm_2pc_aborts_total"
           ~labels:[ ("phase", "recovery") ]);
      List.iter
        (fun (ev : Two_phase.resolution_event) ->
          Metrics.Counter.incr
            (Metrics.counter t.reg "tm_2pc_resolved_total"
               ~labels:
                 [
                   ("evidence", Two_phase.evidence_name ev.ev_evidence);
                   ("outcome", if ev.ev_commit then "commit" else "abort");
                 ]))
        resolution_events;
      let losers =
        List.fold_left
          (fun acc (_, l) -> Tid.Set.union acc l)
          Tid.Set.empty results
      in
      Ok (t, losers)
