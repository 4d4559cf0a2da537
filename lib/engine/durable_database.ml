open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type t = {
  db : Database.t;
  wal : Wal.t;
  begun : (Tid.t, unit) Hashtbl.t;
}

let create ?record_history ?first_tid ~wal objs =
  let db = Database.create ?record_history ?first_tid objs in
  Wal.attach_metrics wal (Database.metrics db);
  { db; wal; begun = Hashtbl.create 16 }

let database t = t.db
let begin_txn t = Database.begin_txn t.db

let log t tid r =
  Wal.append t.wal r;
  Database.emit_trace t.db ~tid (Trace.Wal_append { record = Wal.record_kind r })

let invoke ?choose t tid ~obj inv =
  let outcome = Database.invoke ?choose t.db tid ~obj inv in
  (match outcome with
  | Atomic_object.Executed op ->
      if not (Hashtbl.mem t.begun tid) then begin
        Hashtbl.add t.begun tid ();
        log t tid (Wal.Begin tid)
      end;
      log t tid (Wal.Operation (tid, op))
  | Atomic_object.Blocked _ | Atomic_object.No_response -> ());
  outcome

let emit_system db kind =
  match Database.trace db with Some tr -> Trace.emit_system tr kind | None -> ()

let checkpoint t =
  (* Fuzzy: snapshot the replay state of the log itself — committed
     operations in true global commit order plus the per-transaction logs
     of in-flight transactions — so the pre-checkpoint log segment can be
     truncated without losing losers or the early operations of a
     transaction that commits later.  The allocator position rides along
     as the tid high-water mark. *)
  let cp =
    Wal.fuzzy_checkpoint ~next_tid:(Database.next_tid t.db) (Wal.records t.wal)
  in
  Wal.append t.wal (Wal.Checkpoint cp);
  emit_system t.db (Trace.Checkpoint { ops = List.length cp.Wal.committed })

(* Validate at every object (a no-op for locking objects): the shared
   first step of both the one-shot commit and the 2PC prepare. *)
let validate_all t tid =
  List.find_map
    (fun o ->
      match Atomic_object.validate o tid with
      | Ok () -> None
      | Error (mine, theirs) -> Some (Atomic_object.name o, mine, theirs))
    (Database.objects t.db)

(* Only transactions that logged a Begin have anything to undo in the
   log; an Abort for an unlogged transaction would be noise (and
   inflate tm_wal_appends_total{kind="abort"}). *)
let log_abort_if_begun t tid =
  if Hashtbl.mem t.begun tid then begin
    log t tid (Wal.Abort tid);
    Hashtbl.remove t.begun tid
  end

let try_commit_nowait t tid =
  (* Stage 1 of the commit pipeline: validate first (nothing logged on
     failure), append the single commit record — fixing the
     transaction's place in the durable commit order at every object —
     and apply.  Durability is NOT awaited here: the caller holds
     whatever engine lock serialises this stage and must release it
     before parking on the watermark ({!wait_durable}), so the fsync
     never runs under the lock.  Applying before durability is sound:
     any transaction that reads the applied state commits {e later} in
     the log, so a crash that loses this commit record also loses every
     dependent one (the log's prefix property). *)
  match validate_all t tid with
  | Some _ as e ->
      log_abort_if_begun t tid;
      Database.abort t.db tid;
      (match e with Some x -> Error x | None -> assert false)
  | None ->
      log t tid (Wal.Commit tid);
      let lsn = Wal.last_lsn t.wal in
      Hashtbl.remove t.begun tid;
      Database.commit t.db tid;
      Ok lsn

(* --- 2PC participant half: prepare / finish, split out of the
   one-shot path above for {!Sharded_database}. *)

let prepare t tid =
  (* Phase 1 on a participant shard: validate exactly as a local commit
     would, then log the Prepare — the promise that every operation of
     the transaction on this shard precedes it in the log, so a
     recovered shard holding the Prepare can install the transaction in
     full once the global decision is known.  The caller must force the
     returned LSN before voting yes.  Nothing is applied yet: the
     transaction stays live (locks held, optimistic intentions parked)
     until {!finish_prepared}. *)
  match validate_all t tid with
  | Some _ as e ->
      log_abort_if_begun t tid;
      Database.abort t.db tid;
      (match e with Some x -> Error x | None -> assert false)
  | None ->
      log t tid (Wal.Prepare tid);
      Ok (Wal.last_lsn t.wal)

let finish_prepared t tid ~commit =
  (* Phase 2: the global decision is in — log the local outcome record
     and apply it.  The append is {e lazy} durability: if a crash loses
     it, the shard recovers the transaction as in-doubt (its Prepare
     survives, forced) and {!Sharded_database.recover} re-resolves it
     from the surviving decision evidence, appending the same outcome
     again — this function and recovery are idempotent completions of
     the same protocol. *)
  if commit then begin
    log t tid (Wal.Commit tid);
    let lsn = Wal.last_lsn t.wal in
    Hashtbl.remove t.begun tid;
    Database.commit t.db tid;
    lsn
  end
  else begin
    log_abort_if_begun t tid;
    Database.abort t.db tid;
    Wal.last_lsn t.wal
  end

let wait_durable t tid lsn =
  (* Stage 2: park on the flushed-LSN watermark (the group-commit
     combiner in {!Wal.force_upto}); the commit may be acknowledged
     once the watermark passes the commit record's LSN. *)
  Database.emit_trace t.db ~tid (Trace.Wal_flush_wait { upto = lsn });
  Wal.force_upto t.wal lsn;
  Database.emit_trace t.db ~tid (Trace.Durable { lsn })

let try_commit t tid =
  match try_commit_nowait t tid with
  | Error _ as e -> e
  | Ok lsn ->
      wait_durable t tid lsn;
      Ok ()

let flush t =
  Wal.force t.wal;
  emit_system t.db Trace.Wal_force

let abort t tid =
  if Hashtbl.mem t.begun tid then begin
    log t tid (Wal.Abort tid);
    Hashtbl.remove t.begun tid
  end;
  Database.abort t.db tid

let recover ?trace ?profile ~wal ~rebuild () =
  let module Profile = Tm_obs.Recovery_profile in
  (* One fold buckets committed operations by object (so restoring is
     O(committed), not O(objects x committed)), resolves the losers and
     carries the tid high-water mark. *)
  let plan = Wal.plan ?profile ~workers:1 (Wal.records wal) in
  let losers = plan.Wal.plan_loser_tids in
  let objs = rebuild () in
  (* Every object the log commits to must be rebuilt: restoring the
     others and dropping its operations would lose committed work. *)
  let unrebuilt =
    let rebuilt = Hashtbl.create 16 in
    List.iter (fun o -> Hashtbl.replace rebuilt (Atomic_object.name o) ()) objs;
    Hashtbl.fold
      (fun name ops acc ->
        if Hashtbl.mem rebuilt name then acc else (name, List.length ops) :: acc)
      plan.Wal.plan_objects []
    |> List.sort compare
  in
  let restore o =
    let name = Atomic_object.name o in
    let ops =
      match Hashtbl.find plan.Wal.plan_objects name with
      | ops -> ops
      | exception Not_found -> []
    in
    match profile with
    | None -> Atomic_object.restore o ops
    | Some p ->
        Profile.note_object_replay p ~obj:name (List.length ops);
        Profile.time p Profile.Object_replay (fun () -> Atomic_object.restore o ops)
  in
  let rec restore_all = function
    | [] -> Ok ()
    | o :: rest -> (
        match restore o with Ok () -> restore_all rest | Error _ as e -> e)
  in
  match unrebuilt with
  | (obj, n) :: _ ->
      Error
        {
          Recovery.obj;
          reason =
            Fmt.str
              "log holds %d committed operations, rebuild supplied no such \
               object"
              n;
        }
  | [] -> (
      match restore_all objs with
      | Error _ as e -> e
      | Ok () ->
          (* Post-crash transactions must allocate above every tid the log
             still mentions: a reused tid would merge a new transaction's
             records with a pre-crash loser's on the next replay. *)
          let t = create ~first_tid:plan.Wal.plan_next_tid ~wal objs in
          (match trace with None -> () | Some tr -> Database.set_trace t.db tr);
          let reg = Database.metrics t.db in
          Metrics.Counter.incr ~by:plan.Wal.plan_ops
            (Metrics.counter reg "tm_recovery_replayed_ops_total");
          Metrics.Counter.incr ~by:(Tid.Set.cardinal losers)
            (Metrics.counter reg "tm_recovery_loser_txns_total");
          (match profile with
          | None -> ()
          | Some p ->
              (* The restart is complete: stamp the end-to-end wall, publish
                 the tm_recovery_* family into the recovered database's
                 registry, and emit one trace span per profiled phase. *)
              Profile.finish p;
              Profile.export p reg;
              List.iter
                (fun (phase, wall_us, items) ->
                  emit_system t.db (Trace.Recovery_phase { phase; wall_us; items }))
                (Profile.spans p));
          emit_system t.db
            (Trace.Crash_recover
               { replayed = plan.Wal.plan_ops; losers = Tid.Set.cardinal losers });
          Ok (t, losers))
