module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type t = {
  db : Database.t;
  wal : Wal.t;
  lock : Mutex.t;  (* serialises engine calls; never held across a force *)
}

let create ?first_tid ~wal objs =
  let db = Database.create ?first_tid objs in
  Wal.attach_metrics wal (Database.metrics db);
  { db; wal; lock = Mutex.create () }

let wal t = t.wal
let database t = t.db
let metrics t = Database.metrics t.db
let begin_txn t = Database.begin_txn t.db

let invoke ?choose t tid ~obj inv =
  let outcome = Database.invoke ?choose t.db tid ~obj inv in
  (match outcome with
  | Atomic_object.Executed op ->
      if not (Wal.in_flight t.wal tid) then Wal.append t.wal (Wal.Begin tid);
      Wal.append t.wal (Wal.Operation (tid, op))
  | Atomic_object.Blocked _ | Atomic_object.No_response -> ());
  outcome

let checkpoint t =
  (* Fuzzy: snapshot the replay state of the log itself — committed
     operations in true global commit order plus the per-transaction logs
     of in-flight transactions — so the pre-checkpoint log segment can be
     truncated without losing losers or the early operations of a
     transaction that commits later.  The allocator position rides along
     as the tid high-water mark.  The log keeps that state, so this
     reads it rather than rescanning the records. *)
  let cp = Wal.checkpoint_of ~next_tid:(Database.next_tid t.db) t.wal in
  Wal.append t.wal (Wal.Checkpoint cp)

(* Only transactions in flight in the log have anything to undo there;
   an Abort for an unlogged transaction would be noise (and inflate
   tm_wal_appends_total{kind="abort"}). *)
let abort t tid =
  if Wal.in_flight t.wal tid then Wal.append t.wal (Wal.Abort tid);
  Database.abort t.db tid

(* The commit-record sequence shared by the one-shot and the 2PC commit:
   append the Commit, read its LSN, apply. *)
let log_commit t tid =
  Wal.append t.wal (Wal.Commit tid);
  let lsn = Wal.last_lsn t.wal in
  Database.commit t.db tid;
  lsn

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
  match Database.validate t.db tid with
  | Error _ as e ->
      abort t tid;
      e
  | Ok () -> Ok (log_commit t tid)

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
     until {!commit_prepared} or {!abort}. *)
  match Database.validate t.db tid with
  | Error _ as e ->
      abort t tid;
      e
  | Ok () ->
      Wal.append t.wal (Wal.Prepare tid);
      Ok (Wal.last_lsn t.wal)

(* Phase 2 needs no force: recovery re-resolves a lost Commit from the
   forced Prepare and the decision evidence. *)
let commit_prepared = log_commit

let decide t tid =
  Wal.append t.wal (Wal.Decision { tid; commit = true });
  Wal.last_lsn t.wal

let wait_durable t tid lsn =
  (* Stage 2: park on the flushed-LSN watermark (the group-commit
     combiner in {!Wal.force_upto}); the commit may be acknowledged
     once the watermark passes the commit record's LSN. *)
  if Database.tracing t.db then
    Database.emit_trace t.db ~tid (Trace.Wal_flush_wait { upto = lsn });
  Wal.force_upto t.wal lsn;
  if Database.tracing t.db then Database.emit_trace t.db ~tid (Trace.Durable { lsn })

let try_commit t tid =
  match try_commit_nowait t tid with
  | Error _ as e -> e
  | Ok lsn ->
      wait_durable t tid lsn;
      Ok ()

let flush t = Wal.force t.wal

let recover ?trace ?profile ~wal ~rebuild () =
  let module Profile = Tm_obs.Recovery_profile in
  (* The log already holds its replay state (stepped as each record was
     appended or loaded); the plan buckets its committed operations by
     object (so restoring is O(committed), not O(objects x committed)),
     resolves the losers and carries the tid high-water mark. *)
  let plan = Wal.plan_of ?profile wal in
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
          Metrics.Counter.add
            (Metrics.counter reg "tm_recovery_replayed_ops_total")
            plan.Wal.plan_ops;
          (match profile with
          | None -> ()
          | Some p ->
              (* The restart is complete: stamp the end-to-end wall, publish
                 the tm_recovery_* family into the recovered database's
                 registry, and emit one trace span per profiled phase. *)
              Profile.finish p;
              Profile.export p reg;
              Option.iter
                (fun tr ->
                  List.iter
                    (fun (phase, wall_us, items) ->
                      Trace.emit_system tr (Trace.Recovery_phase { phase; wall_us; items }))
                    (Profile.spans p))
                trace);
          Ok (t, losers))

(* [Mutex.protect]'s raise path without its closure: unlock [m] and
   re-raise [e] with its backtrace. *)
let release m e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock m;
  Printexc.raise_with_backtrace e bt

let run m f x y =
  Mutex.lock m;
  match f x y with r -> Mutex.unlock m; r | exception e -> release m e

let locked t f x = run t.lock f t x

let locked_invoke ?choose t ~first tid ~obj inv =
  Mutex.lock t.lock;
  match
    if first then Database.adopt_txn t.db tid;
    invoke ?choose t tid ~obj inv
  with
  | r -> Mutex.unlock t.lock; r
  | exception e -> release t.lock e
