open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

(* An entry belongs to the thread running its transaction; only the
   table that holds it and the spare stack are under the global mutex.
   A record goes back on the spare stack after an abort, a failed
   commit or the durability wait that consumes it as [pending], and the
   next [begin_txn] takes it. *)
type txn = {
  mutable tid : Tid.t;
  mutable shards : int array;
      (* touched shard ids, ascending, in [shards.(0 .. nshards - 1)];
         grown by doubling and kept when the record is reused *)
  mutable nshards : int;
  mutable lsns : int array;  (* [lsns.(i)]: the prepare LSN of [shards.(i)] *)
  mutable mark : int;
      (* -1 until retired to commit; then a single-shard commit's record
         LSN, or a cross-shard commit's global trace id *)
}

let fresh_txn tid = { tid; shards = [||]; nshards = 0; lsns = [||]; mark = -1 }

(* The value of an empty slot of the table and the spare stack. *)
let no_txn = fresh_txn Tid.a

let is_cross txn = txn.nshards >= 2

type t = {
  shards : Shard.t array;
  txns : txn Tid_table.t;
  spare : txn Spare.t;  (* finished records, reset *)
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
  waits : Deadlock.t;  (* the waits-for graph shared by every shard *)
  reg : Metrics.t;  (* engine-level metrics; shards have their own *)
  c_prepares : Metrics.counter;
  c_cross : Metrics.counter;
  c_abort_prepare : Metrics.counter;
}

let max_shards = 0x10000 (* shard ids are stamped into u16 frame headers *)

let make ?(first_tid = 0) shards =
  let reg = Metrics.create () and waits = Deadlock.create () in
  Array.iteri (fun s sh -> Database.share_waits (Shard.database sh) waits ~shard:s) shards;
  {
    shards;
    txns = Tid_table.create ~dummy:no_txn;
    spare = Spare.create no_txn;
    next_tid = first_tid;
    next_gtrace = 0;
    committed = 0;
    cross_in_flight = 0;
    lock = Mutex.create ();
    trace = None;
    waits;
    reg;
    c_prepares = Metrics.counter reg "tm_2pc_prepares_total";
    c_cross = Metrics.counter reg "tm_shard_cross_txn_total";
    c_abort_prepare = Metrics.counter reg "tm_2pc_aborts_total" ~labels:[ ("phase", "prepare") ];
  }

let check_shard_count n =
  if n < 1 then invalid_arg "Sharded_database: at least one shard required";
  if n > max_shards then
    invalid_arg (Fmt.str "Sharded_database: %d shards exceed the frame header's %d" n max_shards)

(* The router: a stable hash of the name, the same in every run. *)
let home_shard ~shards name = Wal.partition_of_object ~workers:shards name

(* Route the object list to per-shard lists, preserving input order
   within each shard — the same assignment {!recover} must reproduce. *)
let partition_objects ~shards:n objs =
  let parts = Array.make n [] in
  List.iter
    (fun o ->
      let s = home_shard ~shards:n (Atomic_object.name o) in
      parts.(s) <- o :: parts.(s))
    objs;
  Array.map List.rev parts

let create ?first_tid ~wals objs =
  let n = Array.length wals in
  check_shard_count n;
  let parts = partition_objects ~shards:n objs in
  make ?first_tid (Array.init n (fun i -> Shard.create ~wal:wals.(i) parts.(i)))

let shards t = t.shards

let shard_of_object t name = home_shard ~shards:(Array.length t.shards) name

let find_object t name =
  Database.find_object (Shard.database t.shards.(shard_of_object t name)) name

let objects t =
  Array.to_list t.shards
  |> List.concat_map (fun sh -> Database.objects (Shard.database sh))

(* One recorder shared by every shard: a single logical clock totally
   orders all shards' spans, so a participant's prepare always
   timestamps before the coordinator decision that depended on it. *)
let set_trace t tr =
  t.trace <- Some tr;
  Array.iter (fun sh -> Database.set_trace (Shard.database sh) tr) t.shards

let trace t = t.trace
let registry t = t.reg

(* Sites test [tracing t s] before building a span kind. *)
let tracing t s = Database.tracing (Shard.database t.shards.(s))

let emit_2pc t s ~tid kind =
  Database.emit_trace (Shard.database t.shards.(s)) ~tid kind

(* [locked t f x] is [f t x] under the global mutex; callers pass a
   top-level [f], so no section builds a closure. *)
let locked t f x = Shard.run t.lock f t x

let txn_of t tid =
  match Tid_table.find t.txns tid with
  | x -> x
  | exception Not_found ->
      invalid_arg (Fmt.str "Sharded_database: unknown transaction %a" Tid.pp tid)

let new_txn t () =
  let tid = Tid.of_int t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let txn = Spare.pop t.spare in
  let txn =
    if txn == no_txn then fresh_txn tid
    else begin
      txn.tid <- tid;
      txn
    end
  in
  Tid_table.replace t.txns tid txn;
  tid

let begin_txn t = locked t new_txn ()

(* [txn], reset, onto the spare stack.  Its arrays stay, for the next
   transaction to fill. *)
let recycle t txn =
  txn.nshards <- 0;
  txn.mark <- -1;
  Spare.push t.spare txn

(* The position of the first of [txn]'s shards from [i] on that is not
   below [s]. *)
let rec position txn s i =
  if i < txn.nshards && txn.shards.(i) < s then position txn s (i + 1) else i

(* Add [s] to [txn]'s shards, keeping them ascending; whether it is
   new. *)
let add_shard txn s =
  let n = txn.nshards in
  let i = position txn s 0 in
  if i < n && txn.shards.(i) = s then false
  else begin
    if n = Array.length txn.shards then begin
      txn.shards <- Spare.grow txn.shards 0;
      txn.lsns <- Array.make (Array.length txn.shards) 0
    end;
    Array.blit txn.shards i txn.shards (i + 1) (n - i);
    txn.shards.(i) <- s;
    txn.nshards <- n + 1;
    true
  end

let invoke ?choose t tid ~obj inv =
  let s = shard_of_object t obj in
  let txn = locked t txn_of tid in
  let first = add_shard txn s in
  Shard.locked_invoke ?choose t.shards.(s) ~first tid ~obj inv

let validate_shard sh tid = Database.validate (Shard.database sh) tid

let rec validate_from t txn i =
  if i = txn.nshards then Ok ()
  else
    match Shard.locked t.shards.(txn.shards.(i)) validate_shard txn.tid with
    | Ok () -> validate_from t txn (i + 1)
    | Error _ as e -> e

let validate t tid = validate_from t (locked t txn_of tid) 0

(* Take [tid] out of the table. *)
let retire t tid =
  let txn = txn_of t tid in
  Tid_table.remove t.txns tid;
  txn

(* A cross-shard commit also takes a trace id and enters the in-flight
   count, which [close] leaves. *)
let retire_commit t tid =
  let txn = retire t tid in
  if is_cross txn then begin
    txn.mark <- t.next_gtrace;
    t.next_gtrace <- t.next_gtrace + 1;
    t.cross_in_flight <- t.cross_in_flight + 1;
    Metrics.Counter.incr t.c_cross
  end;
  txn

let close t txn = if is_cross txn then t.cross_in_flight <- t.cross_in_flight - 1

let close_committed t txn =
  close t txn;
  t.committed <- t.committed + 1

let close_failed t txn =
  close t txn;
  recycle t txn

(* Abort [txn] at its shards from position [i] on. *)
let abort_from t txn i =
  for i = i to txn.nshards - 1 do
    Shard.locked t.shards.(txn.shards.(i)) Shard.abort txn.tid
  done

(* Cross-shard commit: prepare every participant in ascending shard
   order (forcing each yes vote), write the forced decision on the
   coordinator, then complete everywhere lazily.  [txn] has >= 2
   shards; each phase is a walk over them. *)
exception Voted_no of int * (string * Op.t * Op.t)

(* Phase 1: each prepare runs under its shard's mutex; the forces come
   after all appends, so one group-commit flush per shard covers its
   vote.  Each prepare LSN goes into [txn.lsns]; a no vote raises with
   its shard's position. *)
let prepare t txn ~gtid =
  let tid = txn.tid in
  for i = 0 to txn.nshards - 1 do
    let s = txn.shards.(i) in
    match Shard.locked t.shards.(s) Shard.prepare tid with
    | Error e -> raise_notrace (Voted_no (i, e))
    | Ok lsn ->
        txn.lsns.(i) <- lsn;
        Metrics.Counter.incr t.c_prepares;
        if tracing t s then emit_2pc t s ~tid (Trace.Prepare_append { shard = s; gtid })
  done

(* The shard at position [no] voted no and already aborted itself.
   Roll back the yes-voters before it, newest first (their prepares may
   even be unforced — an aborted vote needs no durability), then abort
   the shards the vote never reached. *)
let roll_back t txn ~gtid no =
  let tid = txn.tid in
  for i = no - 1 downto 0 do
    let s = txn.shards.(i) in
    Shard.locked t.shards.(s) Shard.abort tid;
    if tracing t s then emit_2pc t s ~tid (Trace.Completion { shard = s; gtid; commit = false })
  done;
  abort_from t txn (no + 1)

let force_votes t txn ~gtid =
  for i = 0 to txn.nshards - 1 do
    let s = txn.shards.(i) and lsn = txn.lsns.(i) in
    Wal.force_upto (Shard.wal t.shards.(s)) lsn;
    if tracing t s then emit_2pc t s ~tid:txn.tid (Trace.Prepare_force { shard = s; lsn; gtid })
  done

(* Phase 2: complete everywhere.  No force — recovery re-resolves a
   lost completion from the surviving decision evidence. *)
let complete t txn ~gtid =
  for i = 0 to txn.nshards - 1 do
    let s = txn.shards.(i) in
    ignore (Shard.locked t.shards.(s) Shard.commit_prepared txn.tid);
    if tracing t s then
      emit_2pc t s ~tid:txn.tid (Trace.Completion { shard = s; gtid; commit = true })
  done

let commit_cross t txn =
  let tid = txn.tid and gtid = txn.mark in
  match prepare t txn ~gtid with
  | exception Voted_no (no, e) ->
      roll_back t txn ~gtid no;
      Metrics.Counter.incr t.c_abort_prepare;
      Error e
  | () ->
      force_votes t txn ~gtid;
      (* The decision: one forced append on the coordinator's own log —
         the global commit point.  The coordinator is the lowest
         participant index, so its id is derivable from the
         transaction's footprint at recovery (not that presumed abort
         ever needs to ask it anything). *)
      let coord = txn.shards.(0) in
      let dlsn = Shard.locked t.shards.(coord) Shard.decide tid in
      Wal.force_upto (Shard.wal t.shards.(coord)) dlsn;
      if tracing t coord then
        emit_2pc t coord ~tid
          (Trace.Decision_force { shard = coord; lsn = dlsn; gtid; commit = true });
      complete t txn ~gtid;
      Ok ()

(* A pending commit is its retired transaction: the durability wait
   needs nothing once a cross-shard commit has forced its decision (or
   for a transaction that executed nothing), else the single shard's
   commit record.  The wait then puts the record back. *)
type pending = txn

let try_commit_nowait t tid =
  let txn = locked t retire_commit tid in
  let result =
    match txn.nshards with
    | 0 -> Ok txn (* executed nothing anywhere: trivially committed *)
    | 1 -> (
        (* Single-shard fast path: exactly the unsharded pipeline —
           stage 1 under the shard mutex; the durability park
           ({!wait_durable}) comes outside it, so the group-commit
           combiner can batch neighbours. *)
        match Shard.locked t.shards.(txn.shards.(0)) Shard.try_commit_nowait tid with
        | Error _ as e -> e
        | Ok lsn ->
            txn.mark <- lsn;
            Ok txn)
    | _ -> ( match commit_cross t txn with Error _ as e -> e | Ok () -> Ok txn)
  in
  locked t (if Result.is_ok result then close_committed else close_failed) txn;
  result

let wait_durable t p =
  (* Touched nothing, or a cross-shard commit forced its decision: no
     wait. *)
  if p.nshards = 1 then Shard.wait_durable t.shards.(p.shards.(0)) p.tid p.mark;
  locked t recycle p

let try_commit t tid =
  match try_commit_nowait t tid with
  | Error _ as e -> e
  | Ok pending ->
      wait_durable t pending;
      Ok ()

(* A waits-for cycle is not local (each shard's lock tables and history
   are, Theorem 2), so every shard keeps its edges in one graph. *)
let deadlock t = Deadlock.find_cycle t.waits

let abort t tid =
  let txn = locked t retire tid in
  abort_from t txn 0;
  locked t recycle txn

let flush t = Array.iter Shard.flush t.shards

let checkpoint t =
  Mutex.protect t.lock (fun () ->
      if t.cross_in_flight > 0 then false
      else begin
        (* Force every shard first: a participant's unforced completion
           record must reach disk before any shard's checkpoint could
           license truncating away the decision evidence that would
           otherwise re-derive it. *)
        Array.iter (fun sh -> Wal.force (Shard.wal sh)) t.shards;
        Array.iter
          (fun sh -> Shard.locked sh (fun sh () -> Shard.checkpoint sh) ())
          t.shards;
        true
      end)

let committed_count t = Mutex.protect t.lock (fun () -> t.committed)

let metrics t =
  let out = Metrics.create () in
  Metrics.merge out t.reg;
  Array.iteri
    (fun i sh ->
      Metrics.merge ~extra_labels:[ ("shard", string_of_int i) ] out (Shard.metrics sh))
    t.shards;
  out

let recover ?audit ~wals ~rebuild () =
  let n = Array.length wals in
  check_shard_count n;
  (* Complete the interrupted protocol in the logs themselves: one
     real outcome record per in-doubt transaction, forced, so ordinary
     single-shard replay below needs no 2PC awareness — and a crash
     during recovery just re-resolves to the same outcomes. *)
  let resolutions = Two_phase.analyze wals in
  Option.iter (fun f -> f resolutions) audit;
  List.iter
    (fun { Two_phase.shard; tid; commit; _ } ->
      Wal.append wals.(shard) (if commit then Wal.Commit tid else Wal.Abort tid))
    resolutions;
  List.iter (fun (r : Two_phase.resolution) -> Wal.force wals.(r.shard)) resolutions;
  let parts = partition_objects ~shards:n (rebuild ()) in
  let rec go s acc =
    if s = n then Ok (List.rev acc)
    else
      match
        Shard.recover ~wal:wals.(s) ~rebuild:(fun () -> parts.(s)) ()
      with
      | Error _ as e -> e
      | Ok shard_result -> go (s + 1) (shard_result :: acc)
  in
  match go 0 [] with
  | Error e -> Error e
  | Ok results ->
      let shards = Array.of_list (List.map fst results) in
      (* The global allocator restarts above every shard's high-water
         mark — ids are allocated globally, so the max is the mark. *)
      let first_tid =
        Array.fold_left
          (fun m sh -> max m (Database.next_tid (Shard.database sh)))
          0 shards
      in
      let t = make ~first_tid shards in
      Metrics.Counter.add
        (Metrics.counter t.reg "tm_2pc_aborts_total" ~labels:[ ("phase", "recovery") ])
        (List.length (List.filter (fun (r : Two_phase.resolution) -> not r.commit) resolutions));
      List.iter
        (fun (r : Two_phase.resolution) ->
          Metrics.Counter.incr
            (Metrics.counter t.reg "tm_2pc_resolved_total"
               ~labels:
                 [
                   ("evidence", Two_phase.evidence_name r.evidence);
                   ("outcome", if r.commit then "commit" else "abort");
                 ]))
        resolutions;
      let losers =
        List.fold_left
          (fun acc (_, l) -> Tid.Set.union acc l)
          Tid.Set.empty results
      in
      Ok (t, losers)
