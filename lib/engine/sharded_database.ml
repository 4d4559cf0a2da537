open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

(* An entry belongs to the thread running its transaction; only the
   table that holds it is under the global mutex. *)
type txn = {
  tid : Tid.t;
  mutable touched : int list;  (* shard ids, ascending *)
  mutable mark : int;
      (* -1 until retired to commit; then a single-shard commit's record
         LSN, or a cross-shard commit's global trace id *)
}

(* The value of an empty slot of the table. *)
let no_txn = { tid = Tid.a; touched = []; mark = -1 }

let is_cross txn = match txn.touched with _ :: _ :: _ -> true | _ -> false

type t = {
  shards : Shard.t array;
  txns : txn Tid_table.t;
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
}

let max_shards = 0x10000 (* shard ids are stamped into u16 frame headers *)

let make ?(first_tid = 0) shards =
  let reg = Metrics.create () in
  {
    shards;
    txns = Tid_table.create ~dummy:no_txn;
    next_tid = first_tid;
    next_gtrace = 0;
    committed = 0;
    cross_in_flight = 0;
    lock = Mutex.create ();
    trace = None;
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
  Tid_table.replace t.txns tid { tid; touched = []; mark = -1 };
  tid

let begin_txn t = locked t new_txn ()

(* [l] with [s] inserted in order, or [l] itself if it holds [s]. *)
let rec insert s = function
  | x :: _ as l when x >= s -> if x = s then l else s :: l
  | x :: rest as l ->
      let rest' = insert s rest in
      if rest' == rest then l else x :: rest'
  | [] -> [ s ]

let invoke ?choose t tid ~obj inv =
  let s = shard_of_object t obj in
  let txn = locked t txn_of tid in
  let touched = insert s txn.touched in
  let first = touched != txn.touched in
  txn.touched <- touched;
  Shard.locked_invoke ?choose t.shards.(s) ~first tid ~obj inv

let validate_shard sh tid = Database.validate (Shard.database sh) tid

let rec validate_at t tid = function
  | [] -> Ok ()
  | s :: rest -> (
      match Shard.locked t.shards.(s) validate_shard tid with
      | Ok () -> validate_at t tid rest
      | Error _ as e -> e)

let validate t tid = validate_at t tid (locked t txn_of tid).touched

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

let rec abort_all t tid = function
  | [] -> ()
  | s :: rest ->
      Shard.locked t.shards.(s) Shard.abort tid;
      abort_all t tid rest

(* Cross-shard commit: prepare every participant in ascending shard
   order (forcing each yes vote), write the forced decision on the
   coordinator, then complete everywhere lazily.  [parts] is sorted and
   has >= 2 elements; each phase is a walk over it. *)
exception Voted_no of int * (string * Op.t * Op.t)

(* Phase 1: each prepare runs under its shard's mutex; the forces come
   after all appends, so one group-commit flush per shard covers its
   vote.  Returns the prepare LSNs in shard order. *)
let rec prepare t tid ~gtid = function
  | [] -> []
  | s :: rest -> (
      match Shard.locked t.shards.(s) Shard.prepare tid with
      | Error e -> raise_notrace (Voted_no (s, e))
      | Ok lsn ->
          Metrics.Counter.incr t.c_prepares;
          if tracing t s then emit_2pc t s ~tid (Trace.Prepare_append { shard = s; gtid });
          lsn :: prepare t tid ~gtid rest)

(* The shard [no] voted no and already aborted itself.  Roll back the
   yes-voters before it, newest first (their prepares may even be
   unforced — an aborted vote needs no durability), and return the
   shards the vote never reached. *)
let rec roll_back t tid ~gtid no = function
  | [] -> []
  | s :: rest when s = no -> rest
  | s :: rest ->
      let unreached = roll_back t tid ~gtid no rest in
      Shard.locked t.shards.(s) Shard.abort tid;
      if tracing t s then emit_2pc t s ~tid (Trace.Completion { shard = s; gtid; commit = false });
      unreached

let rec force_votes t tid ~gtid parts lsns =
  match (parts, lsns) with
  | s :: parts, lsn :: lsns ->
      Wal.force_upto (Shard.wal t.shards.(s)) lsn;
      if tracing t s then emit_2pc t s ~tid (Trace.Prepare_force { shard = s; lsn; gtid });
      force_votes t tid ~gtid parts lsns
  | _ -> ()

(* Phase 2: complete everywhere.  No force — recovery re-resolves a
   lost completion from the surviving decision evidence. *)
let rec complete t tid ~gtid = function
  | [] -> ()
  | s :: rest ->
      ignore (Shard.locked t.shards.(s) Shard.commit_prepared tid);
      if tracing t s then emit_2pc t s ~tid (Trace.Completion { shard = s; gtid; commit = true });
      complete t tid ~gtid rest

let commit_cross t tid ~gtid parts =
  match prepare t tid ~gtid parts with
  | exception Voted_no (no, e) ->
      abort_all t tid (roll_back t tid ~gtid no parts);
      Metrics.Counter.incr t.c_abort_prepare;
      Error e
  | lsns ->
      force_votes t tid ~gtid parts lsns;
      (* The decision: one forced append on the coordinator's own log —
         the global commit point.  The coordinator is the lowest
         participant index, so its id is derivable from the
         transaction's footprint at recovery (not that presumed abort
         ever needs to ask it anything). *)
      let coord = List.hd parts in
      let dlsn = Shard.locked t.shards.(coord) Shard.decide tid in
      Wal.force_upto (Shard.wal t.shards.(coord)) dlsn;
      if tracing t coord then
        emit_2pc t coord ~tid
          (Trace.Decision_force { shard = coord; lsn = dlsn; gtid; commit = true });
      complete t tid ~gtid parts;
      Ok ()

(* A pending commit is its retired transaction: the durability wait
   needs nothing once a cross-shard commit has forced its decision (or
   for a transaction that executed nothing), else the single shard's
   commit record. *)
type pending = txn

let try_commit_nowait t tid =
  let txn = locked t retire_commit tid in
  let result =
    match txn.touched with
    | [] -> Ok txn (* executed nothing anywhere: trivially committed *)
    | [ s ] -> (
        (* Single-shard fast path: exactly the unsharded pipeline —
           stage 1 under the shard mutex; the durability park
           ({!wait_durable}) comes outside it, so the group-commit
           combiner can batch neighbours. *)
        match Shard.locked t.shards.(s) Shard.try_commit_nowait tid with
        | Error _ as e -> e
        | Ok lsn ->
            txn.mark <- lsn;
            Ok txn)
    | parts -> (
        match commit_cross t tid ~gtid:txn.mark parts with
        | Error _ as e -> e
        | Ok () -> Ok txn)
  in
  locked t (if Result.is_ok result then close_committed else close) txn;
  result

let wait_durable t p =
  match p.touched with
  | s :: _ when not (is_cross p) ->
      Shard.wait_durable t.shards.(s) p.tid p.mark
  | _ -> () (* touched nothing, or a cross-shard commit forced its decision *)

let try_commit t tid =
  match try_commit_nowait t tid with
  | Error _ as e -> e
  | Ok pending ->
      wait_durable t pending;
      Ok ()

let add_waits sh g =
  List.iter
    (fun (tid, on) -> Deadlock.set_waiting g tid ~on:(on @ Deadlock.waiting g tid))
    (Database.waits_for (Shard.database sh))

(* Dynamic atomicity is local (Theorem 2): each shard's lock tables
   and history stand alone.  A waits-for cycle is not local — it may
   thread through several shards — so the search runs over the union of
   every shard's edges. *)
let deadlock t =
  let g = Deadlock.create () in
  Array.iter (fun sh -> Shard.locked sh add_waits g) t.shards;
  Deadlock.find_cycle g

let abort t tid = abort_all t tid (locked t retire tid).touched

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
