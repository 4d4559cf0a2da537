(* The threads-based blocking runtime: real OS threads against one
   engine, with blocking, deadlock victimisation and transparent retry.
   Correctness witnesses: final balances equal the sum of committed
   effects, committed operations replay legally, and small recorded
   histories are dynamic atomic.  The engine is a [Sharded_database];
   the non-commuting workloads run on one shard and on two, where
   waits-for cycles thread through both shards.  The tests that order
   threads with sleeps have deterministic twins on seeded fibers
   ([Tm_sim.Fiber]): no wall-clock deadline, and each twin runs twice
   with the same commits, victims and rounds. *)

open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Concurrent = Tm_engine.Concurrent
module SD = Tm_engine.Sharded_database
module Wal = Tm_engine.Wal
module BA = Tm_adt.Bank_account

let deposit i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance = Op.invocation "balance"

(* An in-memory engine: [shards] sink-less logs, durable by fiat. *)
let engine ?(shards = 1) objs =
  SD.create ~wals:(Array.init shards (fun _ -> Wal.create ())) objs

let account ?(recovery = Tm_engine.Recovery.UIP) ?(initial = 0) name =
  let conflict =
    match recovery with
    | Tm_engine.Recovery.UIP -> BA.nrbc_conflict
    | Tm_engine.Recovery.DU -> BA.nfc_conflict
  in
  let spec = if initial = 0 then BA.spec else BA.spec_with_initial initial in
  Atomic_object.create ~spec:(Spec.rename spec name) ~conflict ~recovery ()

(* Two account names, routed to different shards when there are
   several. *)
let two_accounts ~shards =
  let shard = SD.home_shard ~shards in
  let rec other i =
    let name = Fmt.str "BA%d" i in
    if shards = 1 || shard name <> shard "BA0" then name else other (i + 1)
  in
  ("BA0", other 1)

let make_db ?recovery ?initial () =
  let sdb = engine [ account ?recovery ?initial "BA" ] in
  (Concurrent.create sdb, sdb)

let replays_legally sdb =
  List.for_all
    (fun o -> Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))
    (SD.objects sdb)

let test_single_thread_txn () =
  let db, _ = make_db () in
  let result =
    Concurrent.with_txn db (fun h ->
        let r1 = Concurrent.invoke h ~obj:"BA" (deposit 5) in
        let r2 = Concurrent.invoke h ~obj:"BA" balance in
        (r1, r2))
  in
  match result with
  | Ok (r1, r2) ->
      Alcotest.check Helpers.value "ok" Value.ok r1;
      Alcotest.check Helpers.value "balance 5" (Value.int 5) r2;
      Helpers.check_int "committed" 1 (Concurrent.committed_count db)
  | Error (`Gave_up _) -> Alcotest.fail "aborted"

let test_user_exception_aborts () =
  let db, sdb = make_db () in
  (try
     ignore
       (Concurrent.with_txn db (fun h ->
            ignore (Concurrent.invoke h ~obj:"BA" (deposit 5));
            failwith "user bug"))
   with Failure _ -> ());
  Helpers.check_int "aborted" 1
    (Tm_engine.Database.aborted_count (Tm_engine.Shard.database (SD.shards sdb).(0)));
  (* the deposit was rolled back *)
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok v -> Alcotest.check Helpers.value "balance 0" (Value.int 0) v
  | Error (`Gave_up _) -> Alcotest.fail "aborted"

(* Every locked call releases its mutex when the engine call raises.
   The mutexes are private, so each check re-enters a locked call from
   the same thread: [Mutex.lock] raises [Sys_error] on a mutex the
   caller already holds, so a leaked lock fails the check instead of
   hanging it. *)
let test_locks_released_on_raise () =
  let db, sdb = make_db () in
  let sh = (SD.shards sdb).(0) in
  let shard_free what =
    Helpers.check_int (what ^ ": shard lock free") 1 (Tm_engine.Shard.locked sh (fun _ x -> x) 1)
  in
  (match Tm_engine.Shard.locked sh (fun _ () -> raise Exit) () with
  | () -> Alcotest.fail "Shard.locked swallowed the exception"
  | exception Exit -> ());
  shard_free "after Shard.locked raised";
  (match Tm_engine.Shard.locked_invoke sh ~first:true (Tid.of_int 998) ~obj:"nowhere" balance with
  | _ -> Alcotest.fail "Shard.locked_invoke accepted an unknown object"
  | exception Invalid_argument _ -> ());
  shard_free "after Shard.locked_invoke raised";
  (* An unknown transaction raises under the global mutex. *)
  (match SD.invoke sdb (Tid.of_int 999) ~obj:"BA" balance with
  | _ -> Alcotest.fail "unknown transaction accepted"
  | exception Invalid_argument _ -> ());
  (match SD.abort sdb (Tid.of_int 999) with
  | () -> Alcotest.fail "unknown transaction aborted"
  | exception Invalid_argument _ -> ());
  let tid = SD.begin_txn sdb in
  (* A known transaction at an unknown object raises under the shard
     mutex, after its entry recorded the touch. *)
  (match SD.invoke sdb tid ~obj:"nowhere" balance with
  | _ -> Alcotest.fail "unknown object accepted"
  | exception Invalid_argument _ -> ());
  shard_free "after SD.invoke raised";
  Helpers.check_bool "global lock free after the raises" true (SD.try_commit sdb tid = Ok ());
  (* An unknown object raises inside [Concurrent.invoke]'s monitor; the
     rollback in [with_txn] takes the monitor again before re-raising. *)
  (match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"nowhere" balance) with
  | _ -> Alcotest.fail "unknown object accepted"
  | exception Invalid_argument _ -> ());
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok v -> Alcotest.check Helpers.value "monitor free after a raise" (Value.int 0) v
  | Error (`Gave_up _) -> Alcotest.fail "gave up"

let run_threads n f =
  let threads = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join threads

let test_parallel_deposits () =
  let db, sdb = make_db ~recovery:Tm_engine.Recovery.UIP () in
  let per_thread = 20 and threads = 6 in
  run_threads threads (fun _ ->
      for _ = 1 to per_thread do
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> ()
      done);
  let committed = Concurrent.committed_count db in
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok (Value.Int b) ->
      (* every committed transaction deposited exactly 1 *)
      Helpers.check_int "balance = committed deposits" committed b;
      Helpers.check_int "no aborts for commuting work" (threads * per_thread) committed;
      Helpers.check_bool "replay" true (replays_legally sdb)
  | Ok v -> Alcotest.failf "unexpected balance %a" Value.pp v
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted"

let test_parallel_mixed_with_deadlocks ~shards () =
  (* Two funded accounts, on one shard or on two.  Odd programs are
     single deposits or withdrawals.  Even programs are transfers in
     opposing directions (by thread parity) that deposit into one
     account and then withdraw from the other.  Under NRBC a successful
     withdrawal conflicts with a held deposit, so two opposing transfers
     can each hold what the other requests: a waits-for cycle, which on
     two shards threads through both and only the global search finds.
     With retry every program eventually commits and the books must
     balance. *)
  let a, b = two_accounts ~shards in
  let sdb =
    engine ~shards
      [ account ~initial:1000 a; account ~initial:1000 b ]
  in
  let db = Concurrent.create sdb in
  let deposits = ref 0 and withdrawals = ref 0 and starved = ref 0 in
  let lock = Mutex.create () in
  let add r v =
    Mutex.lock lock;
    r := !r + v;
    Mutex.unlock lock
  in
  (* with 1000 in each account, withdrawals always succeed *)
  let ok res =
    if not (Value.equal res Value.ok) then
      Alcotest.failf "unexpected refusal %a" Value.pp res
  in
  (* A victim that retried at once would redo its deposit before the
     survivor's withdrawal got through, and lose again: the runtime's
     default backoff spaces the retries. *)
  run_threads 8 (fun i ->
      for k = 1 to 10 do
        let amount = 1 + ((i + k) mod 3) in
        let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
        let transfer = k mod 2 = 0 in
        let is_deposit = (i + k) mod 4 = 1 in
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              if transfer then begin
                ok (Concurrent.invoke h ~obj:dst (deposit amount));
                Thread.yield ();
                ok (Concurrent.invoke h ~obj:src (withdraw amount))
              end
              else
                ok
                  (Concurrent.invoke h ~obj:src
                     (if is_deposit then deposit amount else withdraw amount)))
        with
        | Ok () ->
            if transfer || is_deposit then add deposits amount;
            if transfer || not is_deposit then add withdrawals amount
        | Error (`Gave_up _) -> add starved 1
      done);
  (* a failure raised on a worker thread would only end that thread *)
  Helpers.check_int "no program starved" 0 !starved;
  match
    Concurrent.with_txn db (fun h ->
        (Concurrent.invoke h ~obj:a balance, Concurrent.invoke h ~obj:b balance))
  with
  | Ok (Value.Int x, Value.Int y) ->
      Helpers.check_int "conservation of money" (2000 + !deposits - !withdrawals) (x + y);
      Helpers.check_bool "replay" true (replays_legally sdb)
  | Ok _ -> Alcotest.fail "unexpected balances"
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted"

let test_occ_threads () =
  let spec = BA.spec_with_initial 1000 in
  let sdb = engine [ Atomic_object.create_optimistic ~spec ~conflict:BA.nfc_conflict ] in
  let db = Concurrent.create sdb in
  run_threads 6 (fun i ->
      for k = 1 to 10 do
        let amount = 1 + ((i * k) mod 3) in
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (withdraw amount)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> Alcotest.fail "starved"
      done);
  Helpers.check_bool "replay" true (replays_legally sdb)

let test_recorded_history_dynamic_atomic ~shards () =
  (* A deposit and two opposing withdraw-then-deposit transfers under
     DU.  Dynamic atomicity is local (Theorem 2), so checking each
     shard's own history is enough: each shard's database gets its own
     recorder, whose trace rebuilds that shard's history. *)
  let a, b = two_accounts ~shards in
  let objs =
    [ account ~recovery:Tm_engine.Recovery.DU ~initial:10 a;
      account ~recovery:Tm_engine.Recovery.DU ~initial:10 b ]
  in
  let sdb = engine ~shards objs in
  Array.iter (fun sh -> ignore (Helpers.traced (Tm_engine.Shard.database sh))) (SD.shards sdb);
  let db = Concurrent.create sdb in
  let steps = function
    | 0 -> [ (a, deposit 2) ]
    | 1 -> [ (a, withdraw 1); (b, deposit 1) ]
    | _ -> [ (b, withdraw 1); (a, deposit 1) ]
  in
  run_threads 3 (fun i ->
      match
        Concurrent.with_txn ~max_attempts:1000 db (fun h ->
            List.iter (fun (obj, inv) -> ignore (Concurrent.invoke h ~obj inv)) (steps i))
      with
      | Ok () -> ()
      | Error (`Gave_up _) -> ());
  let env = Atomicity.env_of_list (List.map Atomic_object.spec objs) in
  Array.iteri
    (fun s sh ->
      Helpers.check_bool (Fmt.str "shard %d dynamic atomic" s) true
        (Atomicity.is_dynamic_atomic env
           (Helpers.recorded_history (Tm_engine.Shard.database sh))))
    (SD.shards sdb)

(* --- the staged commit pipeline under OS threads --- *)

let test_durable_group_commit_threads () =
  (* N threads commit through a disk-format WAL whose storage has a slow
     durability barrier.  The committed state must match the serial
     expectation, the device must have seen fewer barriers than commits
     (batching formed), and the bytes on storage must replay to exactly
     the acknowledged commits. *)
  let store = Tm_engine.Storage.memory () in
  let dw =
    Tm_engine.Disk_wal.create
      (Tm_engine.Storage.probe ~on_force:(fun () -> Thread.delay 0.001) store)
  in
  let sdb =
    SD.create ~wals:[| Tm_engine.Disk_wal.wal dw |]
      [
        Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let db = Concurrent.create sdb in
  let threads = 6 and per_thread = 15 in
  run_threads threads (fun _ ->
      for _ = 1 to per_thread do
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> Alcotest.fail "starved"
      done);
  let deposits = Concurrent.committed_count db in
  Helpers.check_int "every transaction committed" (threads * per_thread) deposits;
  (match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok (Value.Int b) -> Helpers.check_int "balance = committed deposits" deposits b
  | Ok v -> Alcotest.failf "unexpected balance %a" Value.pp v
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted");
  let committed = Concurrent.committed_count db in
  let forces = Tm_obs.Metrics.counter_total (SD.metrics sdb) "tm_wal_forces_total" in
  Helpers.check_bool
    (Fmt.str "batching formed: %d fsyncs for %d commits" forces committed)
    true
    (forces < committed);
  match Tm_engine.Disk_wal.load store with
  | Error c ->
      Alcotest.failf "persisted log corrupt: %a" Tm_engine.Wal.Codec.pp_corruption c
  | Ok reloaded ->
      let committed_ops, _ =
        Tm_engine.Wal.replay
          (Tm_engine.Wal.records (Tm_engine.Disk_wal.wal reloaded))
      in
      (* one op per committed transaction (deposits + the balance read) *)
      Helpers.check_int "device replays every acknowledged commit" committed
        (List.length committed_ops)

let test_flusher_death_wakes_parked_committer () =
  (* Regression: commit A becomes the flusher and its fsync dies; commit
     B is parked on the watermark.  B must be woken by the failure
     broadcast and take over as flusher — not sleep forever — and A must
     see the device error. *)
  let wal = Tm_engine.Wal.create () in
  let calls = ref 0 in
  let m = Mutex.create () in
  let sink =
    {
      Tm_engine.Wal.sink_append = (fun _ -> ());
      sink_force =
        (fun () ->
          let n =
            Mutex.lock m;
            incr calls;
            let n = !calls in
            Mutex.unlock m;
            n
          in
          if n = 1 then begin
            (* stay busy long enough for B to park, then die *)
            Thread.delay 0.05;
            failwith "device died"
          end);
      sink_attach = (fun _ -> ());
      sink_records = (fun () -> []);
      sink_tail = (fun () -> "");
      sink_truncate = (fun () -> 0);
    }
  in
  Tm_engine.Wal.set_sink wal sink;
  let db =
    Concurrent.create
      (SD.create ~wals:[| wal |]
         [
           Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
             ~recovery:Tm_engine.Recovery.UIP ();
         ])
  in
  let a_saw_failure = ref false and b_committed = ref false in
  let a =
    Thread.create
      (fun () ->
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | exception Failure _ -> a_saw_failure := true
        | Ok () | Error (`Gave_up _) -> ())
      ()
  in
  let b =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 2)))
        with
        | Ok () -> b_committed := true
        | Error (`Gave_up _) -> ())
      ()
  in
  Thread.join a;
  Thread.join b;
  Helpers.check_bool "the failed flusher saw the device error" true !a_saw_failure;
  Helpers.check_bool "the parked committer took over and committed" true
    !b_committed;
  Helpers.check_int "watermark covers both commits"
    (Tm_engine.Wal.last_lsn wal)
    (Tm_engine.Wal.flushed_lsn wal)

let test_futile_wakeup_counted () =
  (* B blocks on A's hold at one object; an unrelated commit at another
     object broadcasts the monitor, waking B to find itself still
     blocked — tm_futile_wakeups_total must record it. *)
  let funded = BA.spec_with_initial 100 in
  let db =
    Concurrent.create
      (engine
         [
           Atomic_object.create ~spec:funded ~conflict:BA.nrbc_conflict
             ~recovery:Tm_engine.Recovery.UIP ();
           Atomic_object.create
             ~spec:(Spec.rename funded "BA2")
             ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ();
         ])
  in
  let check label = function
    | Ok _ -> ()
    | Error (`Gave_up _) -> Alcotest.failf "%s gave up" label
  in
  let a =
    Thread.create
      (fun () ->
        check "A"
          (Concurrent.with_txn db (fun h ->
               (* hold the deposit lock while B blocks and C commits *)
               ignore (Concurrent.invoke h ~obj:"BA" (deposit 1));
               Thread.delay 0.08)))
      ()
  in
  let b =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        (* a successful withdrawal conflicts with A's held deposit *)
        check "B"
          (Concurrent.with_txn ~max_attempts:1000 db (fun h ->
               ignore (Concurrent.invoke h ~obj:"BA" (withdraw 1)))))
      ()
  in
  let c =
    Thread.create
      (fun () ->
        Thread.delay 0.04;
        check "C"
          (Concurrent.with_txn db (fun h ->
               ignore (Concurrent.invoke h ~obj:"BA2" (deposit 1)))))
      ()
  in
  Thread.join a;
  Thread.join b;
  Thread.join c;
  Helpers.check_int "all three committed" 3 (Concurrent.committed_count db);
  Helpers.check_bool "futile wakeup counted" true
    (Concurrent.futile_wakeup_count db >= 1)

(* The partial-operation stall, on one shard or with the account and
   the queue on two.  T1 deposits 1 and then dequeues from the empty
   queue: no response, so it waits, holding its deposit.  T2's withdraw
   and T3's balance read block behind that deposit, and T2 would
   enqueue the 7 that T1 waits for.  Every transaction waits and there
   is no waits-for cycle, so T1, the waiter for a response that holds
   the lock the others wait for, is the stall victim; it restarts and
   then dequeues T2's 7.  Without the rule nothing commits: after the
   deadline the test enqueues a value itself to free the threads, then
   fails. *)
let test_partial_operation_stall ~shards () =
  let module FQ = Tm_adt.Fifo_queue in
  let ba, q = two_accounts ~shards (* the second name is the queue's *) in
  let sdb =
    engine ~shards
      [
        account ~initial:10 ba;
        Atomic_object.create ~spec:(Spec.rename FQ.spec q) ~conflict:FQ.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let db = Concurrent.create sdb in
  let m = Mutex.create () and deposited = Condition.create () and ready = ref false in
  let dequeued = ref Value.ok and gave_up = ref [] in
  let run name f =
    Thread.create
      (fun () ->
        match Concurrent.with_txn db f with
        | Ok () -> ()
        | Error (`Gave_up _) ->
            Mutex.lock m;
            gave_up := name :: !gave_up;
            Mutex.unlock m)
      ()
  in
  let t1 =
    run "T1" (fun h ->
        ignore (Concurrent.invoke h ~obj:ba (deposit 1));
        Mutex.lock m;
        ready := true;
        Condition.broadcast deposited;
        Mutex.unlock m;
        dequeued := Concurrent.invoke h ~obj:q (Op.invocation "deq"))
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait deposited m
  done;
  Mutex.unlock m;
  let t2 =
    run "T2" (fun h ->
        ignore (Concurrent.invoke h ~obj:ba (withdraw 1));
        ignore (Concurrent.invoke h ~obj:q (Op.invocation ~args:[ Value.int 7 ] "enq")))
  in
  let t3 = run "T3" (fun h -> ignore (Concurrent.invoke h ~obj:ba balance)) in
  let deadline = Unix.gettimeofday () +. 5. in
  while Concurrent.committed_count db < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let stalled = Concurrent.committed_count db < 3 in
  if stalled then
    ignore
      (Concurrent.with_txn db (fun h ->
           Concurrent.invoke h ~obj:q (Op.invocation ~args:[ Value.int 8 ] "enq")));
  List.iter Thread.join [ t1; t2; t3 ];
  if stalled then Alcotest.fail "the three transactions stalled past the deadline";
  Alcotest.check (Alcotest.list Alcotest.string) "none gave up" [] !gave_up;
  Alcotest.check Helpers.value "T1 dequeued T2's 7" (Value.int 7) !dequeued;
  Helpers.check_bool "a stall victim was counted" true
    (Tm_obs.Metrics.counter_value (SD.metrics sdb) "tm_stall_victims_total" >= 1);
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:ba balance) with
  | Ok v -> Alcotest.check Helpers.value "balance back at 10" (Value.int 10) v
  | Error (`Gave_up _) -> Alcotest.fail "balance read gave up"

(* A lone consumer waits for a response, not for a tid, and nothing is
   blocked behind it: no stall.  It must wait for the producer, which
   starts 50 ms later, rather than be aborted over and over until it
   gives up. *)
let test_lone_consumer_waits () =
  let module FQ = Tm_adt.Fifo_queue in
  let sdb =
    engine
      [
        Atomic_object.create ~spec:(Spec.rename FQ.spec "Q") ~conflict:FQ.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let db = Concurrent.create sdb in
  let got = ref (Ok Value.ok) in
  let consumer =
    Thread.create
      (fun () -> got := Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"Q" (Op.invocation "deq")))
      ()
  in
  Thread.delay 0.05;
  ignore
    (Concurrent.with_txn db (fun h ->
         Concurrent.invoke h ~obj:"Q" (Op.invocation ~args:[ Value.int 5 ] "enq")));
  Thread.join consumer;
  (match !got with
  | Ok v -> Alcotest.check Helpers.value "the consumer dequeued 5" (Value.int 5) v
  | Error (`Gave_up n) -> Alcotest.failf "the consumer gave up after %d attempts" n);
  Helpers.check_int "no stall victim" 0
    (Tm_obs.Metrics.counter_value (SD.metrics sdb) "tm_stall_victims_total")

let test_cross_shard_victim_traced () =
  (* Two threads each deposit on an account on a different shard, meet
     at a barrier, then withdraw from the other's account: a waits-for
     cycle through both shards.  The global search dooms the younger
     transaction, which retries after a pause and commits.  The victim
     is counted in the engine-level registry (no shard label) and its
     Deadlock_victim span reaches the shared recorder. *)
  let a, b = two_accounts ~shards:2 in
  let sdb = engine ~shards:2 [ account ~initial:100 a; account ~initial:100 b ] in
  let tr = Tm_obs.Trace.create () in
  SD.set_trace sdb tr;
  let db =
    Concurrent.create
      ~runtime:{ (Concurrent.threads ()) with backoff = (fun _ -> Thread.delay 0.05) }
      sdb
  in
  let m = Mutex.create () and c = Condition.create () and arrived = ref 0 in
  let barrier () =
    Mutex.lock m;
    incr arrived;
    if !arrived = 2 then Condition.broadcast c;
    while !arrived < 2 do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let committed = ref 0 in
  run_threads 2 (fun i ->
      let mine, theirs = if i = 0 then (a, b) else (b, a) in
      let first = ref true in
      match
        Concurrent.with_txn ~max_attempts:10 db (fun h ->
            ignore (Concurrent.invoke h ~obj:mine (deposit 5));
            if !first then begin
              first := false;
              barrier ()
            end;
            ignore (Concurrent.invoke h ~obj:theirs (withdraw 1)))
      with
      | Ok () ->
          Mutex.lock m;
          incr committed;
          Mutex.unlock m
      | Error (`Gave_up _) -> ());
  Helpers.check_int "both committed" 2 !committed;
  let victims = Concurrent.deadlock_victim_count db in
  Helpers.check_bool "a victim was chosen" true (victims >= 1);
  Helpers.check_int "victims in the merged registry, unlabelled" victims
    (Tm_obs.Metrics.counter_value (SD.metrics sdb) "tm_deadlock_victims_total");
  let spans =
    List.filter_map
      (fun (e : Tm_obs.Trace.event) ->
        match e.Tm_obs.Trace.kind with
        | Tm_obs.Trace.Deadlock_victim { cycle } -> Some cycle
        | _ -> None)
      (Tm_obs.Trace.events tr)
  in
  Helpers.check_int "one Deadlock_victim span per victim" victims (List.length spans);
  List.iter
    (fun cycle -> Helpers.check_int "the cycle spans both transactions" 2 (List.length cycle))
    spans

(* --- deterministic twins on seeded fibers --- *)

module Fiber = Tm_sim.Fiber

let fifo_queue name =
  let module FQ = Tm_adt.Fifo_queue in
  Atomic_object.create ~spec:(Spec.rename FQ.spec name) ~conflict:FQ.nrbc_conflict
    ~recovery:Tm_engine.Recovery.UIP ()

let victims sdb =
  let reg = SD.metrics sdb in
  Tm_obs.Metrics.counter_value reg "tm_deadlock_victims_total"
  + Tm_obs.Metrics.counter_value reg "tm_stall_victims_total"

(* Run one fiber per body over [sdb] at seed 1; each body gets the
   front end.  Returns the commits, victims and rounds.  A stall the
   rules miss raises [Fiber.All_parked] at once. *)
let on_fibers sdb bodies =
  let fibers = Fiber.create ~registry:(SD.registry sdb) (Random.State.make [| 1 |]) in
  let db = Concurrent.create ~runtime:(Fiber.runtime fibers) sdb in
  List.iter (fun body -> Fiber.spawn fibers (fun () -> body db)) bodies;
  Fiber.run fibers;
  (Concurrent.committed_count db, victims sdb, Fiber.round fibers)

let commits db f =
  match Concurrent.with_txn db f with
  | Ok v -> v
  | Error (`Gave_up n) -> Alcotest.failf "gave up after %d attempts" n

let twice name run =
  let first = run () in
  Alcotest.(check (triple int int int))
    (name ^ ": same commits, victims and rounds") first (run ())

(* The stall above on fibers: T1 deposits in the first round, and T2
   and T3 start in the second. *)
let test_partial_operation_stall_fibers ~shards () =
  twice "stall" (fun () ->
      let ba, q = two_accounts ~shards in
      let sdb = engine ~shards [ account ~initial:10 ba; fifo_queue q ] in
      let dequeued = ref Value.ok in
      let ((committed, victims, _) as outcome) =
        on_fibers sdb
          [
            (fun db ->
              commits db (fun h ->
                  ignore (Concurrent.invoke h ~obj:ba (deposit 1));
                  Fiber.yield ();
                  dequeued := Concurrent.invoke h ~obj:q (Op.invocation "deq")));
            (fun db ->
              Fiber.yield ();
              commits db (fun h ->
                  ignore (Concurrent.invoke h ~obj:ba (withdraw 1));
                  ignore
                    (Concurrent.invoke h ~obj:q (Op.invocation ~args:[ Value.int 7 ] "enq"))));
            (fun db ->
              Fiber.yield ();
              commits db (fun h -> ignore (Concurrent.invoke h ~obj:ba balance)));
          ]
      in
      Helpers.check_int "all three committed" 3 committed;
      Alcotest.check Helpers.value "T1 dequeued T2's 7" (Value.int 7) !dequeued;
      Helpers.check_bool "a stall victim was counted" true (victims >= 1);
      outcome)

(* The lone consumer on fibers: the producer sleeps 5 rounds first. *)
let test_lone_consumer_waits_fibers () =
  twice "lone consumer" (fun () ->
      let sdb = engine [ fifo_queue "Q" ] in
      let got = ref Value.ok in
      let ((_, victims, _) as outcome) =
        on_fibers sdb
          [
            (fun db ->
              got := commits db (fun h -> Concurrent.invoke h ~obj:"Q" (Op.invocation "deq")));
            (fun db ->
              Fiber.sleep 5;
              ignore
                (commits db (fun h ->
                     Concurrent.invoke h ~obj:"Q" (Op.invocation ~args:[ Value.int 5 ] "enq"))));
          ]
      in
      Alcotest.check Helpers.value "the consumer dequeued 5" (Value.int 5) !got;
      Helpers.check_int "no stall victim" 0 victims;
      outcome)

(* The cross-shard cycle on fibers: both deposit in the first round and
   withdraw from the other's account in the second. *)
let test_cross_shard_victim_traced_fibers () =
  twice "cross-shard cycle" (fun () ->
      let a, b = two_accounts ~shards:2 in
      let sdb = engine ~shards:2 [ account ~initial:100 a; account ~initial:100 b ] in
      let tr = Tm_obs.Trace.create () in
      SD.set_trace sdb tr;
      let body mine theirs db =
        commits db (fun h ->
            ignore (Concurrent.invoke h ~obj:mine (deposit 5));
            Fiber.yield ();
            ignore (Concurrent.invoke h ~obj:theirs (withdraw 1)))
      in
      let ((committed, victims, _) as outcome) = on_fibers sdb [ body a b; body b a ] in
      Helpers.check_int "both committed" 2 committed;
      Helpers.check_bool "a victim was chosen" true (victims >= 1);
      let cycles =
        List.filter_map
          (fun (e : Tm_obs.Trace.event) ->
            match e.Tm_obs.Trace.kind with
            | Tm_obs.Trace.Deadlock_victim { cycle } -> Some (List.length cycle)
            | _ -> None)
          (Tm_obs.Trace.events tr)
      in
      Alcotest.(check (list int)) "one two-transaction span per victim"
        (List.init victims (fun _ -> 2)) cycles;
      outcome)

(* An optimistic reader overtaken by a committed deposit: what it read
   no longer fits the committed state, so its view is empty and its next
   invocation has no response.  It must fail validation and be retried,
   not wait for a response that cannot come (which would end the run in
   [Fiber.All_parked]). *)
let test_occ_empty_view_retried_fibers () =
  twice "empty view" (fun () ->
      let sdb =
        engine [ Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict ]
      in
      let reads = ref [] in
      let ((committed, _, _) as outcome) =
        on_fibers sdb
          [
            (fun db ->
              commits db (fun h ->
                  let first = Concurrent.invoke h ~obj:"BA" balance in
                  Fiber.sleep 3;
                  let again = Concurrent.invoke h ~obj:"BA" balance in
                  reads := (first, again) :: !reads));
            (fun db ->
              Fiber.yield ();
              commits db (fun h -> ignore (Concurrent.invoke h ~obj:"BA" (deposit 5))));
          ]
      in
      Helpers.check_int "both committed" 2 committed;
      Alcotest.(check (list (pair Helpers.value Helpers.value)))
        "only the retry read, and it saw the deposit"
        [ (Value.int 5, Value.int 5) ]
        !reads;
      Helpers.check_int "one retry" 1
        (Tm_obs.Metrics.counter_value (SD.metrics sdb) "tm_txn_retries_total");
      outcome)

let test_default_backoff () =
  let hook = (Concurrent.threads ()).Concurrent.backoff in
  (* bounded and total over any attempt number (no float overflow) *)
  List.iter hook [ 1; 2; 3; 10; 30; 1000 ]

let suite =
  [
    Alcotest.test_case "single-thread transaction" `Quick test_single_thread_txn;
    Alcotest.test_case "user exception aborts" `Quick test_user_exception_aborts;
    Alcotest.test_case "lock helpers release on raise" `Quick test_locks_released_on_raise;
    Alcotest.test_case "parallel deposits" `Slow test_parallel_deposits;
    Alcotest.test_case "parallel mix with deadlocks" `Slow
      (test_parallel_mixed_with_deadlocks ~shards:1);
    Alcotest.test_case "optimistic threads" `Slow test_occ_threads;
    Alcotest.test_case "recorded history dynamic atomic" `Quick
      (test_recorded_history_dynamic_atomic ~shards:1);
    Alcotest.test_case "durable group commit under threads" `Slow
      test_durable_group_commit_threads;
    Alcotest.test_case "flusher death wakes parked committer" `Slow
      test_flusher_death_wakes_parked_committer;
    Alcotest.test_case "futile wakeups counted" `Slow test_futile_wakeup_counted;
    Alcotest.test_case "partial-operation stall broken" `Slow
      (test_partial_operation_stall ~shards:1);
    Alcotest.test_case "2-shard partial-operation stall broken" `Slow
      (test_partial_operation_stall ~shards:2);
    Alcotest.test_case "lone consumer waits for its producer" `Slow test_lone_consumer_waits;
    Alcotest.test_case "default backoff" `Quick test_default_backoff;
    Alcotest.test_case "2-shard parallel mix with deadlocks" `Slow
      (test_parallel_mixed_with_deadlocks ~shards:2);
    Alcotest.test_case "2-shard recorded history dynamic atomic" `Quick
      (test_recorded_history_dynamic_atomic ~shards:2);
    Alcotest.test_case "cross-shard deadlock victim traced" `Slow
      test_cross_shard_victim_traced;
    Alcotest.test_case "partial-operation stall broken (fibers)" `Quick
      (test_partial_operation_stall_fibers ~shards:1);
    Alcotest.test_case "2-shard partial-operation stall broken (fibers)" `Quick
      (test_partial_operation_stall_fibers ~shards:2);
    Alcotest.test_case "lone consumer waits for its producer (fibers)" `Quick
      test_lone_consumer_waits_fibers;
    Alcotest.test_case "cross-shard deadlock victim traced (fibers)" `Quick
      test_cross_shard_victim_traced_fibers;
    Alcotest.test_case "optimistic empty view retried (fibers)" `Quick
      test_occ_empty_view_retried_fibers;
  ]
