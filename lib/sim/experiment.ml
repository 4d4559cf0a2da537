open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Concurrent = Tm_engine.Concurrent
module Sharded_database = Tm_engine.Sharded_database
module Recovery = Tm_engine.Recovery
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type conflict_choice =
  | Semantic
  | Read_write
  | Total

type setup = {
  recovery : Recovery.kind;
  choice : conflict_choice;
  occ : bool;
}

let setup ?(occ = false) recovery choice = { recovery; choice; occ }

let label s =
  let r =
    if s.occ then "OCC"
    else match s.recovery with Recovery.UIP -> "UIP" | Recovery.DU -> "DU"
  in
  let c =
    match s.choice with
    | Semantic -> (match s.recovery with Recovery.UIP -> "NRBC" | Recovery.DU -> "NFC")
    | Read_write -> "RW"
    | Total -> "ALL"
  in
  r ^ "+" ^ c

let default_setups =
  [
    setup Recovery.UIP Semantic;
    setup Recovery.DU Semantic;
    setup ~occ:true Recovery.DU Semantic;
    setup Recovery.UIP Read_write;
    setup Recovery.DU Read_write;
    setup Recovery.UIP Total;
  ]

type scenario = {
  name : string;
  workload : Workload.t;
  build : setup -> Atomic_object.t list;
}

(* Conflict relation for one object under a setup, given its per-type
   relations; optimistic objects validate with the same relation they
   would have locked with. *)
let pick_conflict s ~nfc ~nrbc ~rw =
  match s.choice with
  | Semantic -> (match s.recovery with Recovery.UIP -> nrbc | Recovery.DU -> nfc)
  | Read_write -> rw
  | Total -> Conflict.all

let make_object s spec ~nfc ~nrbc ~rw =
  let conflict = pick_conflict s ~nfc ~nrbc ~rw in
  if s.occ then Atomic_object.create_optimistic ~spec ~conflict
  else Atomic_object.create ~spec ~conflict ~recovery:s.recovery ()

let bank_object s spec =
  make_object s spec ~nfc:Tm_adt.Bank_account.nfc_conflict
    ~nrbc:Tm_adt.Bank_account.nrbc_conflict ~rw:Tm_adt.Bank_account.rw_conflict

(* Hot accounts are pre-funded so withdrawals exercise the ok path. *)
let funded_account = Tm_adt.Bank_account.spec_with_initial 100_000

let bank_hotspot =
  {
    name = "bank-hotspot";
    workload = Workload.bank_hotspot ();
    build = (fun s -> [ bank_object s funded_account ]);
  }

let bank_sweep ~withdraw_pct =
  {
    name = Fmt.str "bank-w%d" withdraw_pct;
    workload =
      Workload.bank_hotspot ~deposit:(100 - withdraw_pct) ~withdraw:withdraw_pct
        ~balance:0 ();
    build = (fun s -> [ bank_object s funded_account ]);
  }

let bank_accounts ?(accounts = 8) ?(skew = 0.8) () =
  {
    name = Fmt.str "bank-%d-accounts" accounts;
    workload = Workload.bank_accounts ~accounts ~skew ();
    build =
      (fun s ->
        List.init accounts (fun i ->
            bank_object s (Spec.rename funded_account (Fmt.str "BA%d" i))));
  }

(* A pool roomy enough that workload updates essentially always succeed:
   the interesting conflicts are between successful updates, not failures
   at the bounds. *)
module Pool = Tm_adt.Bounded_counter.Make (struct
  let capacity = 100_000
  let initial = 50_000
  let name = "CTR"
end)

let pool_object s =
  make_object s Pool.spec ~nfc:Pool.nfc_conflict ~nrbc:Pool.nrbc_conflict
    ~rw:Pool.rw_conflict

let inventory =
  {
    name = "inventory-escrow";
    workload = Workload.inventory ();
    build = (fun s -> [ pool_object s ]);
  }

let inventory_sweep ~decr_pct =
  {
    name = Fmt.str "inventory-d%d" decr_pct;
    workload = Workload.inventory ~incr:(100 - decr_pct) ~decr:decr_pct ~read:0 ();
    build = (fun s -> [ pool_object s ]);
  }

let queue_semiqueue =
  {
    name = "queue-broker-semiqueue";
    workload = Workload.queue_broker ~obj:"SQ" ();
    build =
      (fun s ->
        [
          make_object s Tm_adt.Semiqueue.spec ~nfc:Tm_adt.Semiqueue.nfc_conflict
            ~nrbc:Tm_adt.Semiqueue.nrbc_conflict ~rw:Tm_adt.Semiqueue.rw_conflict;
        ]);
  }

let queue_fifo =
  {
    name = "queue-broker-fifo";
    workload = Workload.queue_broker ~obj:"FQ" ();
    build =
      (fun s ->
        [
          make_object s Tm_adt.Fifo_queue.spec ~nfc:Tm_adt.Fifo_queue.nfc_conflict
            ~nrbc:Tm_adt.Fifo_queue.nrbc_conflict ~rw:Tm_adt.Fifo_queue.rw_conflict;
        ]);
  }

let register_baseline =
  {
    name = "register-mix";
    workload = Workload.register_mix ();
    build =
      (fun s ->
        [
          make_object s Tm_adt.Register.spec ~nfc:Tm_adt.Register.nfc_conflict
            ~nrbc:Tm_adt.Register.nrbc_conflict ~rw:Tm_adt.Register.rw_conflict;
        ]);
  }

let kv_store ?(keys = 4) () =
  {
    name = "kv-mix";
    workload = Workload.kv_mix ~keys ();
    build =
      (fun s ->
        [
          make_object s Tm_adt.Kv_store.spec ~nfc:Tm_adt.Kv_store.nfc_conflict
            ~nrbc:Tm_adt.Kv_store.nrbc_conflict ~rw:Tm_adt.Kv_store.rw_conflict;
        ]);
  }

let transfer ?(accounts = 4) () =
  {
    name = "transfer";
    workload = Workload.transfer ~accounts ();
    build =
      (fun s ->
        List.init accounts (fun i ->
            bank_object s (Spec.rename funded_account (Fmt.str "BA%d" i))));
  }

(* Dynamic atomicity is local (Theorem 2): different objects may use
   different recovery methods and conflict relations in one system.  This
   build alternates UIP+NRBC and DU+NFC across the accounts. *)
let transfer_mixed_recovery ?(accounts = 4) () =
  {
    name = "transfer-mixed";
    workload = Workload.transfer ~accounts ();
    build =
      (fun _s ->
        List.init accounts (fun i ->
            let spec = Spec.rename funded_account (Fmt.str "BA%d" i) in
            if i mod 2 = 0 then
              Atomic_object.create ~spec ~conflict:Tm_adt.Bank_account.nrbc_conflict
                ~recovery:Recovery.UIP ()
            else
              Atomic_object.create ~spec ~conflict:Tm_adt.Bank_account.nfc_conflict
                ~recovery:Recovery.DU ()));
  }

let all_scenarios =
  [
    bank_hotspot;
    bank_accounts ();
    inventory;
    queue_semiqueue;
    queue_fifo;
    register_baseline;
    kv_store ();
    transfer ();
  ]

type config = {
  concurrency : int;
  total_txns : int;
  seed : int;
  max_retries : int;
}

let config ?(concurrency = 8) ?(total_txns = 100) ?(seed = 42) ?(max_retries = 20) () =
  { concurrency; total_txns; seed; max_retries }

type stats = {
  committed : int;
  deadlock_victims : int;
  stall_victims : int;
  validation_aborts : int;
  retries : int;
  gave_up : int;
  unanswered : int;
  rounds : int;
  attempts : int;
  executed : int;
  blocked : int;
  no_response : int;
}

let aborts s = s.deadlock_victims + s.stall_victims + s.validation_aborts

let efficiency s =
  if s.attempts = 0 then 0. else float_of_int s.committed /. float_of_int s.attempts

type row = {
  scenario : string;
  setup : string;
  stats : stats;
  consistent : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
}

let verify_database sdb =
  List.for_all
    (fun o -> Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))
    (Sharded_database.objects sdb)

(* The engine-level series (the fibers' and [Concurrent]'s) beside the
   shard's, without a [shard] label. *)
let registry sdb =
  let reg = Metrics.create () in
  Array.iter
    (fun sh -> Metrics.merge reg (Tm_engine.Shard.metrics sh))
    (Sharded_database.shards sdb);
  Metrics.merge reg (Sharded_database.registry sdb);
  reg

let stats_of ~unanswered reg =
  let count ?labels name = Metrics.counter_value reg ?labels name in
  let outcome o = count ~labels:[ ("outcome", o) ] "tm_invocations_total" in
  {
    committed = count "tm_txn_committed_total";
    deadlock_victims = count "tm_deadlock_victims_total";
    stall_victims = count "tm_stall_victims_total";
    validation_aborts = Metrics.counter_total reg "tm_validation_failures_total";
    retries = count "tm_txn_retries_total";
    gave_up = count "tm_txn_gave_up_total";
    unanswered;
    rounds = count "tm_sched_rounds_total";
    attempts = Metrics.counter_total reg "tm_invocations_total";
    executed = outcome "executed";
    blocked = outcome "blocked";
    no_response = outcome "no_response";
  }

(* Every run: [cfg.concurrency] fibers over the caller's engine, each
   taking the next program, running it through [Concurrent.with_txn]
   and yielding after every call.  When every fiber waits for a response
   (the engine leaves such waiters alone: only a transaction yet to start
   can answer them), one more fiber runs the next program.  With no
   program left, a waiter for a response can never be answered (a
   consumer of an empty queue, or an optimistic transaction whose view a
   later commit emptied): it is aborted and counted as unanswered.  A
   parked fiber blocked on a conflict means the engine's deadlock or
   stall rule failed, and [Fiber.All_parked] escapes the run. *)
let drive_named ~checkpoint_every ~name ~label ~workload cfg sdb =
  let rng = Random.State.make [| cfg.seed |] in
  let pending = Queue.create () in
  for _ = 1 to cfg.total_txns do
    Queue.add (workload.Workload.generate rng) pending
  done;
  let fibers = Fiber.create ~registry:(Sharded_database.registry sdb) rng in
  let db = Concurrent.create ~runtime:(Fiber.runtime fibers) sdb in
  let choose values = List.nth values (Random.State.int rng (List.length values)) in
  let commits = ref 0 in
  let run_program program =
    match
      Concurrent.with_txn ~max_attempts:(cfg.max_retries + 1) db (fun h ->
          List.iter
            (fun (obj, inv) ->
              ignore (Concurrent.invoke ~choose h ~obj inv);
              Fiber.yield ())
            program)
    with
    | Ok () ->
        incr commits;
        if checkpoint_every > 0 && !commits mod checkpoint_every = 0 then
          ignore (Sharded_database.checkpoint sdb : bool)
    | Error (`Gave_up _) -> ()
  in
  let rec worker () =
    match Queue.take_opt pending with
    | None -> ()
    | Some program ->
        run_program program;
        if not (Queue.is_empty pending) then Fiber.yield ();
        worker ()
  in
  for _ = 1 to min cfg.concurrency cfg.total_txns do
    Fiber.spawn fibers worker
  done;
  let rec go () =
    match Fiber.run fibers with
    | () -> 0
    | exception Fiber.All_parked tids -> (
        match Queue.take_opt pending with
        | Some program ->
            Fiber.spawn fibers (fun () -> run_program program);
            go ()
        | None when List.for_all (Concurrent.awaits_response db) tids ->
            List.iter (Sharded_database.abort sdb) tids;
            List.length tids
        | None -> raise (Fiber.All_parked tids))
  in
  let unanswered = go () in
  let reg = registry sdb in
  {
    scenario = name;
    setup = label;
    stats = stats_of ~unanswered reg;
    consistent = verify_database sdb;
    metrics = reg;
    trace = Sharded_database.trace sdb;
  }

let drive ~checkpoint_every scenario s cfg sdb =
  drive_named ~checkpoint_every ~name:scenario.name ~label:(label s)
    ~workload:scenario.workload cfg sdb

(* A one-shard in-memory engine over [objs], traced on request. *)
let engine ?(record_trace = false) objs =
  let sdb = Sharded_database.create ~wals:[| Tm_engine.Wal.create () |] objs in
  if record_trace then Sharded_database.set_trace sdb (Trace.create ());
  sdb

let run ?record_trace scenario s cfg =
  drive ~checkpoint_every:0 scenario s cfg (engine ?record_trace (scenario.build s))

let run_custom ?record_trace ~name ~label ~workload ~build cfg =
  drive_named ~checkpoint_every:0 ~name ~label ~workload cfg
    (engine ?record_trace (build ()))

let run_matrix ?record_trace scenario cfg =
  List.map (fun s -> run ?record_trace scenario s cfg) default_setups

let pp_table ppf rows =
  Fmt.pf ppf "@[<v>%-24s %-10s %8s %8s %8s %8s %8s %8s %8s %8s %8s@;" "scenario" "setup"
    "commit" "abort" "victims" "stalls" "retries" "rounds" "exec" "blocked" "effcy";
  List.iter
    (fun r ->
      let s = r.stats in
      Fmt.pf ppf "%-24s %-10s %8d %8d %8d %8d %8d %8d %8d %8d %8.3f%s@;" r.scenario r.setup
        s.committed (aborts s) s.deadlock_victims s.stall_victims s.retries s.rounds
        s.executed s.blocked (efficiency s)
        (if r.consistent then "" else "  !! INCONSISTENT"))
    rows;
  Fmt.pf ppf "@]"
