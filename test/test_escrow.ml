(* The escrow method (O'Neil; paper §8) as an engine object:
   state-dependent grants.  Grants must be safe in every reachable
   state, aborts return escrowed quantities, exact reads pin the value,
   committed operations always replay against the bounded-counter
   specification, and an escrow counter shares transactions, logs and
   the dynamic-atomicity check with conflict-based objects (Theorem 2). *)

open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Recovery = Tm_engine.Recovery
module Experiment = Tm_sim.Experiment
module BA = Tm_adt.Bank_account

let incr i = Op.invocation ~args:[ Value.int i ] "incr"
let decr i = Op.invocation ~args:[ Value.int i ] "decr"
let read = Op.invocation "read"

let pool ~capacity ~initial =
  let module Pool = Tm_adt.Bounded_counter.Make (struct
    let capacity = capacity
    let initial = initial
    let name = "CTR"
  end) in
  Pool.spec

let make ?(capacity = 10) ?(initial = 5) () =
  Atomic_object.create_escrow ~spec:(pool ~capacity ~initial) ~capacity

let executed what e tid inv =
  match Atomic_object.invoke e tid inv with
  | Atomic_object.Executed op -> op.Op.res
  | o -> Alcotest.failf "%s: %a" what Atomic_object.pp_outcome o

let granted what e tid inv = ignore (executed what e tid inv)

let blocked what ~on e tid inv =
  match Atomic_object.invoke e tid inv with
  | Atomic_object.Blocked holders -> Alcotest.check Helpers.tids what on holders
  | o -> Alcotest.failf "%s: %a" what Atomic_object.pp_outcome o

(* The committed value, read by a transaction that then commits. *)
let value e tid =
  let v = executed "read the value" e tid read in
  Atomic_object.commit e tid;
  v

let test_concurrent_mixed_updates () =
  let e = make () in
  (* incr and decr from different transactions, both granted — neither
     conflict-based relation allows this pair concurrently. *)
  granted "decr granted" e Tid.a (decr 3);
  granted "incr granted" e Tid.b (incr 4);
  (* low 2: C may take 2 more but not 3 *)
  blocked "decr 3 past low" ~on:[ Tid.a; Tid.b ] e Tid.c (decr 3);
  granted "decr 2 at low" e Tid.c (decr 2);
  (* high 9 (C's decrement does not lower it): D may add 1 but not 2 *)
  blocked "incr 2 past high" ~on:[ Tid.a; Tid.b; Tid.c ] e Tid.d (incr 2);
  granted "incr 1 at high" e Tid.d (incr 1);
  Atomic_object.abort e Tid.c;
  Atomic_object.abort e Tid.d;
  Atomic_object.commit e Tid.a;
  Atomic_object.commit e Tid.b;
  Alcotest.check Helpers.value "value" (Value.int 6) (value e Tid.e)

let test_refusal_at_bounds () =
  let e = make () and reg = Tm_obs.Metrics.create () in
  Atomic_object.attach_metrics e reg;
  granted "decr 5 granted" e Tid.a (decr 5);
  (* the remaining guaranteed quantity is 0 *)
  blocked "decr 1 blocked" ~on:[ Tid.a ] e Tid.b (decr 1);
  Helpers.check_int "blocks counted" 1
    (Tm_obs.Metrics.counter_total reg "tm_object_blocked_total");
  (* capacity side: high = 5 committed + 0 pending increments; room 5 *)
  granted "incr 5 granted" e Tid.b (incr 5);
  blocked "incr 1 blocked" ~on:[ Tid.a; Tid.b ] e Tid.c (incr 1)

let test_abort_returns_escrow () =
  let e = make () in
  granted "decr 5" e Tid.a (decr 5);
  blocked "blocked" ~on:[ Tid.a ] e Tid.b (decr 1);
  Atomic_object.abort e Tid.a;
  granted "granted after abort" e Tid.b (decr 1);
  Atomic_object.commit e Tid.b;
  Alcotest.check Helpers.value "value" (Value.int 4) (value e Tid.c)

let test_exact_read () =
  let e = make () in
  Alcotest.check Helpers.value "reads 5" (Value.int 5) (executed "read" e Tid.a read);
  (* while A holds the read, B's update waits for A *)
  blocked "update blocked under read" ~on:[ Tid.a ] e Tid.b (incr 1);
  Atomic_object.commit e Tid.a;
  granted "update granted after" e Tid.b (incr 1)

let test_read_refused_under_updates () =
  let e = make () in
  granted "incr" e Tid.a (incr 1);
  blocked "other's read blocked" ~on:[ Tid.a ] e Tid.b read;
  (* the updater itself reads its own deterministic view *)
  Alcotest.check Helpers.value "own read 6" (Value.int 6) (executed "own read" e Tid.a read)

let test_no_at_a_point () =
  (* Nobody else holds escrow: the interval is the point 5, where
     decr(6) has the legal response [no] — answered, not waited on. *)
  let e = make () in
  Alcotest.check Helpers.value "decr 6 -> no" Value.no (executed "decr 6" e Tid.a (decr 6));
  (* the [no] pins the value as a read does *)
  blocked "update blocked under no" ~on:[ Tid.a ] e Tid.b (incr 1)

let test_replay_legal () =
  let e = make () in
  granted "decr 2" e Tid.a (decr 2);
  granted "incr 3" e Tid.b (incr 3);
  granted "incr 1" e Tid.a (incr 1);
  Atomic_object.commit e Tid.b;
  Atomic_object.commit e Tid.a;
  Helpers.check_bool "commit-order replay" true
    (Spec.legal (pool ~capacity:10 ~initial:5) (Atomic_object.committed_ops e))

let test_restore_installs_value () =
  let e = make () in
  let op name n res = Op.make ~obj:"CTR" ~args:[ Value.int n ] name res in
  let ops = [ op "incr" 3 Value.ok; op "decr" 9 Value.no; op "decr" 1 Value.ok ] in
  (match Atomic_object.restore e ops with
  | Ok () -> ()
  | Error err -> Alcotest.failf "restore: %a" Recovery.pp_error err);
  Alcotest.check Helpers.value "value" (Value.int 7) (value e Tid.a)

(* A counter whose spec disagrees with [~capacity], or that has no
   integer [read], is refused when it is created, naming the object:
   accepted, a spec bounded at 4 under [~capacity:10] granted [incr(5)]
   by the interval and then failed deep in the recovery manager. *)
let test_misconfiguration_refused () =
  let refused what spec ~capacity =
    match Atomic_object.create_escrow ~spec ~capacity with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
        let prefix = Fmt.str "Atomic_object.create_escrow: %s: " (Spec.name spec) in
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "%s: the message %S does not name the object" what msg
  in
  refused "capacity above the spec's" (pool ~capacity:4 ~initial:0) ~capacity:10;
  refused "capacity below the spec's" (pool ~capacity:10 ~initial:0) ~capacity:4;
  refused "initial value above capacity" (pool ~capacity:4 ~initial:6) ~capacity:4;
  refused "no integer read" BA.spec ~capacity:10;
  let full = Atomic_object.create_escrow ~spec:(pool ~capacity:4 ~initial:4) ~capacity:4 in
  Alcotest.check Helpers.value "a full counter is accepted" Value.no
    (executed "incr 1 at the bound" full Tid.a (incr 1));
  let e = Atomic_object.create_escrow ~spec:(pool ~capacity:4 ~initial:0) ~capacity:4 in
  Alcotest.check Helpers.value "the initial value is the spec's" (Value.int 0) (value e Tid.a)

let escrow_row ~capacity ~initial workload cfg =
  Experiment.run_custom ~name:"inventory" ~label:"escrow" ~workload
    ~build:(fun () ->
      [ Atomic_object.create_escrow ~spec:(pool ~capacity ~initial) ~capacity ])
    cfg

let test_fibers_end_to_end () =
  let capacity = 100_000 and initial = 50_000 in
  let cfg = Experiment.config ~concurrency:8 ~total_txns:100 ~seed:3 () in
  List.iter
    (fun d ->
      let workload = Tm_sim.Workload.inventory ~incr:(100 - d) ~decr:d ~read:0 () in
      let row = escrow_row ~capacity ~initial workload cfg in
      let stats = row.Experiment.stats in
      Helpers.check_int (Fmt.str "all committed (d=%d)" d) 100 stats.Experiment.committed;
      Helpers.check_int (Fmt.str "zero blocks (d=%d)" d) 0 stats.Experiment.blocked;
      Helpers.check_bool "verified" true row.Experiment.consistent)
    [ 0; 50; 100 ]

let test_fibers_with_reads_consistent () =
  let cfg = Experiment.config ~concurrency:6 ~total_txns:80 ~seed:5 () in
  let workload = Tm_sim.Workload.inventory ~incr:40 ~decr:40 ~read:20 () in
  let row = escrow_row ~capacity:1000 ~initial:500 workload cfg in
  let stats = row.Experiment.stats in
  Helpers.check_bool "verified" true row.Experiment.consistent;
  Helpers.check_bool "most committed" true
    (stats.Experiment.committed + stats.Experiment.gave_up = 80)

let test_invalid_invocation () =
  let e = make () in
  Alcotest.check_raises "bad invocation"
    (Invalid_argument "Atomic_object.invoke: CTR: not an escrow invocation: frobnicate")
    (fun () -> ignore (Atomic_object.invoke e Tid.a (Op.invocation "frobnicate")))

(* Theorem 2 across methods: an escrow counter, a UIP+NRBC account and a
   DU+NFC account in the same transactions.  Small bounds make [no]
   responses and waits at the bounds reachable, and reads make
   reader/updater deadlocks. *)
let mixed_objects () =
  let account name = Spec.rename (BA.spec_with_initial 2) name in
  [
    Atomic_object.create_escrow ~spec:(pool ~capacity:4 ~initial:2) ~capacity:4;
    Atomic_object.create ~spec:(account "BA0") ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ();
    Atomic_object.create ~spec:(account "BA1") ~conflict:BA.nfc_conflict
      ~recovery:Recovery.DU ();
  ]

let mixed_workload =
  let amount rng = [ Value.int (1 + Random.State.int rng 2) ] in
  let step rng =
    match Random.State.int rng 3 with
    | 0 ->
        ( "CTR",
          match Random.State.int rng 3 with
          | 0 -> Op.invocation ~args:(amount rng) "incr"
          | 1 -> Op.invocation ~args:(amount rng) "decr"
          | _ -> read )
    | k ->
        ( Fmt.str "BA%d" (k - 1),
          match Random.State.int rng 3 with
          | 0 -> Op.invocation ~args:(amount rng) "deposit"
          | 1 -> Op.invocation ~args:(amount rng) "withdraw"
          | _ -> Op.invocation "balance" )
  in
  {
    Tm_sim.Workload.name = "escrow+accounts";
    generate = (fun rng -> List.init (1 + Random.State.int rng 3) (fun _ -> step rng));
  }

let theorem2_gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 2 4))

let theorem2_prop (seed, concurrency) =
  let cfg = Experiment.config ~concurrency ~total_txns:6 ~seed ~max_retries:8 () in
  let row =
    Experiment.run_custom ~record_trace:true ~name:"theorem-2" ~label:"mixed"
      ~workload:mixed_workload ~build:mixed_objects cfg
  in
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (mixed_objects ())) in
  row.Experiment.consistent
  &&
  match row.Experiment.trace with
  | None -> false
  | Some tr -> Atomicity.is_dynamic_atomic env (Tm_obs.Trace.to_history tr)

(* A granted update by a transaction that already holds decides from the
   holdings' running totals: with eight other holders it allocates no
   more words than alone, and alone at most 44 (32, 2 of them the
   committed value read from the manager; 30 when the object kept the
   value beside the manager, 58 when each call built a pin-scan closure
   and an option for its own holding). *)
let test_grant_allocation () =
  let words others =
    let e = make ~capacity:1000 ~initial:500 () in
    for i = 1 to others do
      granted "other holder" e (Tid.of_int i) (incr 1)
    done;
    granted "own holding" e Tid.a (incr 1);
    let call () = Atomic_object.invoke e Tid.a (incr 1) in
    ignore (call ());
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (call ()));
    Gc.minor_words () -. before
  in
  let alone = words 0 and crowded = words 8 in
  if crowded > alone then
    Alcotest.failf "a grant beside 8 holders allocated %.0f words, alone %.0f" crowded alone;
  if alone > 44. then Alcotest.failf "a grant allocated %.0f words (max 44)" alone

let suite =
  [
    Alcotest.test_case "concurrent mixed updates" `Quick test_concurrent_mixed_updates;
    Alcotest.test_case "refusal at bounds" `Quick test_refusal_at_bounds;
    Alcotest.test_case "abort returns escrow" `Quick test_abort_returns_escrow;
    Alcotest.test_case "exact read" `Quick test_exact_read;
    Alcotest.test_case "read refused under updates" `Quick test_read_refused_under_updates;
    Alcotest.test_case "no at a point, not blocked" `Quick test_no_at_a_point;
    Alcotest.test_case "commit-order replay" `Quick test_replay_legal;
    Alcotest.test_case "restore installs the value" `Quick test_restore_installs_value;
    Alcotest.test_case "fibers end-to-end" `Slow test_fibers_end_to_end;
    Alcotest.test_case "fibers with reads" `Slow test_fibers_with_reads_consistent;
    Alcotest.test_case "invalid invocation" `Quick test_invalid_invocation;
    Alcotest.test_case "misconfiguration refused at creation" `Quick
      test_misconfiguration_refused;
    Alcotest.test_case "grant allocation independent of holders" `Quick
      test_grant_allocation;
    Helpers.qcheck ~count:60 "theorem 2: escrow + UIP + DU dynamic atomic" theorem2_gen
      theorem2_prop;
  ]
