(* The escrow method (O'Neil; paper §8): state-dependent conflict
   testing.  Grants must be safe in every reachable state, aborts return
   escrowed quantities, exact reads pin the interval, and committed
   operations always replay against the bounded-counter specification. *)

open Tm_core
module Escrow = Tm_engine.Escrow

let incr i = Op.invocation ~args:[ Value.int i ] "incr"
let decr i = Op.invocation ~args:[ Value.int i ] "decr"
let read = Op.invocation "read"

let make ?(capacity = 10) ?(initial = 5) () =
  Escrow.create ~capacity ~initial ~name:"CTR"

let granted = function Escrow.Granted _ -> true | Escrow.Refused -> false

let test_concurrent_mixed_updates () =
  let e = make () in
  (* incr and decr from different transactions, both granted — neither
     conflict-based relation allows this pair concurrently. *)
  Helpers.check_bool "decr granted" true (granted (Escrow.invoke e Tid.a (decr 3)));
  Helpers.check_bool "incr granted" true (granted (Escrow.invoke e Tid.b (incr 4)));
  Helpers.check_int "low" 2 (fst (Escrow.interval e));
  Helpers.check_int "high" 9 (snd (Escrow.interval e));
  Escrow.commit e Tid.a;
  Escrow.commit e Tid.b;
  Helpers.check_int "value" 6 (Escrow.committed_value e)

let test_refusal_at_bounds () =
  let e = make () in
  Helpers.check_bool "decr 5 granted" true (granted (Escrow.invoke e Tid.a (decr 5)));
  (* the remaining guaranteed quantity is 0 *)
  Helpers.check_bool "decr 1 refused" false (granted (Escrow.invoke e Tid.b (decr 1)));
  Helpers.check_int "refusals counted" 1 (Escrow.refusal_count e);
  (* capacity side: 5 committed + 5 pending... high = 5 + 0 incr = 5; room 5 *)
  Helpers.check_bool "incr 5 granted" true (granted (Escrow.invoke e Tid.b (incr 5)));
  Helpers.check_bool "incr 1 refused" false (granted (Escrow.invoke e Tid.c (incr 1)))

let test_abort_returns_escrow () =
  let e = make () in
  Helpers.check_bool "decr 5" true (granted (Escrow.invoke e Tid.a (decr 5)));
  Helpers.check_bool "refused" false (granted (Escrow.invoke e Tid.b (decr 1)));
  Escrow.abort e Tid.a;
  Helpers.check_bool "granted after abort" true (granted (Escrow.invoke e Tid.b (decr 1)));
  Escrow.commit e Tid.b;
  Helpers.check_int "value" 4 (Escrow.committed_value e)

let test_exact_read () =
  let e = make () in
  (match Escrow.invoke e Tid.a read with
  | Escrow.Granted op -> Alcotest.check Helpers.value "reads 5" (Value.int 5) op.Op.res
  | Escrow.Refused -> Alcotest.fail "read refused");
  (* while A holds the read, B's update is refused *)
  Helpers.check_bool "update refused under read" false
    (granted (Escrow.invoke e Tid.b (incr 1)));
  Escrow.commit e Tid.a;
  Helpers.check_bool "update granted after" true (granted (Escrow.invoke e Tid.b (incr 1)))

let test_read_refused_under_updates () =
  let e = make () in
  Helpers.check_bool "incr" true (granted (Escrow.invoke e Tid.a (incr 1)));
  Helpers.check_bool "other's read refused" false (granted (Escrow.invoke e Tid.b read));
  (* the updater itself reads its own deterministic view *)
  match Escrow.invoke e Tid.a read with
  | Escrow.Granted op -> Alcotest.check Helpers.value "own read 6" (Value.int 6) op.Op.res
  | Escrow.Refused -> Alcotest.fail "own read refused"

let test_replay_legal () =
  let e = make () in
  ignore (Escrow.invoke e Tid.a (decr 2));
  ignore (Escrow.invoke e Tid.b (incr 3));
  ignore (Escrow.invoke e Tid.a (incr 1));
  Escrow.commit e Tid.b;
  Escrow.commit e Tid.a;
  let module Pool = Tm_adt.Bounded_counter.Make (struct
    let capacity = 10
    let initial = 5
    let name = "CTR"
  end) in
  Helpers.check_bool "commit-order replay" true (Spec.legal Pool.spec (Escrow.committed_ops e))

let test_runner_end_to_end () =
  let capacity = 100_000 and initial = 50_000 in
  let cfg = Tm_sim.Experiment.config ~concurrency:8 ~total_txns:100 ~seed:3 () in
  List.iter
    (fun d ->
      let workload = Tm_sim.Workload.inventory ~incr:(100 - d) ~decr:d ~read:0 () in
      let e = Escrow.create ~capacity ~initial ~name:"CTR" in
      let stats = Tm_sim.Escrow_runner.run e workload cfg in
      Helpers.check_int (Fmt.str "all committed (d=%d)" d) 100 stats.Tm_sim.Experiment.committed;
      Helpers.check_int (Fmt.str "zero refusals (d=%d)" d) 0 stats.Tm_sim.Experiment.blocked;
      Helpers.check_bool "verified" true (Tm_sim.Escrow_runner.verify ~capacity ~initial e))
    [ 0; 50; 100 ]

let test_runner_with_reads_consistent () =
  let capacity = 1000 and initial = 500 in
  let cfg = Tm_sim.Experiment.config ~concurrency:6 ~total_txns:80 ~seed:5 () in
  let workload = Tm_sim.Workload.inventory ~incr:40 ~decr:40 ~read:20 () in
  let e = Escrow.create ~capacity ~initial ~name:"CTR" in
  let stats = Tm_sim.Escrow_runner.run e workload cfg in
  Helpers.check_bool "verified" true (Tm_sim.Escrow_runner.verify ~capacity ~initial e);
  Helpers.check_bool "most committed" true
    (stats.Tm_sim.Experiment.committed + stats.Tm_sim.Experiment.gave_up = 80)

let test_invalid_invocation () =
  let e = make () in
  Alcotest.check_raises "bad invocation"
    (Invalid_argument "Escrow.invoke: unsupported invocation frobnicate") (fun () ->
      ignore (Escrow.invoke e Tid.a (Op.invocation "frobnicate")))

let suite =
  [
    Alcotest.test_case "concurrent mixed updates" `Quick test_concurrent_mixed_updates;
    Alcotest.test_case "refusal at bounds" `Quick test_refusal_at_bounds;
    Alcotest.test_case "abort returns escrow" `Quick test_abort_returns_escrow;
    Alcotest.test_case "exact read" `Quick test_exact_read;
    Alcotest.test_case "read refused under updates" `Quick test_read_refused_under_updates;
    Alcotest.test_case "commit-order replay" `Quick test_replay_legal;
    Alcotest.test_case "runner end-to-end" `Slow test_runner_end_to_end;
    Alcotest.test_case "runner with reads" `Slow test_runner_with_reads_consistent;
    Alcotest.test_case "invalid invocation" `Quick test_invalid_invocation;
  ]
