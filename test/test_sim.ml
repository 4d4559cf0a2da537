(* Simulation layer: workload generators, the seeded fiber runtime,
   and the experiment harness (including determinism and the headline
   concurrency shapes the paper predicts). *)

open Tm_core
module Workload = Tm_sim.Workload
module Fiber = Tm_sim.Fiber
module Experiment = Tm_sim.Experiment

let cfg ?(total_txns = 60) ?(concurrency = 6) ?(seed = 11) () =
  Experiment.config ~concurrency ~total_txns ~seed ~max_retries:20 ()

let test_zipf_bounds () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 500 do
    let i = Workload.zipf rng ~n:7 ~skew:0.9 in
    Helpers.check_bool "in range" true (i >= 0 && i < 7)
  done;
  Helpers.check_int "n=1 always 0" 0 (Workload.zipf rng ~n:1 ~skew:2.0)

let test_zipf_skew_shape () =
  let rng = Random.State.make [| 4 |] in
  let counts = Array.make 8 0 in
  for _ = 1 to 4000 do
    let i = Workload.zipf rng ~n:8 ~skew:1.2 in
    counts.(i) <- counts.(i) + 1
  done;
  Helpers.check_bool "rank 0 most popular" true (counts.(0) > counts.(7) * 2)

(* The O(n) sampler [Workload.zipf] replaced: it rebuilds the weights
   on every draw and scans them left to right. *)
let reference_zipf rng ~n ~skew =
  if n <= 1 then 0
  else if skew <= 0. then Random.State.int rng n
  else begin
    let weights = Array.init n (fun k -> 1. /. ((float_of_int k +. 1.) ** skew)) in
    let total = Array.fold_left ( +. ) 0. weights in
    let x = Random.State.float rng total in
    let rec pick k acc =
      if k >= n - 1 then n - 1
      else
        let acc = acc +. weights.(k) in
        if x < acc then k else pick (k + 1) acc
    in
    pick 0 0.
  end

(* The table sampler picks the reference's rank on every draw and
   consumes the same randomness: 10^4 draws per parameter pair, then
   10^4 alternating between the pairs, so a table is swapped on every
   draw. *)
let test_zipf_matches_reference () =
  let params = [ (2, 0.5); (7, 0.9); (8, 1.2); (75, 2.5); (256, 0.99); (40, 30.); (5, 0.) ] in
  let rng = Random.State.make [| 6 |] and ref_rng = Random.State.make [| 6 |] in
  let draw (n, skew) =
    let got = Workload.zipf rng ~n ~skew and want = reference_zipf ref_rng ~n ~skew in
    if got <> want then
      Alcotest.failf "n=%d skew=%g: rank %d, the reference's %d" n skew got want
  in
  List.iter
    (fun p ->
      for _ = 1 to 10_000 do
        draw p
      done)
    params;
  let params = Array.of_list params in
  for i = 1 to 10_000 do
    draw params.(i mod Array.length params)
  done;
  Helpers.check_int "equal RNG states" (Random.State.bits ref_rng) (Random.State.bits rng)

let test_workload_deterministic () =
  let w = Workload.bank_hotspot () in
  let p1 = w.Workload.generate (Random.State.make [| 5 |]) in
  let p2 = w.Workload.generate (Random.State.make [| 5 |]) in
  Helpers.check_bool "same seed, same program" true (p1 = p2)

(* --- the fiber runtime --- *)

(* Five fibers, three steps each; the log of (fiber, step) in run order. *)
let interleaving seed =
  let t = Fiber.create ~registry:(Tm_obs.Metrics.create ()) (Random.State.make [| seed |]) in
  let log = ref [] in
  for i = 0 to 4 do
    Fiber.spawn t (fun () ->
        for step = 1 to 3 do
          log := (i, step) :: !log;
          Fiber.yield ()
        done)
  done;
  Fiber.run t;
  (List.rev !log, Fiber.round t)

let test_fiber_same_seed () =
  let l1, r1 = interleaving 7 and l2, r2 = interleaving 7 in
  Helpers.check_bool "same seed, same interleaving" true (l1 = l2);
  Helpers.check_int "same rounds" r1 r2;
  (* every fiber steps once a round: three rounds of five, plus the
     round in which each returns *)
  Helpers.check_int "rounds" 4 r1;
  Helpers.check_bool "another seed, another interleaving" true
    (List.exists (fun s -> fst (interleaving s) <> l1) [ 1; 2; 3 ])

let test_fiber_sleep () =
  let t = Fiber.create ~registry:(Tm_obs.Metrics.create ()) (Random.State.make [| 1 |]) in
  let seen = ref [] in
  Fiber.spawn t (fun () ->
      seen := Fiber.round t :: !seen;
      Fiber.sleep 3;
      seen := Fiber.round t :: !seen);
  Fiber.run t;
  Alcotest.(check (list int)) "sleep 3 in round 1 resumes in round 5" [ 5; 1 ] !seen;
  Helpers.check_int "idle rounds counted" 5 (Fiber.round t)

let test_fiber_all_parked () =
  let reg = Tm_obs.Metrics.create () in
  let t = Fiber.create ~registry:reg (Random.State.make [| 1 |]) in
  let rt = Fiber.runtime t in
  let woken = ref false in
  (* Both park; the sleeper's broadcast wakes them (no raise while it
     sleeps), and then both park again with nobody left to wake them. *)
  Fiber.spawn t (fun () ->
      rt.wait (Tid.of_int 4);
      rt.wait (Tid.of_int 4));
  Fiber.spawn t (fun () ->
      rt.wait (Tid.of_int 2);
      woken := true;
      rt.wait (Tid.of_int 2));
  Fiber.spawn t (fun () ->
      Fiber.sleep 2;
      rt.broadcast ());
  (match Fiber.run t with
  | () -> Alcotest.fail "the run returned with fibers parked"
  | exception Fiber.All_parked tids ->
      Alcotest.(check (list int)) "names the parked tids" [ 2; 4 ]
        (List.map Tid.to_int tids));
  Helpers.check_bool "the broadcast woke the parked" true !woken;
  Helpers.check_int "rounds counted in the registry" (Fiber.round t)
    (Tm_obs.Metrics.counter_value reg "tm_sched_rounds_total")

let test_scheduler_completes_all () =
  let row = Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (cfg ()) in
  let s = row.Experiment.stats in
  Helpers.check_int "all programs accounted" 60 (s.committed + s.gave_up + s.unanswered);
  Helpers.check_bool "consistent" true row.Experiment.consistent

let test_scheduler_deterministic () =
  let run () =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic)
      (cfg ())
  in
  let r1 = run () and r2 = run () in
  Helpers.check_bool "identical stats" true (r1.Experiment.stats = r2.Experiment.stats)

let test_matrix_all_consistent () =
  List.iter
    (fun scenario ->
      List.iter
        (fun row ->
          Helpers.check_bool
            (row.Experiment.scenario ^ "/" ^ row.Experiment.setup ^ " consistent")
            true row.Experiment.consistent)
        (Experiment.run_matrix scenario (cfg ~total_txns:40 ())))
    Experiment.all_scenarios

(* The paper-shaped results (Section 8 quantified): each side of the
   incomparability.  Makespan in rounds; lower is better. *)
let rounds scenario setup =
  let row = Experiment.run scenario setup (cfg ~total_txns:80 ~concurrency:8 ()) in
  Helpers.check_bool "consistent" true row.Experiment.consistent;
  row.Experiment.stats.rounds

let uip = Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic
let du = Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic

let test_withdraw_heavy_favours_uip () =
  (* All-withdrawal mix: successful withdrawals right-commute-backward
     (UIP runs them concurrently) but do not commute forward (DU
     serialises them). *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:100 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "UIP (%d) at least 2x faster than DU (%d)" u d) true
    (u * 2 < d)

let test_mixed_update_favours_du () =
  (* Deposit/withdraw mix: the pairs commute forward (DU) but withdrawals
     do not push back over deposits (UIP). *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:25 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "DU (%d) at least 2x faster than UIP (%d)" d u) true
    (d * 2 < u)

let test_increment_only_favours_uip () =
  (* Escrow pool, restock-only: bounded increments RBC- but not
     FC-commute. *)
  let scenario = Experiment.inventory_sweep ~decr_pct:0 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "UIP (%d) at least 2x faster than DU (%d)" u d) true
    (u * 2 < d)

let test_semantic_beats_rw_on_multiaccount () =
  let scenario = Experiment.bank_accounts () in
  let rw = Experiment.setup Tm_engine.Recovery.UIP Experiment.Read_write in
  let sem = rounds scenario du and base = rounds scenario rw in
  Helpers.check_bool (Fmt.str "semantic (%d) beats RW 2PL (%d)" sem base) true (sem < base)

let test_deposits_scale_perfectly () =
  (* All-deposit workload: no conflicts at all under either semantic
     relation — every transaction runs unhindered. *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:0 in
  List.iter
    (fun setup ->
      let row = Experiment.run scenario setup (cfg ~total_txns:80 ~concurrency:8 ()) in
      Helpers.check_int (Experiment.label setup ^ " zero blocks") 0
        row.Experiment.stats.blocked)
    [ uip; du ]

let test_transfer_scenario () =
  List.iter
    (fun row ->
      Helpers.check_bool (row.Experiment.setup ^ " consistent") true
        row.Experiment.consistent)
    (Experiment.run_matrix (Experiment.transfer ()) (cfg ~total_txns:60 ()))

(* Theorem 2 in action: objects with different recovery methods and
   conflict relations coexist; the global recorded history of the
   60-program run is still dynamic atomic. *)
let test_mixed_recovery_locality () =
  let scenario = Experiment.transfer_mixed_recovery ~accounts:4 () in
  let row = Experiment.run ~record_trace:true scenario uip (cfg ~total_txns:60 ()) in
  Helpers.check_bool "mixed-recovery run consistent" true row.Experiment.consistent;
  let funded = Tm_adt.Bank_account.spec_with_initial 100_000 in
  let env =
    Atomicity.env_of_list (List.init 4 (fun i -> Spec.rename funded (Fmt.str "BA%d" i)))
  in
  match row.Experiment.trace with
  | None -> Alcotest.fail "no trace recorded"
  | Some tr ->
      Helpers.check_bool "global history dynamic atomic" true
        (Atomicity.is_dynamic_atomic env (Tm_obs.Trace.to_history tr))

(* The negative leg at the same size: the hot-spot workload on an
   unfunded account under UIP with the bank's NFC in place of NRBC
   (Theorem 9's missing pair: a withdrawal may read an uncommitted
   deposit).  Its traced history is well-formed and not dynamic atomic,
   and the checker's order is a consistent one that does not
   serialize. *)
let test_uip_with_nfc_rejected () =
  let module BA = Tm_adt.Bank_account in
  let build () =
    [
      Tm_engine.Atomic_object.create ~spec:BA.spec ~conflict:BA.nfc_conflict
        ~recovery:Tm_engine.Recovery.UIP ();
    ]
  in
  let row =
    Experiment.run_custom ~record_trace:true ~name:"bank-hotspot" ~label:"UIP+NFC"
      ~workload:Experiment.bank_hotspot.workload ~build (cfg ~total_txns:60 ())
  in
  let h =
    match row.Experiment.trace with
    | None -> Alcotest.fail "no trace recorded"
    | Some tr -> Tm_obs.Trace.to_history tr
  in
  let env = Atomicity.env_of_list [ BA.spec ] in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_bool "more than 8 transactions" true
    (Tid.Set.cardinal (History.committed h) > 8);
  match Atomicity.dynamic_atomic env h with
  | Atomicity.Ok -> Alcotest.fail "UIP+NFC history accepted"
  | Atomicity.Counterexample order ->
      Helpers.check_int "counterexample orders every committed transaction"
        (Tid.Set.cardinal (History.committed h)) (List.length order);
      Helpers.check_bool "consistent with precedes" true
        (Orders.consistent order (History.precedes h));
      Helpers.check_bool "does not serialize" false
        (Atomicity.serializable_in env (History.permanent h) order)

let test_scheduler_edges () =
  (* concurrency 1 = serial execution: no blocking, no aborts *)
  let row =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (Experiment.config ~concurrency:1 ~total_txns:20 ~seed:1 ())
  in
  Helpers.check_int "serial: all committed" 20 row.Experiment.stats.committed;
  Helpers.check_int "serial: no blocking" 0 row.Experiment.stats.blocked;
  (* zero transactions *)
  let empty =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic)
      (Experiment.config ~concurrency:4 ~total_txns:0 ~seed:1 ())
  in
  Helpers.check_int "none committed" 0 empty.Experiment.stats.committed;
  Helpers.check_int "zero rounds" 0 empty.Experiment.stats.rounds;
  (* max_retries 0: deadlock victims give up instead of retrying *)
  let harsh =
    Experiment.run (Experiment.bank_sweep ~withdraw_pct:50)
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (Experiment.config ~concurrency:8 ~total_txns:50 ~seed:1 ~max_retries:0 ())
  in
  let s = harsh.Experiment.stats in
  Helpers.check_int "committed + gave_up + unanswered = all" 50
    (s.committed + s.gave_up + s.unanswered);
  Helpers.check_bool "consistent under give-up" true harsh.Experiment.consistent

(* Consumers of a queue nobody fills wait for a response no program
   left can give: the run ends by aborting them, not by hanging or
   raising. *)
let test_unanswered_waiters () =
  let row =
    Experiment.run_custom ~name:"consumers" ~label:"UIP+NRBC"
      ~workload:{ Workload.name = "consumers"; generate = (fun _ -> [ ("FQ", Op.invocation "deq") ]) }
      ~build:(fun () ->
        [
          Tm_engine.Atomic_object.create ~spec:Tm_adt.Fifo_queue.spec
            ~conflict:Tm_adt.Fifo_queue.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ();
        ])
      (Experiment.config ~concurrency:2 ~total_txns:3 ~seed:1 ())
  in
  let s = row.Experiment.stats in
  Helpers.check_int "none committed" 0 s.committed;
  Helpers.check_int "every consumer unanswered" 3 s.unanswered;
  Helpers.check_int "none gave up" 0 s.gave_up;
  Helpers.check_bool "consistent" true row.Experiment.consistent

(* A consumer deposits, then waits on the empty queue while the
   producer that would fill it blocks behind the deposit: only the
   engine's stall rule lets the run finish.  Without the rule the run
   raises [Fiber.All_parked] at once instead of counting the stalled
   pair as given up or unanswered. *)
let test_stall_broken_in_harness () =
  let next = ref 0 in
  let workload =
    {
      Workload.name = "deposit-then-consume";
      generate =
        (fun _ ->
          incr next;
          if !next mod 2 = 1 then
            [ ("BA", Op.invocation ~args:[ Value.int 1 ] "deposit"); ("FQ", Op.invocation "deq") ]
          else
            [ ("BA", Op.invocation "balance"); ("FQ", Op.invocation ~args:[ Value.int 1 ] "enq") ]);
    }
  in
  let build () =
    [
      Tm_engine.Atomic_object.create ~spec:Tm_adt.Bank_account.spec
        ~conflict:Tm_adt.Bank_account.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ();
      Tm_engine.Atomic_object.create ~spec:Tm_adt.Fifo_queue.spec
        ~conflict:Tm_adt.Fifo_queue.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ();
    ]
  in
  let row =
    Experiment.run_custom ~name:"stall" ~label:"UIP+NRBC" ~workload ~build
      (Experiment.config ~concurrency:2 ~total_txns:8 ~seed:1 ())
  in
  let s = row.Experiment.stats in
  Helpers.check_bool "a stall victim was chosen" true (s.stall_victims >= 1);
  Helpers.check_int "every program commits" 8 s.committed;
  Helpers.check_bool "consistent" true row.Experiment.consistent

let test_pp_smoke () =
  let rows = Experiment.run_matrix Experiment.bank_hotspot (cfg ~total_txns:20 ()) in
  let rendered = Fmt.str "%a" Experiment.pp_table rows in
  Helpers.check_bool "renders" true (String.length rendered > 100)

let suite =
  [
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf skew shape" `Quick test_zipf_skew_shape;
    Alcotest.test_case "zipf matches the O(n) sampler" `Quick test_zipf_matches_reference;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "fiber: same seed, same interleaving" `Quick test_fiber_same_seed;
    Alcotest.test_case "fiber: sleep k resumes after k rounds" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber: all parked raises" `Quick test_fiber_all_parked;
    Alcotest.test_case "scheduler completes all" `Quick test_scheduler_completes_all;
    Alcotest.test_case "scheduler deterministic" `Quick test_scheduler_deterministic;
    Alcotest.test_case "matrix all consistent" `Slow test_matrix_all_consistent;
    Alcotest.test_case "withdraw-heavy favours UIP" `Slow test_withdraw_heavy_favours_uip;
    Alcotest.test_case "mixed updates favour DU" `Slow test_mixed_update_favours_du;
    Alcotest.test_case "increment-only favours UIP" `Slow test_increment_only_favours_uip;
    Alcotest.test_case "semantic beats RW 2PL" `Slow test_semantic_beats_rw_on_multiaccount;
    Alcotest.test_case "deposits scale perfectly" `Slow test_deposits_scale_perfectly;
    Alcotest.test_case "transfer scenario" `Slow test_transfer_scenario;
    Alcotest.test_case "mixed recovery locality (Thm 2)" `Slow test_mixed_recovery_locality;
    Alcotest.test_case "UIP with NFC rejected at 60 programs" `Quick test_uip_with_nfc_rejected;
    Alcotest.test_case "scheduler edge cases" `Quick test_scheduler_edges;
    Alcotest.test_case "unanswered waiters aborted at the end" `Quick test_unanswered_waiters;
    Alcotest.test_case "stall broken in the harness" `Quick test_stall_broken_in_harness;
    Alcotest.test_case "table rendering" `Quick test_pp_smoke;
  ]
