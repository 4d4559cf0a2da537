(* Reproduction harness.

   One section per artifact of the paper (see DESIGN.md §2 and
   EXPERIMENTS.md): the two commutativity tables of Section 6 are
   regenerated from the specification and diffed against the published
   figures; the worked examples of Sections 3.2, 3.3 and 5 are re-checked; the
   only-if counterexamples of Theorems 9 and 10 are constructed and
   verified; and the concurrency trade-off of Section 8 is quantified by
   deterministic sweeps of the engine on seeded fibers.  The output is deterministic and
   pinned byte for byte by [main.expected] (`dune runtest`).  Engine
   performance is measured by the layered benchmark in [bench/perf]. *)

open Tm_core
module BA = Tm_adt.Bank_account
module Experiment = Tm_sim.Experiment

let section title = Fmt.pr "@.=== %s ===@.@." title

let verdict ok = if ok then "MATCH" else "MISMATCH"

(* ------------------------------------------------------------------ *)
(* Figures 6-1 and 6-2: commutativity tables for the bank account.     *)

let params = Commutativity.params ~alpha_depth:5 ~future_depth:5 ()

let figure_6_1 () =
  section "F6.1 — Figure 6-1: forward commutativity for BA";
  let computed = Commutativity.fc_table BA.spec params BA.classes in
  Fmt.pr "computed from Spec(BA):@.%a@." Commutativity.pp_table computed;
  Fmt.pr "paper figure:         %s@."
    (verdict (Commutativity.equal_table computed BA.paper_fc_table))

let figure_6_2 () =
  section "F6.2 — Figure 6-2: right backward commutativity for BA";
  let computed = Commutativity.rbc_table BA.spec params BA.classes in
  Fmt.pr "computed from Spec(BA):@.%a@." Commutativity.pp_table computed;
  Fmt.pr "paper figure:         %s@."
    (verdict (Commutativity.equal_table computed BA.paper_rbc_table))

(* ------------------------------------------------------------------ *)
(* Section 3.2: membership in Spec(BA).                                *)

let example_3_2 () =
  section "E3.2 — Spec(BA) membership in Section 3.2";
  let legal = [ BA.deposit 5; BA.withdraw_ok 3; BA.balance 2; BA.withdraw_no 3 ] in
  let illegal = [ BA.deposit 5; BA.withdraw_ok 3; BA.balance 2; BA.withdraw_ok 3 ] in
  Fmt.pr "dep(5);w(3)ok;bal=2;w(3)no in Spec (paper: yes): %b@." (Spec.legal BA.spec legal);
  Fmt.pr "dep(5);w(3)ok;bal=2;w(3)ok in Spec (paper: no):  %b@." (Spec.legal BA.spec illegal)

(* ------------------------------------------------------------------ *)
(* Section 3.3 example history.                                        *)

let example_3_3 () =
  section "E3.3 — the worked history of Section 3.3";
  let env = Atomicity.env_of_list [ BA.spec ] in
  let h =
    History.empty
    |> History.exec Tid.a (BA.deposit 3)
    |> History.exec Tid.b (BA.withdraw_ok 2)
    |> History.exec Tid.a (BA.balance 3)
    |> History.invoke Tid.b ~obj:"BA" (Op.invocation "balance")
    |> History.commit_at Tid.a "BA"
    |> History.respond Tid.b ~obj:"BA" (Value.int 1)
    |> History.commit_at Tid.b "BA"
    |> History.exec Tid.c (BA.withdraw_no 2)
    |> History.commit_at Tid.c "BA"
  in
  Fmt.pr "%a@.@." History.pp h;
  Fmt.pr "atomic (paper: yes):          %b@." (Atomicity.atomic env h);
  Fmt.pr "dynamic atomic (paper: yes):  %b@." (Atomicity.is_dynamic_atomic env h);
  Fmt.pr "serializes in A-B-C:          %b@."
    (Atomicity.serializable_in env (History.permanent h) [ Tid.a; Tid.b; Tid.c ]);
  (* the paper's perturbation: B's last response before A's commit *)
  let perturbed =
    History.empty
    |> History.exec Tid.a (BA.deposit 3)
    |> History.exec Tid.b (BA.withdraw_ok 2)
    |> History.exec Tid.a (BA.balance 3)
    |> History.exec Tid.b (BA.balance 1)
    |> History.commit_at Tid.a "BA"
    |> History.commit_at Tid.b "BA"
    |> History.exec Tid.c (BA.withdraw_no 2)
    |> History.commit_at Tid.c "BA"
  in
  Fmt.pr "perturbed variant dynamic atomic (paper: no): %b@."
    (Atomicity.is_dynamic_atomic env perturbed)

(* ------------------------------------------------------------------ *)
(* Section 5 example: UIP vs DU views.                                 *)

let example_5_1 () =
  section "E5.1 — the Section 5 view example";
  let h =
    History.empty
    |> History.exec Tid.a (BA.deposit 5)
    |> History.commit_at Tid.a "BA"
    |> History.exec Tid.b (BA.withdraw_ok 3)
  in
  Fmt.pr "%a@.@." History.pp h;
  let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp) in
  Fmt.pr "UIP(H,B) = [%a]   (paper: deposit;withdraw)@." pp_ops (View.apply View.uip h Tid.b);
  Fmt.pr "UIP(H,C) = [%a]   (paper: same)@." pp_ops (View.apply View.uip h Tid.c);
  Fmt.pr "DU(H,B)  = [%a]   (paper: deposit;withdraw)@." pp_ops (View.apply View.du h Tid.b);
  Fmt.pr "DU(H,C)  = [%a]   (paper: deposit only)@." pp_ops (View.apply View.du h Tid.c)

(* ------------------------------------------------------------------ *)
(* Theorems 9 and 10: constructive only-if + soundness.                *)

let theorem tag name refute sound_conflict unsound_conflict view =
  section (tag ^ " — " ^ name);
  (match refute unsound_conflict with
  | None -> Fmt.pr "unexpected: no counterexample found@."
  | Some (cex : Theorems.cex) ->
      let i = Impl_model.make ~spec:BA.spec ~view ~conflict:unsound_conflict in
      let env = Atomicity.env_of_list [ BA.spec ] in
      Fmt.pr "deficient relation %s admits:@.%a@." (Conflict.name unsound_conflict)
        Theorems.pp_cex cex;
      Fmt.pr "history in L(I):        %b (paper: yes)@." (Impl_model.valid i cex.history);
      Fmt.pr "dynamic atomic:         %b (paper: no)@."
        (Atomicity.is_dynamic_atomic env cex.history));
  Fmt.pr "sound relation %s refutable: %b (paper: no)@." (Conflict.name sound_conflict)
    (Option.is_some (refute sound_conflict))

let theorem_9 () =
  theorem "T9" "Theorem 9: I(X,Spec,UIP,C) correct iff NRBC ⊆ C"
    (fun c -> Theorems.uip_refute BA.spec params c)
    BA.nrbc_conflict BA.nfc_conflict View.uip

let theorem_10 () =
  theorem "T10" "Theorem 10: I(X,Spec,DU,C) correct iff NFC ⊆ C"
    (fun c -> Theorems.du_refute BA.spec params c)
    BA.nfc_conflict BA.nrbc_conflict View.du

(* ------------------------------------------------------------------ *)
(* Incomparability of NFC and NRBC across the ADT library.             *)

let incomparability () =
  section "INC — NFC vs NRBC across the ADT library (Section 6.4)";
  let report name spec (nfc : Conflict.t) (nrbc : Conflict.t) =
    let ops = Spec.generators spec in
    let pairs rel =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if Conflict.conflicts rel ~requested:a ~held:b then Some (a, b) else None)
            ops)
        ops
    in
    let n1 = pairs nfc and n2 = pairs nrbc in
    let diff l1 l2 = List.filter (fun x -> not (List.mem x l2)) l1 in
    let d12 = diff n1 n2 and d21 = diff n2 n1 in
    Fmt.pr "%-4s |NFC|=%3d |NRBC|=%3d |NFC\\NRBC|=%3d |NRBC\\NFC|=%3d" name
      (List.length n1) (List.length n2) (List.length d12) (List.length d21);
    (match d12, d21 with
    | (a, b) :: _, (c, d) :: _ ->
        Fmt.pr "  e.g. %a/%a vs %a/%a" Op.pp_short a Op.pp_short b Op.pp_short c
          Op.pp_short d
    | _ -> ());
    Fmt.pr "@."
  in
  report "BA" BA.spec BA.nfc_conflict BA.nrbc_conflict;
  (let module C = Tm_adt.Bounded_counter in
   report "CTR" C.spec C.nfc_conflict C.nrbc_conflict);
  (let module S = Tm_adt.Int_set in
   report "SET" S.spec S.nfc_conflict S.nrbc_conflict);
  (let module R = Tm_adt.Register in
   report "REG" R.spec R.nfc_conflict R.nrbc_conflict);
  (let module Q = Tm_adt.Semiqueue in
   report "SQ" Q.spec Q.nfc_conflict Q.nrbc_conflict);
  (let module K = Tm_adt.Kv_store in
   report "KV" K.spec K.nfc_conflict K.nrbc_conflict);
  (let module M = Tm_adt.Ordered_map in
   report "OM" M.spec M.nfc_conflict M.nrbc_conflict);
  Fmt.pr "@.(non-empty differences both ways = the recovery methods place@.\
          incomparable constraints on concurrency control)@."

(* ------------------------------------------------------------------ *)
(* C1: the concurrency trade-off quantified.                           *)

let cfg = Experiment.config ~concurrency:8 ~total_txns:200 ~seed:7 ()

let run_sweep title scenarios =
  section title;
  List.iter
    (fun scenario -> Fmt.pr "%a@." Experiment.pp_table (Experiment.run_matrix scenario cfg))
    scenarios

let c1a () =
  run_sweep
    "C1a — hot-spot account, withdraw-fraction sweep (UIP wins right end, DU wins left-middle)"
    (List.map (fun w -> Experiment.bank_sweep ~withdraw_pct:w) [ 0; 25; 50; 75; 100 ])

let c1b () =
  run_sweep
    "C1b — escrow pool, reservation-fraction sweep (UIP wins the ends; in the middle both lose to serial)"
    (List.map (fun d -> Experiment.inventory_sweep ~decr_pct:d) [ 0; 25; 50; 75; 100 ])

let c1c () =
  run_sweep "C1c — mixed workloads: semantic locking vs read/write 2PL"
    [
      Experiment.bank_hotspot;
      Experiment.bank_accounts ();
      Experiment.register_baseline;
      Experiment.kv_store ();
    ]

let c1d () =
  run_sweep "C1d — broker queues: FIFO vs semiqueue (weaker spec, more concurrency)"
    [ Experiment.queue_fifo; Experiment.queue_semiqueue ]

let c1e () =
  section "C1e — scaling: rounds to commit 200 mixed transactions vs concurrency";
  Fmt.pr "%-12s %10s %10s %10s %10s@." "concurrency" "UIP+NRBC" "DU+NFC" "OCC+NFC" "serial";
  let scenario = Experiment.bank_hotspot in
  List.iter
    (fun c ->
      let cfg = Experiment.config ~concurrency:c ~total_txns:200 ~seed:7 () in
      let rounds s =
        let row = Experiment.run scenario s cfg in
        assert row.Experiment.consistent;
        row.Experiment.stats.rounds
      in
      Fmt.pr "%-12d %10d %10d %10d %10d@." c
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Total)))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Ablations (Section 8's design-choice claims, quantified).           *)

let funded = Tm_adt.Bank_account.spec_with_initial 100_000

let bank_ablation_row ~scenario_name ~label ~withdraw_pct conflict =
  let workload =
    Tm_sim.Workload.bank_hotspot ~deposit:(100 - withdraw_pct) ~withdraw:withdraw_pct
      ~balance:0 ()
  in
  Experiment.run_custom ~name:scenario_name ~label ~workload
    ~build:(fun () ->
      [
        Tm_engine.Atomic_object.create ~spec:funded ~conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ])
    cfg

let abl_nrbc_refinements () =
  section
    "ABL1 — UIP locking: NRBC vs its symmetric closure vs invocation-blind \
     (the paper's 'fewer conflicts than previous algorithms')";
  let nrbc = BA.nrbc_conflict in
  let sym = Conflict.symmetric_closure nrbc in
  let blind = Conflict.invocation_blind BA.spec nrbc in
  List.iter
    (fun w ->
      let scenario_name = Fmt.str "bank-w%d" w in
      let rows =
        [
          bank_ablation_row ~scenario_name ~label:"NRBC" ~withdraw_pct:w nrbc;
          bank_ablation_row ~scenario_name ~label:"sym(NRBC)" ~withdraw_pct:w sym;
          bank_ablation_row ~scenario_name ~label:"inv-blind" ~withdraw_pct:w blind;
        ]
      in
      Fmt.pr "%a@." Experiment.pp_table rows)
    [ 50; 100 ]

let abl_escrow () =
  section
    "ABL2 — escrow (O'Neil) vs conflict-based locking on the inventory pool \
     (state-dependent conflict tests are outside the paper's framework and \
     beat both recovery methods on mixed updates)";
  let capacity = 100_000 and initial = 50_000 in
  let module Pool = Tm_adt.Bounded_counter.Make (struct
    let capacity = capacity
    let initial = initial
    let name = "CTR"
  end) in
  Fmt.pr "%-12s %12s %12s %12s %12s@." "decr%" "UIP+NRBC" "DU+NFC" "OCC+NFC" "escrow";
  List.iter
    (fun d ->
      let scenario = Experiment.inventory_sweep ~decr_pct:d in
      let rounds row =
        assert row.Experiment.consistent;
        row.Experiment.stats.rounds
      in
      let engine_rounds s = rounds (Experiment.run scenario s cfg) in
      let escrow =
        Experiment.run_custom ~name:scenario.Experiment.name ~label:"escrow"
          ~workload:scenario.Experiment.workload
          ~build:(fun () ->
            [ Tm_engine.Atomic_object.create_escrow ~spec:Pool.spec ~capacity ])
          cfg
      in
      Fmt.pr "%-12d %12d %12d %12d %12d@." d
        (engine_rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        (engine_rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        (engine_rounds (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds escrow))
    [ 0; 25; 50; 75; 100 ]

let abl_occ_contention () =
  section
    "ABL3 — optimistic vs pessimistic DU under rising concurrency \
     (mixed-update hot spot: validation aborts vs blocking)";
  Fmt.pr "%-12s %12s %12s %14s %14s@." "concurrency" "DU rounds" "OCC rounds" "DU blocked"
    "OCC v-aborts";
  List.iter
    (fun c ->
      let cfg = Experiment.config ~concurrency:c ~total_txns:200 ~seed:7 () in
      let scenario = Experiment.bank_sweep ~withdraw_pct:50 in
      let du =
        Experiment.run scenario (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic) cfg
      in
      let occ =
        Experiment.run scenario
          (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic)
          cfg
      in
      assert (du.Experiment.consistent && occ.Experiment.consistent);
      Fmt.pr "%-12d %12d %12d %14d %14d@." c du.Experiment.stats.rounds
        occ.Experiment.stats.rounds du.Experiment.stats.blocked
        occ.Experiment.stats.validation_aborts)
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* EXT-V: probing other View functions (the paper's open question).    *)

let ext_views () =
  section
    "EXT-V — probing View functions (\"are there other View functions...?\", §5): \
     required conflict pairs discovered by bounded model checking";
  (* a compact operation sample keeps the probe fast and the matrix
     readable *)
  let sample = [ BA.deposit 1; BA.withdraw_ok 1; BA.withdraw_no 1; BA.balance 0; BA.balance 1 ] in
  let labels = [ "dep"; "wok"; "wno"; "bal0"; "bal1" ] in
  let probe view =
    Theorems.probe_required_pairs BA.spec view ~ops:sample ~txns:2 ~ops_per_txn:2
      ~max_events:8 ~limit:4000
  in
  let matrix name view reference =
    let required = probe view in
    Fmt.pr "@.%s: required pairs (rows requested, columns held; * = required)@." name;
    Fmt.pr "%6s %s@." "" (String.concat " " (List.map (Fmt.str "%4s") labels));
    List.iteri
      (fun i p ->
        let cells =
          List.map
            (fun q ->
              Fmt.str "%4s"
                (if List.exists (fun (a, b) -> Op.equal a p && Op.equal b q) required then "*"
                 else ""))
            sample
        in
        Fmt.pr "%6s %s@." (List.nth labels i) (String.concat " " cells))
      sample;
    match reference with
    | None -> ()
    | Some (ref_name, rel) ->
        let agrees =
          List.for_all
            (fun p ->
              List.for_all
                (fun q ->
                  List.exists (fun (a, b) -> Op.equal a p && Op.equal b q) required
                  = Conflict.conflicts rel ~requested:p ~held:q)
                sample)
            sample
        in
        Fmt.pr "matches %s on the sample: %b@." ref_name agrees
  in
  matrix "UIP" View.uip (Some ("NRBC (Theorem 9)", BA.nrbc_conflict));
  matrix "DU" View.du (Some ("NFC (Theorem 10)", BA.nfc_conflict));
  (* A candidate third view: committed operations in *execution* order
     (not commit order), then the transaction's own — an intentions-list
     system that installs at original log positions. *)
  let du_exec =
    View.make ~name:"DU-exec" (fun h a ->
        History.opseq (History.permanent h) @ History.opseq (History.project_tid h a))
  in
  matrix "DU-exec-order" du_exec None;
  Fmt.pr
    "@.(pairwise probing gives a lower bound for novel views; for UIP and DU it@.\
     rediscovers the theorems' relations exactly)@."

(* ------------------------------------------------------------------ *)
(* OBS: registry-backed engine counters per scenario/setup.            *)

module Metrics = Tm_obs.Metrics

(* All histograms of one family (a name across its label sets). *)
let hist_family reg name =
  Metrics.fold reg
    (fun acc n _labels m ->
      match m with
      | Metrics.Histogram h when String.equal n name -> h :: acc
      | _ -> acc)
    []

let obs_breakdown () =
  section
    "OBS — observability breakdown: engine counters from each run's metrics \
     registry (conflicts are lock-table hits, waits are logical blocked ticks)";
  Fmt.pr "%-24s %-10s %10s %8s %8s %8s %8s %8s %9s %9s@." "scenario" "setup"
    "conflicts" "blocked" "no-resp" "v-fail" "victims" "retries" "wait-avg" "wait-p99";
  let pp_opt ppf = function
    | None -> Fmt.pf ppf "%9s" "-"
    | Some v -> Fmt.pf ppf "%9.1f" v
  in
  List.iter
    (fun scenario ->
      List.iter
        (fun (r : Experiment.row) ->
          let reg = r.metrics in
          let total = Metrics.counter_total reg in
          let waits = hist_family reg "tm_lock_wait_ticks" in
          let count = List.fold_left (fun a h -> a + Metrics.Histogram.count h) 0 waits in
          let sum = List.fold_left (fun a h -> a +. Metrics.Histogram.sum h) 0. waits in
          let avg = if count = 0 then None else Some (sum /. float_of_int count) in
          let p99 =
            List.fold_left
              (fun acc h ->
                match Metrics.Histogram.quantile h 0.99 with
                | Some v -> Some (max v (Option.value acc ~default:v))
                | None -> acc)
              None waits
          in
          Fmt.pr "%-24s %-10s %10d %8d %8d %8d %8d %8d %a %a@." r.scenario r.setup
            (total "tm_lock_conflicts_total")
            (total "tm_object_blocked_total")
            (total "tm_object_no_response_total")
            (total "tm_validation_failures_total")
            r.stats.deadlock_victims r.stats.retries pp_opt avg pp_opt p99)
        (Experiment.run_matrix scenario cfg))
    [
      Experiment.bank_hotspot;
      Experiment.bank_sweep ~withdraw_pct:50;
      Experiment.inventory;
      Experiment.queue_semiqueue;
      Experiment.kv_store ();
    ];
  (* One full registry dump as a sample of the summary exporter. *)
  let r = Experiment.run Experiment.bank_hotspot (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic) cfg in
  Fmt.pr "@.full registry for bank-hotspot DU+NFC:@.%a@." Metrics.pp_summary r.Experiment.metrics

(* ------------------------------------------------------------------ *)
(* OBS-analytics: conflict heat maps, UIP vs DU.                       *)

let obs_analytics_setups =
  [
    Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic;
    Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic;
  ]

(* Heat maps for one scenario under both semantic setups, in one
   registry distinguished by the setup label — exactly what
   Heatmap.comparison pairs up. *)
let obs_heatmaps scenario =
  let merged = Metrics.create () in
  List.iter
    (fun s ->
      let r = Experiment.run scenario s cfg in
      assert r.Experiment.consistent;
      Metrics.merge
        ~extra_labels:[ ("scenario", r.Experiment.scenario); ("setup", r.Experiment.setup) ]
        merged r.Experiment.metrics)
    obs_analytics_setups;
  Tm_obs.Heatmap.of_metrics merged

let obs_analytics () =
  section
    "OBS-A — conflict heat maps, UIP(NRBC) vs DU(NFC): which operation \
     pairs actually collided (requested x held, from \
     tm_lock_conflicts_total)";
  List.iter
    (fun scenario ->
      let maps = obs_heatmaps scenario in
      Fmt.pr "%a@." (Tm_obs.Heatmap.pp_comparison ~by:"setup") maps)
    [ Experiment.bank_hotspot; Experiment.queue_semiqueue; Experiment.inventory ];
  Fmt.pr
    "(asymmetric hot cells are Section 6's tables made empirical: e.g. \
     withdraw@.held-withdraw conflicts only under DU/NFC, \
     withdraw-vs-deposit only under UIP/NRBC)@."

let () =
  Fmt.pr "Reproduction harness: Weihl, \"The Impact of Recovery on Concurrency Control\" (1989)@.";
  figure_6_1 ();
  figure_6_2 ();
  example_3_2 ();
  example_3_3 ();
  example_5_1 ();
  theorem_9 ();
  theorem_10 ();
  incomparability ();
  c1a ();
  c1b ();
  c1c ();
  c1d ();
  c1e ();
  abl_nrbc_refinements ();
  abl_escrow ();
  abl_occ_contention ();
  ext_views ();
  obs_breakdown ();
  obs_analytics ();
  Fmt.pr "@."
