(* Banking hot-spot: the concurrency trade-off of Section 8, live.

   One hot account, hundreds of transactions.  The same engine runs with
   update-in-place + NRBC locking and with deferred-update + NFC locking;
   sweeping the withdrawal fraction shows each recovery method winning
   where the paper's theory says it must:

   - all deposits: both perfect (deposits commute in every sense);
   - mixed deposits/withdrawals: DU wins (the pairs commute forward, but
     a withdrawal cannot be pushed back over a deposit);
   - all withdrawals: UIP wins (successful withdrawals right-commute
     backward but do not commute forward).

   Run with: dune exec examples/banking_hotspot.exe *)

module Experiment = Tm_sim.Experiment

let () =
  Fmt.pr "Hot-spot account: rounds to commit 200 transactions (lower is better)@.@.";
  Fmt.pr "%-12s %10s %10s %10s@." "withdraw%" "UIP+NRBC" "DU+NFC" "serial";
  let cfg = Experiment.config ~concurrency:8 ~total_txns:200 ~seed:7 () in
  List.iter
    (fun w ->
      let scenario = Experiment.bank_sweep ~withdraw_pct:w in
      let rounds setup =
        let row = Experiment.run scenario setup cfg in
        assert row.Experiment.consistent;
        row.Experiment.stats.rounds
      in
      let uip =
        rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      and du =
        rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic)
      and serial =
        rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Total)
      in
      Fmt.pr "%-12d %10d %10d %10d@." w uip du serial)
    [ 0; 25; 50; 75; 100 ];
  Fmt.pr
    "@.Each recovery method admits concurrency the other must forbid \
     (Theorems 9 and 10): the constraint sets are incomparable.@."
