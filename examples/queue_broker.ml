(* Queue broker: the price of FIFO.

   The same producer/consumer workload runs against two message-queue
   specifications: a strict FIFO queue and a semiqueue (dequeue returns
   *some* element — the classic weakened specification).  Weakening the
   spec makes enqueues commute with everything and dequeues conflict only
   on the same item, so commutativity-based locking extracts far more
   concurrency — the paper's "type-specific concurrency control" in one
   table.  The semiqueue's dequeue is also non-deterministic, exercising
   the framework's support for non-deterministic operations.

   Run with: dune exec examples/queue_broker.exe *)

open Tm_core
module Experiment = Tm_sim.Experiment
module Object = Tm_engine.Atomic_object
module Database = Tm_engine.Database

let () =
  Fmt.pr "Broker demo: FIFO queue vs semiqueue@.@.";

  (* Micro view: two consumers on a FIFO must serialise (both want the
     front); on a semiqueue they take different items concurrently. *)
  let module SQ = Tm_adt.Semiqueue in
  let sq =
    Object.create ~spec:SQ.spec ~conflict:SQ.nfc_conflict ~recovery:Tm_engine.Recovery.DU ()
  in
  let db = Database.create [ sq ] in
  let producer = Database.begin_txn db in
  ignore (Database.invoke db producer ~obj:"SQ" (Op.invocation ~args:[ Value.int 1 ] "enq"));
  ignore (Database.invoke db producer ~obj:"SQ" (Op.invocation ~args:[ Value.int 2 ] "enq"));
  Database.commit db producer;
  let c1 = Database.begin_txn db and c2 = Database.begin_txn db in
  let show t out = Fmt.pr "  consumer %a deq -> %a@." Tid.pp t Object.pp_outcome out in
  Fmt.pr "semiqueue: two concurrent consumers take different items:@.";
  show c1 (Database.invoke db c1 ~obj:"SQ" (Op.invocation "deq"));
  show c2 (Database.invoke db c2 ~obj:"SQ" (Op.invocation "deq"));
  Database.commit db c1;
  Database.commit db c2;

  (* Macro view: the broker workload end to end. *)
  Fmt.pr "@.broker workload, rounds to commit 200 transactions (lower is better):@.@.";
  Fmt.pr "%-12s %10s %10s %10s@." "queue" "UIP+NRBC" "DU+NFC" "serial";
  let cfg = Experiment.config ~concurrency:8 ~total_txns:200 ~seed:7 () in
  List.iter
    (fun (label, scenario) ->
      let rounds setup =
        let row = Experiment.run scenario setup cfg in
        row.Experiment.stats.rounds
      in
      Fmt.pr "%-12s %10d %10d %10d@." label
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Total)))
    [ ("fifo", Experiment.queue_fifo); ("semiqueue", Experiment.queue_semiqueue) ];
  Fmt.pr "@.The weaker specification commutes more, blocks less, and scales.@."
