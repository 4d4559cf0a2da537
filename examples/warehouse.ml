(* Warehouse: a small multi-object application on the threads runtime.

   Three ADTs cooperate in one transactional store:
   - stock pools per item (bounded counters — escrow-style updates),
   - customer accounts (the paper's bank account),
   - an order feed (semiqueue — commutative enqueues).

   Order transactions touch three objects atomically: reserve stock
   (a bounded-counter decr), charge the customer (a withdraw), publish
   the order.  The objects live on a three-shard in-memory engine
   (sink-less logs), so an order that spans shards commits through
   two-phase commit.  Eight OS threads place orders and restock
   concurrently through Tm_engine.Concurrent (blocking commutativity
   locks, deadlock victims retried, cross-shard cycles found too); at
   the end the books must balance exactly, every object must replay its
   committed operations legally, and some order must have crossed
   shards.

   Run with: dune exec examples/warehouse.exe *)

open Tm_core
module Object = Tm_engine.Atomic_object
module Concurrent = Tm_engine.Concurrent
module Sharded_database = Tm_engine.Sharded_database

let items = 3
let customers = 2
let item_name i = Fmt.str "ITEM%d" i
let acct_name c = Fmt.str "ACCT%d" c
let price = 2 (* per unit *)

module Stock = Tm_adt.Bounded_counter.Make (struct
  let capacity = 1_000_000
  let initial = 500
  let name = "ITEM"
end)

let objects () =
  List.init items (fun i ->
      Object.create
        ~spec:(Spec.rename Stock.spec (item_name i))
        ~conflict:Stock.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
  @ List.init customers (fun c ->
        Object.create
          ~spec:(Spec.rename (Tm_adt.Bank_account.spec_with_initial 10_000) (acct_name c))
          ~conflict:Tm_adt.Bank_account.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
  @ [
      Object.create ~spec:Tm_adt.Semiqueue.spec ~conflict:Tm_adt.Semiqueue.nfc_conflict
        ~recovery:Tm_engine.Recovery.DU ();
    ]

let () =
  Fmt.pr "Warehouse: 8 threads, 3 stock pools + 2 accounts + 1 order feed on 3 shards@.@.";
  let engine =
    Sharded_database.create ~wals:(Array.init 3 (fun _ -> Tm_engine.Wal.create ())) (objects ())
  in
  let db = Concurrent.create engine in
  let placed = Array.make items 0 and restocked = Array.make items 0 in
  let spent = Array.make customers 0 in
  let tally = Mutex.create () in
  let threads =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| 1000 + t |] in
            for _ = 1 to 25 do
              let item = Random.State.int rng items in
              if Random.State.int rng 100 < 25 then begin
                (* restock *)
                let qty = 5 + Random.State.int rng 5 in
                match
                  Concurrent.with_txn ~max_attempts:2000 db (fun h ->
                      ignore
                        (Concurrent.invoke h ~obj:(item_name item)
                           (Op.invocation ~args:[ Value.int qty ] "incr")))
                with
                | Ok () ->
                    Mutex.lock tally;
                    restocked.(item) <- restocked.(item) + qty;
                    Mutex.unlock tally
                | Error (`Gave_up _) -> ()
              end
              else begin
                (* order: reserve stock, charge customer, publish *)
                let qty = 1 + Random.State.int rng 3 in
                let customer = Random.State.int rng customers in
                match
                  Concurrent.with_txn ~max_attempts:2000 db (fun h ->
                      let reserved =
                        Concurrent.invoke h ~obj:(item_name item)
                          (Op.invocation ~args:[ Value.int qty ] "decr")
                      in
                      if not (Value.equal reserved Value.ok) then None
                      else
                        let charged =
                          Concurrent.invoke h ~obj:(acct_name customer)
                            (Op.invocation ~args:[ Value.int (qty * price) ] "withdraw")
                        in
                        if not (Value.equal charged Value.ok) then failwith "insufficient funds"
                        else begin
                          ignore
                            (Concurrent.invoke h ~obj:"SQ"
                               (Op.invocation ~args:[ Value.int item ] "enq"));
                          Some (qty, customer)
                        end)
                with
                | Ok (Some (qty, customer)) ->
                    Mutex.lock tally;
                    placed.(item) <- placed.(item) + qty;
                    spent.(customer) <- spent.(customer) + (qty * price);
                    Mutex.unlock tally
                | Ok None | Error (`Gave_up _) -> ()
              end
            done)
          ())
  in
  List.iter Thread.join threads;

  let cross =
    Tm_obs.Metrics.counter_value (Sharded_database.metrics engine) "tm_shard_cross_txn_total"
  in
  Fmt.pr "committed transactions: %d (aborted and retried: %d; cross-shard 2PC: %d)@.@."
    (Concurrent.committed_count db) (Concurrent.retry_count db) cross;
  let read_int obj inv =
    match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj inv) with
    | Ok (Value.Int n) -> n
    | _ -> failwith "read failed"
  in
  let ok = ref true in
  for i = 0 to items - 1 do
    let level = read_int (item_name i) (Op.invocation "read") in
    let expect = 500 + restocked.(i) - placed.(i) in
    Fmt.pr "%s: stock %5d (expected %5d) %s@." (item_name i) level expect
      (if level = expect then "\xe2\x9c\x93" else "\xe2\x9c\x97");
    if level <> expect then ok := false
  done;
  for c = 0 to customers - 1 do
    let bal = read_int (acct_name c) (Op.invocation "balance") in
    let expect = 10_000 - spent.(c) in
    Fmt.pr "%s: balance %4d (expected %4d) %s@." (acct_name c) bal expect
      (if bal = expect then "\xe2\x9c\x93" else "\xe2\x9c\x97");
    if bal <> expect then ok := false
  done;
  let replay_ok =
    List.for_all
      (fun o -> Spec.legal (Object.spec o) (Object.committed_ops o))
      (Sharded_database.objects engine)
  in
  Fmt.pr "@.books balance: %b; every object replays its committed ops legally: %b@." !ok
    replay_ok;
  if not (!ok && replay_ok && cross > 0) then exit 1
