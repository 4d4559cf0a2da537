(* Inventory escrow: a bounded counter as a reservation pool.

   Models warehouse stock with the bounded-counter ADT: reservations
   decrement, restocks increment, both partial (a reservation fails on
   empty stock, a restock on a full warehouse).  Demonstrates:

   - escrow-style concurrency: many reservations proceed concurrently
     under update-in-place locking without reading the stock level;
   - deferred-update's complementary strength on mixed flows;
   - abort returning reserved stock to the pool.

   Run with: dune exec examples/inventory_escrow.exe *)

open Tm_core
module Object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module Trace = Tm_obs.Trace

module Pool = Tm_adt.Bounded_counter.Make (struct
  let capacity = 100
  let initial = 10
  let name = "STOCK"
end)

let reserve n = Op.invocation ~args:[ Value.int n ] "decr"
let restock n = Op.invocation ~args:[ Value.int n ] "incr"
let level = Op.invocation "read"

let show tid what outcome =
  Fmt.pr "  %a %-12s -> %a@." Tid.pp tid what Object.pp_outcome outcome

let () =
  Fmt.pr "Inventory escrow on a bounded counter (capacity 100, stock 10)@.@.";
  let stock =
    Object.create ~spec:Pool.spec ~conflict:Pool.nrbc_conflict
      ~recovery:Tm_engine.Recovery.UIP ()
  in
  let db = Database.create [ stock ] in
  let trace = Trace.create () in
  Database.set_trace db trace;

  (* Three customers reserve concurrently: successful reservations
     right-commute-backward with each other, so none blocks — no one had
     to read the stock level (this is exactly the escrow idea). *)
  Fmt.pr "concurrent reservations (no blocking, no reads):@.";
  let customers = List.init 3 (fun _ -> Database.begin_txn db) in
  List.iteri
    (fun i t -> show t (Fmt.str "reserve %d" (i + 2)) (Database.invoke db t ~obj:"STOCK" (reserve (i + 2))))
    customers;

  (* One customer changes their mind: the abort returns the stock. *)
  (match customers with
  | t :: _ ->
      Fmt.pr "@.customer %a aborts; stock is returned:@." Tid.pp t;
      Database.abort db t
  | [] -> ());
  List.iter (fun t -> Database.commit db t) (List.tl customers);

  let auditor = Database.begin_txn db in
  show auditor "read level" (Database.invoke db auditor ~obj:"STOCK" level);
  Database.commit db auditor;

  (* A restock against an uncommitted reservation: under UIP the incr
     does not push back over the decr (it could have overflowed the
     capacity bound), so it waits; under DU the two commute forward and
     run concurrently. *)
  Fmt.pr "@.mixed flows: restock vs uncommitted reservation@.";
  let t_res = Database.begin_txn db in
  show t_res "reserve 3" (Database.invoke db t_res ~obj:"STOCK" (reserve 3));
  let t_sup = Database.begin_txn db in
  Fmt.pr "  under UIP+NRBC the restock blocks:@.";
  show t_sup "restock 5" (Database.invoke db t_sup ~obj:"STOCK" (restock 5));
  Database.commit db t_res;
  show t_sup "restock 5" (Database.invoke db t_sup ~obj:"STOCK" (restock 5));
  Database.commit db t_sup;

  let du_stock =
    Object.create ~spec:Pool.spec ~conflict:Pool.nfc_conflict ~recovery:Tm_engine.Recovery.DU ()
  in
  let db2 = Database.create [ du_stock ] in
  let t1 = Database.begin_txn db2 and t2 = Database.begin_txn db2 in
  Fmt.pr "  under DU+NFC the same pair runs concurrently:@.";
  show t1 "reserve 3" (Database.invoke db2 t1 ~obj:"STOCK" (reserve 3));
  show t2 "restock 5" (Database.invoke db2 t2 ~obj:"STOCK" (restock 5));
  Database.commit db2 t2;
  Database.commit db2 t1;

  let env = Atomicity.env_of_list [ Pool.spec ] in
  Fmt.pr "@.recorded UIP history dynamic atomic: %b@."
    (Atomicity.is_dynamic_atomic env (Trace.to_history trace));
  Fmt.pr "both stores replay committed work legally: %b / %b@."
    (Spec.legal Pool.spec (Object.committed_ops stock))
    (Spec.legal Pool.spec (Object.committed_ops du_stock))
