(* Quickstart: a commutativity-locked bank account.

   Creates one atomic object (the paper's bank account) with
   update-in-place recovery and the minimal sound conflict relation
   (NRBC, Theorem 9), then walks three transactions through it:
   concurrent deposits that never block, a withdrawal that must wait for
   a deposit to commit, and an abort that undoes in place.

   Run with: dune exec examples/quickstart.exe *)

open Tm_core
module BA = Tm_adt.Bank_account
module Object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module Trace = Tm_obs.Trace

let deposit i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance = Op.invocation "balance"

let show tid what outcome =
  Fmt.pr "  %a %-14s -> %a@." Tid.pp tid what Object.pp_outcome outcome

let () =
  Fmt.pr "Quickstart: bank account, update-in-place recovery, NRBC locking@.@.";
  let account =
    Object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ()
  in
  let db = Database.create [ account ] in
  (* A trace recorder: its events rebuild the run's history. *)
  let trace = Trace.create () in
  Database.set_trace db trace;

  (* Two transactions deposit concurrently: deposits commute in every
     sense, so neither blocks. *)
  let t1 = Database.begin_txn db and t2 = Database.begin_txn db in
  Fmt.pr "concurrent deposits:@.";
  show t1 "deposit 50" (Database.invoke db t1 ~obj:"BA" (deposit 50));
  show t2 "deposit 25" (Database.invoke db t2 ~obj:"BA" (deposit 25));

  (* A third transaction tries to withdraw.  A successful withdrawal does
     not right-commute-backward with an uncommitted deposit, so it blocks
     until the deposits commit. *)
  let t3 = Database.begin_txn db in
  Fmt.pr "@.withdrawal against uncommitted deposits blocks:@.";
  show t3 "withdraw 30" (Database.invoke db t3 ~obj:"BA" (withdraw 30));
  Fmt.pr "@.committing the deposits releases the locks:@.";
  Database.commit db t1;
  Database.commit db t2;
  show t3 "withdraw 30" (Database.invoke db t3 ~obj:"BA" (withdraw 30));
  show t3 "balance" (Database.invoke db t3 ~obj:"BA" balance);
  Database.commit db t3;

  (* Abort rolls back in place. *)
  let t4 = Database.begin_txn db in
  Fmt.pr "@.abort undoes update-in-place:@.";
  show t4 "deposit 1000" (Database.invoke db t4 ~obj:"BA" (deposit 1000));
  Database.abort db t4;
  let t5 = Database.begin_txn db in
  show t5 "balance" (Database.invoke db t5 ~obj:"BA" balance);
  Database.commit db t5;

  (* The recorded history passes the paper's correctness criterion. *)
  let env = Atomicity.env_of_list [ BA.spec ] in
  let h = Trace.to_history trace in
  Fmt.pr "@.recorded history: %d events; dynamic atomic: %b@." (History.length h)
    (Atomicity.is_dynamic_atomic env h);
  Fmt.pr "committed ops replay legally in commit order: %b@."
    (Spec.legal BA.spec (Object.committed_ops account))
