(* Durable bank: crash recovery with a write-ahead log.

   The paper confines itself to abort recovery and observes that crash
   recovery mechanisms mirror it; this example exercises the engine's
   WAL-based implementation of that future work, on a one-shard
   [Sharded_database] (one log per shard).  A bank account takes
   deposits and withdrawals; the machine "crashes" with a transaction in
   flight; recovery replays the log — committed work survives, the
   in-flight transaction is a loser, and the recovered object keeps
   serving.

   Run with: dune exec examples/durable_bank.exe *)

open Tm_core
module BA = Tm_adt.Bank_account
module Wal = Tm_engine.Wal
module Db = Tm_engine.Sharded_database
module Object = Tm_engine.Atomic_object

let deposit i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance = Op.invocation "balance"

(* The bank is one account; recovery rebuilds it empty and replays the
   log into it. *)
let accounts () =
  [ Object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP () ]

let committed_ops db = List.concat_map Object.committed_ops (Db.objects db)

(* Run [inv] as a transaction of its own, committing it unless [commit]
   is false. *)
let run ?(commit = true) db what inv =
  let tid = Db.begin_txn db in
  Fmt.pr "  %a %-12s -> %a@." Tid.pp tid what Object.pp_outcome
    (Db.invoke db tid ~obj:"BA" inv);
  if commit && Db.try_commit db tid <> Ok () then Fmt.failwith "commit failed"

let () =
  Fmt.pr "Durable bank account (write-ahead logging)@.@.";
  let wal = Wal.create () in
  let bank = Db.create ~wals:[| wal |] (accounts ()) in

  Fmt.pr "running transactions:@.";
  run bank "deposit 100" (deposit 100);
  run bank "deposit 40" (deposit 40);
  assert (Db.checkpoint bank);
  run bank "withdraw 30" (withdraw 30);
  (* D is still running when the machine dies *)
  run ~commit:false bank "deposit 999" (deposit 999);

  Fmt.pr "@.log (%d records):@." (Wal.length wal);
  List.iter (fun r -> Fmt.pr "  %a@." Wal.pp_record r) (Wal.records wal);

  Fmt.pr "@.*** CRASH *** (volatile state lost; the log survives)@.@.";
  let recovered, losers =
    match Db.recover ~wals:[| wal |] ~rebuild:accounts () with
    | Ok x -> x
    | Error e -> Fmt.failwith "recovery failed: %a" Tm_engine.Recovery.pp_error e
  in
  Fmt.pr "losers (no commit record): %a@."
    Fmt.(list ~sep:comma Tid.pp)
    (Tid.Set.elements losers);
  Fmt.pr "recovered committed work: %a@."
    Fmt.(list ~sep:(any "; ") Op.pp_short)
    (committed_ops recovered);
  run recovered "balance" balance;
  Fmt.pr "@.committed work replays legally: %b@."
    (Spec.legal BA.spec (committed_ops recovered))
