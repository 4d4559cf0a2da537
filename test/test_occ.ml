(* Optimistic concurrency control (Section 3.4's alternative to locking):
   invocations never block, validation at commit aborts transactions whose
   operations conflict with operations committed since they started —
   using the same commutativity-based conflict relations. *)

open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw_inv i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance_inv = Op.invocation "balance"

let make_occ () =
  Atomic_object.create_optimistic ~spec:(BA.spec_with_initial 100) ~conflict:BA.nfc_conflict

let exec o tid inv =
  match Atomic_object.invoke o tid inv with
  | Atomic_object.Executed op -> op
  | out -> Alcotest.failf "expected execution, got %a" Atomic_object.pp_outcome out

let test_never_blocks () =
  let o = make_occ () and reg = Tm_obs.Metrics.create () in
  Atomic_object.attach_metrics o reg;
  (* Two concurrent successful withdrawals: locking DU+NFC would block
     the second; optimistic executes both. *)
  let op1 = exec o Tid.a (withdraw_inv 10) in
  let op2 = exec o Tid.b (withdraw_inv 10) in
  Alcotest.check Helpers.op "first" (BA.withdraw_ok 10) op1;
  Alcotest.check Helpers.op "second" (BA.withdraw_ok 10) op2;
  Helpers.check_int "no blocks counted" 0
    (Tm_obs.Metrics.counter_total reg "tm_object_blocked_total")

let test_validation_catches_conflict () =
  let o = make_occ () in
  ignore (exec o Tid.a (withdraw_inv 10));
  ignore (exec o Tid.b (withdraw_inv 10));
  (* A commits first and wins; B must fail validation. *)
  Helpers.check_bool "A validates" true (Atomic_object.validate o Tid.a = Ok ());
  Atomic_object.commit o Tid.a;
  (match Atomic_object.validate o Tid.b with
  | Error (mine, theirs) ->
      Alcotest.check Helpers.op "mine" (BA.withdraw_ok 10) mine;
      Alcotest.check Helpers.op "theirs" (BA.withdraw_ok 10) theirs
  | Ok () -> Alcotest.fail "expected validation failure");
  Atomic_object.abort o Tid.b;
  Helpers.check_bool "committed ops replay" true
    (Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))

let test_commuting_ops_validate () =
  let o = make_occ () in
  ignore (exec o Tid.a (deposit_inv 5));
  ignore (exec o Tid.b (withdraw_inv 10));
  Atomic_object.commit o Tid.a;
  (* deposit/withdraw-ok commute forward: B still validates. *)
  Helpers.check_bool "B validates" true (Atomic_object.validate o Tid.b = Ok ());
  Atomic_object.commit o Tid.b;
  Helpers.check_bool "replay" true
    (Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))

let test_start_point_matters () =
  let o = make_occ () in
  (* A withdraws and commits *before* B starts: no conflict for B. *)
  ignore (exec o Tid.a (withdraw_inv 10));
  Atomic_object.commit o Tid.a;
  ignore (exec o Tid.b (withdraw_inv 10));
  Helpers.check_bool "B validates" true (Atomic_object.validate o Tid.b = Ok ())

let test_occ_reads_are_snapshots () =
  let o = make_occ () in
  let bal_op = exec o Tid.a balance_inv in
  Alcotest.check Helpers.op "A reads 100" (BA.balance 100) bal_op;
  ignore (exec o Tid.b (deposit_inv 5));
  Atomic_object.commit o Tid.b;
  (* A's balance read conflicts with the interleaved committed deposit:
     validation must fail. *)
  Helpers.check_bool "A fails validation" true (Atomic_object.validate o Tid.a <> Ok ());
  Atomic_object.abort o Tid.a

let test_database_try_commit () =
  let o = make_occ () in
  let db = Helpers.traced (Database.create [ o ]) in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (withdraw_inv 10));
  ignore (Database.invoke db b ~obj:"BA" (withdraw_inv 10));
  Helpers.check_bool "A commits" true (Database.try_commit db a = Ok ());
  (match Database.try_commit db b with
  | Error (obj, _, _) -> Alcotest.(check string) "failing object" "BA" obj
  | Ok () -> Alcotest.fail "expected validation failure");
  Helpers.check_int "B aborted" 1 (Database.aborted_count db);
  (* the recorded history (with B aborted) is dynamic atomic *)
  let env = Atomicity.env_of_list [ BA.spec_with_initial 100 ] in
  Helpers.check_bool "dynamic atomic" true
    (Atomicity.is_dynamic_atomic env (Helpers.recorded_history db))

let test_random_occ_runs_consistent () =
  (* Seeded random OCC runs: committed ops always replay; recorded
     histories dynamic atomic. *)
  let spec = BA.spec_with_initial 20 in
  let env = Atomicity.env_of_list [ spec ] in
  for seed = 1 to 15 do
    let o = Atomic_object.create_optimistic ~spec ~conflict:BA.nfc_conflict in
    let db = Helpers.traced (Database.create [ o ]) in
    let rng = Random.State.make [| seed |] in
    let active = ref [] in
    for _ = 1 to 50 do
      if List.length !active < 4 then active := Database.begin_txn db :: !active;
      match !active with
      | [] -> ()
      | ts -> (
          let t = List.nth ts (Random.State.int rng (List.length ts)) in
          if Random.State.int rng 10 < 7 then begin
            let inv =
              match Random.State.int rng 3 with
              | 0 -> deposit_inv (1 + Random.State.int rng 2)
              | 1 -> withdraw_inv (1 + Random.State.int rng 2)
              | _ -> balance_inv
            in
            ignore (Database.invoke db t ~obj:"BA" inv)
          end
          else begin
            ignore (Database.try_commit db t);
            active := List.filter (fun x -> not (Tid.equal x t)) !active
          end)
    done;
    Helpers.check_bool "replay" true
      (Spec.legal spec (Atomic_object.committed_ops o));
    Helpers.check_bool "dynamic atomic" true
      (Atomicity.is_dynamic_atomic env (Helpers.recorded_history db))
  done

let test_occ_scheduler_consistent () =
  let cfg = Tm_sim.Experiment.config ~concurrency:6 ~total_txns:60 ~seed:13 () in
  List.iter
    (fun scenario ->
      let row =
        Tm_sim.Experiment.run scenario
          (Tm_sim.Experiment.setup ~occ:true Tm_engine.Recovery.DU
             Tm_sim.Experiment.Semantic)
          cfg
      in
      Helpers.check_bool (row.Tm_sim.Experiment.scenario ^ " consistent") true
        row.Tm_sim.Experiment.consistent;
      Helpers.check_int
        (row.Tm_sim.Experiment.scenario ^ " never blocks")
        0 row.Tm_sim.Experiment.stats.Tm_sim.Experiment.blocked)
    [
      Tm_sim.Experiment.bank_hotspot;
      Tm_sim.Experiment.kv_store ();
      Tm_sim.Experiment.queue_semiqueue;
    ]

let suite =
  [
    Alcotest.test_case "never blocks" `Quick test_never_blocks;
    Alcotest.test_case "validation catches conflict" `Quick test_validation_catches_conflict;
    Alcotest.test_case "commuting ops validate" `Quick test_commuting_ops_validate;
    Alcotest.test_case "start point matters" `Quick test_start_point_matters;
    Alcotest.test_case "reads are snapshots" `Quick test_occ_reads_are_snapshots;
    Alcotest.test_case "database try_commit" `Quick test_database_try_commit;
    Alcotest.test_case "random OCC runs consistent" `Slow test_random_occ_runs_consistent;
    Alcotest.test_case "OCC scheduler consistent" `Slow test_occ_scheduler_consistent;
  ]
