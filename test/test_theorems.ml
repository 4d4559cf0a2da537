(* Theorems 9 and 10 (Section 7): the constructive only-if directions.
   Every counterexample produced must be (a) a well-formed history,
   (b) valid in the corresponding implementation model with the deficient
   conflict relation, and (c) not dynamic atomic — exactly the proofs'
   obligations. *)

open Tm_core

let env = Helpers.ba_env
let spec = Helpers.BA.spec
let p = Commutativity.params ~alpha_depth:5 ~future_depth:5 ()

let wok = Helpers.wok
let wno = Helpers.wno
let dep = Helpers.dep

let assert_is_counterexample ~view ~conflict (cex : Theorems.cex) =
  let i = Impl_model.make ~spec ~view ~conflict in
  Helpers.check_bool "well-formed" true (History.is_well_formed cex.history);
  Helpers.check_bool "valid in I(X,Spec,View,Conflict)" true (Impl_model.valid i cex.history);
  Helpers.check_bool "not dynamic atomic" false (Atomicity.is_dynamic_atomic env cex.history);
  (* the named failing order really is a counterexample consistent with
     precedes *)
  Helpers.check_bool "failing order consistent with precedes" true
    (Orders.consistent cex.failing_order (History.precedes cex.history));
  Helpers.check_bool "fails in the named order" false
    (Atomicity.serializable_in env (History.permanent cex.history) cex.failing_order)

let test_theorem9_pairwise () =
  (* Every NRBC pair outside the given conflict relation yields a valid
     counterexample; here: the empty relation, every generator pair. *)
  let ops = Spec.generators spec in
  let nrbc = Commutativity.nrbc spec p and uip_counterexample = Theorems.uip_counterexample spec p in
  let count = ref 0 in
  List.iter
    (fun requested ->
      List.iter
        (fun held ->
          if nrbc requested held then begin
            match uip_counterexample ~requested ~held with
            | None -> Alcotest.failf "no cex for %a/%a" Op.pp requested Op.pp held
            | Some cex ->
                incr count;
                assert_is_counterexample ~view:View.uip ~conflict:Conflict.none cex
          end)
        ops)
    ops;
  Helpers.check_bool "found several pairs" true (!count > 10)

let test_theorem10_pairwise () =
  let ops = Spec.generators spec in
  let nfc = Commutativity.nfc spec p and du_counterexample = Theorems.du_counterexample spec p in
  let count = ref 0 in
  List.iter
    (fun requested ->
      List.iter
        (fun held ->
          if nfc requested held then begin
            match du_counterexample ~requested ~held with
            | None -> Alcotest.failf "no cex for %a/%a" Op.pp requested Op.pp held
            | Some cex ->
                incr count;
                assert_is_counterexample ~view:View.du ~conflict:Conflict.none cex
          end)
        ops)
    ops;
  Helpers.check_bool "found several pairs" true (!count > 10)

let test_commuting_pairs_yield_no_cex () =
  Alcotest.(check (option reject)) "RBC pair: no UIP cex" None
    (Theorems.uip_counterexample spec p ~requested:(wok 1) ~held:(wok 2));
  Alcotest.(check (option reject)) "FC pair: no DU cex" None
    (Theorems.du_counterexample spec p ~requested:(wok 1) ~held:(dep 1))

let test_incomparability_end_to_end () =
  (* UIP with the NFC relation is refutable (NRBC ⊄ NFC)... *)
  (match Theorems.uip_refute spec p Helpers.BA.nfc_conflict with
  | None -> Alcotest.fail "expected UIP+NFC refutation"
  | Some cex -> assert_is_counterexample ~view:View.uip ~conflict:Helpers.BA.nfc_conflict cex);
  (* ...and DU with the NRBC relation is refutable (NFC ⊄ NRBC). *)
  match Theorems.du_refute spec p Helpers.BA.nrbc_conflict with
  | None -> Alcotest.fail "expected DU+NRBC refutation"
  | Some cex -> assert_is_counterexample ~view:View.du ~conflict:Helpers.BA.nrbc_conflict cex

let test_sound_configs_unrefutable () =
  Alcotest.(check (option reject)) "UIP+NRBC sound" None
    (Theorems.uip_refute spec p Helpers.BA.nrbc_conflict);
  Alcotest.(check (option reject)) "DU+NFC sound" None
    (Theorems.du_refute spec p Helpers.BA.nfc_conflict);
  Alcotest.(check (option reject)) "UIP+total sound" None
    (Theorems.uip_refute spec p Conflict.all);
  Alcotest.(check (option reject)) "DU+total sound" None
    (Theorems.du_refute spec p Conflict.all)

let test_dropping_one_needed_conflict_refutes () =
  (* Take the sound NRBC relation and drop the single (wno, wok) pair:
     exactly that pair must be found. *)
  let weakened = Conflict.without Helpers.BA.nrbc_conflict [ (wno 1, wok 1) ] in
  match Theorems.uip_refute spec p weakened with
  | None -> Alcotest.fail "expected refutation"
  | Some cex ->
      Alcotest.check Helpers.op "requested" (wno 1) cex.requested;
      Alcotest.check Helpers.op "held" (wok 1) cex.held;
      assert_is_counterexample ~view:View.uip ~conflict:weakened cex

let test_find_missing_pair () =
  (match
     Theorems.find_missing_pair spec ~required:Helpers.BA.nrbc_conflict
       ~given:Helpers.BA.nrbc_conflict
   with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing missing from itself");
  match
    Theorems.find_missing_pair spec ~required:Helpers.BA.nrbc_conflict ~given:Conflict.none
  with
  | None -> Alcotest.fail "expected missing pair"
  | Some (r, h) ->
      Helpers.check_bool "pair in NRBC" true
        (Conflict.conflicts Helpers.BA.nrbc_conflict ~requested:r ~held:h)

let test_rw_baseline_sound_for_both () =
  (* Classical read/write locking contains both NFC and NRBC on the bank
     account: unrefutable with either recovery method. *)
  Alcotest.(check (option reject)) "UIP+RW" None
    (Theorems.uip_refute spec p Helpers.BA.rw_conflict);
  Alcotest.(check (option reject)) "DU+RW" None
    (Theorems.du_refute spec p Helpers.BA.rw_conflict)

let test_counter_theorems () =
  (* Same end-to-end story on the bounded counter. *)
  let module C = Tm_adt.Bounded_counter in
  let cp = Commutativity.params ~alpha_depth:6 ~future_depth:5 () in
  let cenv = Atomicity.env_of_list [ C.spec ] in
  (match Theorems.uip_refute C.spec cp C.nfc_conflict with
  | None -> Alcotest.fail "expected counter UIP+NFC refutation"
  | Some cex ->
      Helpers.check_bool "well-formed" true (History.is_well_formed cex.history);
      Helpers.check_bool "not dynamic atomic" false
        (Atomicity.is_dynamic_atomic cenv cex.history));
  match Theorems.du_refute C.spec cp C.nrbc_conflict with
  | None -> Alcotest.fail "expected counter DU+NRBC refutation"
  | Some cex ->
      Helpers.check_bool "not dynamic atomic" false
        (Atomicity.is_dynamic_atomic cenv cex.history)

let test_probe_rediscovers_theorems () =
  (* The empirical probe (structured candidates + bounded enumeration),
     told nothing about commutativity, must rediscover NRBC for UIP and
     NFC for DU on a small operation sample. *)
  let sample = [ dep 1; wok 1; wno 1; Helpers.bal 0; Helpers.bal 1 ] in
  let check name view reference =
    let required =
      Theorems.probe_required_pairs spec view ~ops:sample ~txns:2 ~ops_per_txn:2
        ~max_events:8 ~limit:3000
    in
    List.iter
      (fun p ->
        List.iter
          (fun q ->
            let probed = List.exists (fun (a, b) -> Op.equal a p && Op.equal b q) required in
            let expected = Conflict.conflicts reference ~requested:p ~held:q in
            if probed <> expected then
              Alcotest.failf "%s: %a/%a probed=%b theorem=%b" name Op.pp p Op.pp q probed
                expected)
          sample)
      sample
  in
  check "UIP" View.uip Helpers.BA.nrbc_conflict;
  check "DU" View.du Helpers.BA.nfc_conflict

let suite =
  [
    Alcotest.test_case "Theorem 9 only-if, all NRBC pairs" `Slow test_theorem9_pairwise;
    Alcotest.test_case "Theorem 10 only-if, all NFC pairs" `Slow test_theorem10_pairwise;
    Alcotest.test_case "commuting pairs yield no cex" `Quick test_commuting_pairs_yield_no_cex;
    Alcotest.test_case "incomparability end-to-end" `Quick test_incomparability_end_to_end;
    Alcotest.test_case "sound configs unrefutable" `Quick test_sound_configs_unrefutable;
    Alcotest.test_case "dropping one conflict refutes" `Quick
      test_dropping_one_needed_conflict_refutes;
    Alcotest.test_case "find_missing_pair" `Quick test_find_missing_pair;
    Alcotest.test_case "read/write baseline sound" `Quick test_rw_baseline_sound_for_both;
    Alcotest.test_case "counter theorems" `Quick test_counter_theorems;
    Alcotest.test_case "probe rediscovers theorems" `Slow test_probe_rediscovers_theorems;
  ]
