(* The ADT library: per-type serial-spec sanity and cross-validation of
   every closed-form commutativity relation against the generic bounded
   decision procedures, over the full generator alphabet. *)

open Tm_core

(* Exhaustive cross-validation over generator pairs (the alphabets are
   small, so this is exact over the sample rather than randomised).  Each
   relation explores its contexts once and answers every pair from them,
   so every type affords depth 8 for contexts and futures alike. *)
let validate_closed_forms name spec fc_closed rbc_closed =
  Alcotest.test_case (name ^ " closed forms = decided relations") `Slow (fun () ->
      let p = Commutativity.params ~alpha_depth:8 ~future_depth:8 () in
      let fc = Commutativity.fc spec p and rbc = Commutativity.rbc spec p in
      let ops = Spec.generators spec in
      List.iter
        (fun b ->
          List.iter
            (fun g ->
              let fd = fc b g and fc = fc_closed b g in
              if fd <> fc then
                Alcotest.failf "%s FC mismatch %a/%a: closed=%b decided=%b" name Op.pp b
                  Op.pp g fc fd;
              let rd = rbc b g and rc = rbc_closed b g in
              if rd <> rc then
                Alcotest.failf "%s RBC mismatch %a/%a: closed=%b decided=%b" name Op.pp b
                  Op.pp g rc rd)
            ops)
        ops)

(* The engine-facing conflict relations must be exactly the negations of
   the closed forms. *)
let validate_conflicts name (nfc : Conflict.t) (nrbc : Conflict.t) fc_closed rbc_closed ops =
  Alcotest.test_case (name ^ " conflicts = relation complements") `Quick (fun () ->
      List.iter
        (fun b ->
          List.iter
            (fun g ->
              Helpers.check_bool "nfc" (not (fc_closed b g))
                (Conflict.conflicts nfc ~requested:b ~held:g);
              Helpers.check_bool "nrbc" (not (rbc_closed b g))
                (Conflict.conflicts nrbc ~requested:b ~held:g))
            ops)
        ops)

(* NFC must be symmetric (Lemma 8); read/write baselines must contain the
   semantic relations (else the baseline comparison would be unsound). *)
let validate_rw_contains name (rw : Conflict.t) (semantic : Conflict.t) ops =
  Alcotest.test_case (name ^ " RW contains semantic relation") `Quick (fun () ->
      List.iter
        (fun b ->
          List.iter
            (fun g ->
              if Conflict.conflicts semantic ~requested:b ~held:g then
                Helpers.check_bool
                  (Fmt.str "%a/%a" Op.pp b Op.pp g)
                  true
                  (Conflict.conflicts rw ~requested:b ~held:g))
            ops)
        ops)

module BA = Tm_adt.Bank_account
module CTR = Tm_adt.Bounded_counter
module REG = Tm_adt.Register
module SET = Tm_adt.Int_set
module SQ = Tm_adt.Semiqueue
module KV = Tm_adt.Kv_store
module FQ = Tm_adt.Fifo_queue
module STK = Tm_adt.Stack
module LOG = Tm_adt.Append_log
module OM = Tm_adt.Ordered_map

let test_bank_account_spec () =
  Helpers.check_bool "overdraft refused" true
    (Spec.legal BA.spec [ BA.deposit 2; BA.withdraw_no 3 ]);
  Helpers.check_bool "overdraft cannot succeed" false
    (Spec.legal BA.spec [ BA.deposit 2; BA.withdraw_ok 3 ]);
  Helpers.check_bool "funded spec starts at balance" true
    (Spec.legal (BA.spec_with_initial 10) [ BA.withdraw_ok 10; BA.balance 0 ])

let test_counter_spec () =
  Helpers.check_bool "capacity enforced" true
    (Spec.legal CTR.spec [ CTR.incr_ok CTR.capacity; CTR.incr_no 1 ]);
  Helpers.check_bool "cannot exceed capacity" false
    (Spec.legal CTR.spec [ CTR.incr_ok (CTR.capacity + 1) ]);
  Helpers.check_bool "cannot underflow" false (Spec.legal CTR.spec [ CTR.decr_ok 1 ])

let test_counter_functor () =
  let module Big = Tm_adt.Bounded_counter.Make (struct
    let capacity = 10
    let initial = 5
    let name = "POOL"
  end) in
  Alcotest.(check string) "name" "POOL" (Spec.name Big.spec);
  Helpers.check_bool "initial funds decrementable" true
    (Spec.legal Big.spec [ Big.decr_ok 5; Big.decr_no 1 ]);
  Helpers.check_bool "capacity respected" false
    (Spec.legal Big.spec [ Big.incr_ok 6 ])

let test_register_spec () =
  Helpers.check_bool "read initial" true (Spec.legal REG.spec [ REG.read 0 ]);
  Helpers.check_bool "read after write" true
    (Spec.legal REG.spec [ REG.write 2; REG.read 2 ]);
  Helpers.check_bool "stale read illegal" false
    (Spec.legal REG.spec [ REG.write 2; REG.read 0 ])

let test_set_spec () =
  Helpers.check_bool "insert/member" true
    (Spec.legal SET.spec [ SET.insert 1; SET.member 1 true; SET.size 1 ]);
  Helpers.check_bool "insert idempotent for size" true
    (Spec.legal SET.spec [ SET.insert 1; SET.insert 1; SET.size 1 ]);
  Helpers.check_bool "remove" true
    (Spec.legal SET.spec [ SET.insert 1; SET.remove 1; SET.member 1 false ]);
  Helpers.check_bool "wrong member" false (Spec.legal SET.spec [ SET.member 1 true ])

let test_semiqueue_spec () =
  Helpers.check_bool "deq any element" true
    (Spec.legal SQ.spec [ SQ.enq 1; SQ.enq 2; SQ.deq 2; SQ.deq 1 ]);
  Helpers.check_bool "deq absent element" false (Spec.legal SQ.spec [ SQ.enq 1; SQ.deq 2 ]);
  Helpers.check_bool "multiset multiplicity" true
    (Spec.legal SQ.spec [ SQ.enq 1; SQ.enq 1; SQ.deq 1; SQ.deq 1 ]);
  Helpers.check_bool "multiplicity exhausted" false
    (Spec.legal SQ.spec [ SQ.enq 1; SQ.deq 1; SQ.deq 1 ])

let test_kv_spec () =
  Helpers.check_bool "get none initially" true (Spec.legal KV.spec [ KV.get "j" None ]);
  Helpers.check_bool "put/get" true
    (Spec.legal KV.spec [ KV.put "j" 1; KV.get "j" (Some 1); KV.del "j"; KV.get "j" None ]);
  Helpers.check_bool "keys independent" true
    (Spec.legal KV.spec [ KV.put "j" 1; KV.get "k" None ])

let test_fifo_spec () =
  Helpers.check_bool "FIFO order" true
    (Spec.legal FQ.spec [ FQ.enq 1; FQ.enq 2; FQ.deq 1; FQ.deq 2 ]);
  Helpers.check_bool "LIFO order illegal" false
    (Spec.legal FQ.spec [ FQ.enq 1; FQ.enq 2; FQ.deq 2 ])

let test_stack_spec () =
  Helpers.check_bool "LIFO order" true
    (Spec.legal STK.spec [ STK.push 1; STK.push 2; STK.pop 2; STK.pop 1 ]);
  Helpers.check_bool "FIFO order illegal" false
    (Spec.legal STK.spec [ STK.push 1; STK.push 2; STK.pop 1 ])

let test_log_spec () =
  Helpers.check_bool "append/last/len" true
    (Spec.legal LOG.spec [ LOG.append 1; LOG.append 2; LOG.last 2; LOG.len 2 ]);
  Helpers.check_bool "last on empty illegal" false (Spec.legal LOG.spec [ LOG.last 1 ]);
  Helpers.check_bool "wrong last" false (Spec.legal LOG.spec [ LOG.append 1; LOG.last 2 ])

let test_ordered_map_spec () =
  Helpers.check_bool "put/get/count" true
    (Spec.legal OM.spec [ OM.put 1 1; OM.put 2 2; OM.count 1 2 2; OM.get 1 (Some 1) ]);
  Helpers.check_bool "del shrinks count" true
    (Spec.legal OM.spec [ OM.put 1 1; OM.del 1; OM.count 1 2 0 ]);
  Helpers.check_bool "wrong count" false (Spec.legal OM.spec [ OM.put 1 1; OM.count 1 2 0 ])

let test_ordered_map_range_conflicts () =
  (* key-range behaviour: an update conflicts with a count exactly when
     its key can change the answer *)
  Helpers.check_bool "inside conflicts" true
    (Conflict.conflicts OM.nfc_conflict ~requested:(OM.put 1 1) ~held:(OM.count 1 2 1));
  Helpers.check_bool "outside commutes" false
    (Conflict.conflicts OM.nfc_conflict ~requested:(OM.put 3 1) ~held:(OM.count 1 2 1));
  (* a full count pins every key in range as present: overwrites commute *)
  Helpers.check_bool "full range commutes with put" false
    (Conflict.conflicts OM.nfc_conflict ~requested:(OM.put 1 1) ~held:(OM.count 1 2 2));
  Helpers.check_bool "empty range commutes with del" false
    (Conflict.conflicts OM.nfc_conflict ~requested:(OM.del 1) ~held:(OM.count 1 2 0))

let test_fifo_derived_relations_sane () =
  (* enqueues of distinct values must conflict (order observable); a
     dequeue commutes forward with an enqueue. *)
  Helpers.check_bool "enq(1)/enq(2) conflict" true
    (Conflict.conflicts FQ.nfc_conflict ~requested:(FQ.enq 1) ~held:(FQ.enq 2));
  Helpers.check_bool "same-value enq commute" false
    (Conflict.conflicts FQ.nfc_conflict ~requested:(FQ.enq 1) ~held:(FQ.enq 1));
  Helpers.check_bool "deq/enq commute forward" false
    (Conflict.conflicts FQ.nfc_conflict ~requested:(FQ.deq 1) ~held:(FQ.enq 2));
  Helpers.check_bool "same-value deq conflict" true
    (Conflict.conflicts FQ.nfc_conflict ~requested:(FQ.deq 1) ~held:(FQ.deq 1))

(* Semiqueue beats FIFO: its semantic conflict relation is a strict
   subset over the shared alphabet shape (weaker specs buy concurrency —
   the paper's type-specific motivation). *)
let test_semiqueue_weaker_than_fifo () =
  let pairs_conflicting (c : Conflict.t) ops =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Conflict.conflicts c ~requested:a ~held:b then Some (a.Op.inv, b.Op.inv)
            else None)
          ops)
      ops
  in
  let sq = pairs_conflicting SQ.nfc_conflict (Spec.generators SQ.spec) in
  let fq = pairs_conflicting FQ.nfc_conflict (Spec.generators FQ.spec) in
  Helpers.check_bool "semiqueue has fewer conflicts" true (List.length sq < List.length fq)

(* The int-coded closed forms against the boxed-class ones they
   replaced, on operations far outside the generator alphabet (amounts
   and balances up to 10^6, half of them small enough to meet each
   other): the exhaustive checks above stop at balance 3. *)
let prop_bank_closed_forms_match_reference =
  let op =
    QCheck2.Gen.(
      let n = frequency [ (1, int_range 0 4); (1, int_range 0 1_000_000) ] in
      oneof
        [
          map BA.deposit n; map BA.withdraw_ok n; map BA.withdraw_no n; map BA.balance n;
        ])
  in
  Helpers.qcheck ~count:2000 "BA closed forms = klass reference"
    QCheck2.Gen.(pair op op)
    (fun (p, q) ->
      (BA.forward_commutes p q = Bank_conflict_reference.forward_commutes p q
      && BA.right_commutes_backward p q = Bank_conflict_reference.right_commutes_backward p q)
      || QCheck2.Test.fail_reportf "%a / %a" Op.pp p Op.pp q)

(* The counter's int-coded closed forms against the boxed-class ones
   they replaced: exhaustively on the generator pairs of the default
   counter, and on random operation pairs of counters with random
   capacities (amounts and values up to 10^6, half of them small enough
   to meet each other and the capacity). *)
let counter_agrees ~capacity fc rbc p q =
  fc p q = Counter_conflict_reference.forward_commutes ~capacity p q
  && rbc p q = Counter_conflict_reference.right_commutes_backward ~capacity p q

let test_counter_closed_forms_on_generators () =
  let ops = Spec.generators CTR.spec in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if
            not
              (counter_agrees ~capacity:CTR.capacity CTR.forward_commutes
                 CTR.right_commutes_backward p q)
          then Alcotest.failf "%a / %a: the closed forms differ from the reference" Op.pp p Op.pp q)
        ops)
    ops

let prop_counter_closed_forms_match_reference =
  let gen =
    QCheck2.Gen.(
      let n = frequency [ (1, int_range 0 8); (1, int_range 0 1_000_000) ] in
      let op =
        oneof
          [
            map (fun i -> `Incr_ok i) n; map (fun i -> `Incr_no i) n; map (fun i -> `Decr_ok i) n;
            map (fun i -> `Decr_no i) n; map (fun i -> `Read i) n;
          ]
      in
      triple (frequency [ (1, int_range 0 8); (1, int_range 0 1_000_000) ]) op op)
  in
  Helpers.qcheck ~count:2000 "CTR closed forms = klass reference" gen (fun (capacity, p, q) ->
      let module C = Tm_adt.Bounded_counter.Make (struct
        let capacity = capacity
        let initial = 0
        let name = "CTR"
      end) in
      let op = function
        | `Incr_ok i -> C.incr_ok i
        | `Incr_no i -> C.incr_no i
        | `Decr_ok i -> C.decr_ok i
        | `Decr_no i -> C.decr_no i
        | `Read n -> C.read n
      in
      let p = op p and q = op q in
      counter_agrees ~capacity C.forward_commutes C.right_commutes_backward p q
      || QCheck2.Test.fail_reportf "capacity %d: %a / %a" capacity Op.pp p Op.pp q)

let suite =
  [
    Alcotest.test_case "bank account spec" `Quick test_bank_account_spec;
    Alcotest.test_case "counter spec" `Quick test_counter_spec;
    Alcotest.test_case "counter functor" `Quick test_counter_functor;
    Alcotest.test_case "register spec" `Quick test_register_spec;
    Alcotest.test_case "set spec" `Quick test_set_spec;
    Alcotest.test_case "semiqueue spec" `Quick test_semiqueue_spec;
    Alcotest.test_case "kv spec" `Quick test_kv_spec;
    Alcotest.test_case "fifo spec" `Quick test_fifo_spec;
    Alcotest.test_case "stack spec" `Quick test_stack_spec;
    Alcotest.test_case "log spec" `Quick test_log_spec;
    validate_closed_forms "BA" BA.spec BA.forward_commutes BA.right_commutes_backward;
    validate_closed_forms "CTR" CTR.spec CTR.forward_commutes CTR.right_commutes_backward;
    validate_closed_forms "REG" REG.spec REG.forward_commutes REG.right_commutes_backward;
    validate_closed_forms "SET" SET.spec SET.forward_commutes SET.right_commutes_backward;
    validate_closed_forms "SQ" SQ.spec SQ.forward_commutes SQ.right_commutes_backward;
    validate_closed_forms "KV" KV.spec KV.forward_commutes KV.right_commutes_backward;
    validate_closed_forms "OM" OM.spec OM.forward_commutes OM.right_commutes_backward;
    validate_closed_forms "LOG" LOG.spec LOG.forward_commutes LOG.right_commutes_backward;
    validate_closed_forms "FQ" FQ.spec FQ.forward_commutes FQ.right_commutes_backward;
    validate_closed_forms "STK" STK.spec STK.forward_commutes STK.right_commutes_backward;
    validate_conflicts "BA" BA.nfc_conflict BA.nrbc_conflict BA.forward_commutes
      BA.right_commutes_backward (Spec.generators BA.spec);
    validate_conflicts "SQ" SQ.nfc_conflict SQ.nrbc_conflict SQ.forward_commutes
      SQ.right_commutes_backward (Spec.generators SQ.spec);
    validate_rw_contains "BA/NFC" BA.rw_conflict BA.nfc_conflict (Spec.generators BA.spec);
    validate_rw_contains "BA/NRBC" BA.rw_conflict BA.nrbc_conflict (Spec.generators BA.spec);
    validate_rw_contains "CTR/NFC" CTR.rw_conflict CTR.nfc_conflict (Spec.generators CTR.spec);
    validate_rw_contains "CTR/NRBC" CTR.rw_conflict CTR.nrbc_conflict
      (Spec.generators CTR.spec);
    validate_rw_contains "SET/NFC" SET.rw_conflict SET.nfc_conflict (Spec.generators SET.spec);
    validate_rw_contains "REG/NFC" REG.rw_conflict REG.nfc_conflict (Spec.generators REG.spec);
    Alcotest.test_case "ordered map spec" `Quick test_ordered_map_spec;
    Alcotest.test_case "ordered map range conflicts" `Quick test_ordered_map_range_conflicts;
    validate_rw_contains "OM/NFC" OM.rw_conflict OM.nfc_conflict (Spec.generators OM.spec);
    Alcotest.test_case "fifo derived relations" `Quick test_fifo_derived_relations_sane;
    Alcotest.test_case "semiqueue weaker than fifo" `Quick test_semiqueue_weaker_than_fifo;
    prop_bank_closed_forms_match_reference;
    Alcotest.test_case "CTR closed forms = klass reference (generators)" `Quick
      test_counter_closed_forms_on_generators;
    prop_counter_closed_forms_match_reference;
  ]
