(* The abstract implementation model I(X, Spec, View, Conflict)
   (Section 4): response preconditions, validity, and the generators —
   including bounded model checking of the "if" directions of
   Theorems 9 and 10 (every generated history is online dynamic atomic
   when the conflict relation contains the required one). *)

open Tm_core

let dep = Helpers.dep
let wok = Helpers.wok
let env = Helpers.ba_env
let spec = Helpers.BA.spec
let uip_nrbc = Impl_model.make ~spec ~view:View.uip ~conflict:Helpers.BA.nrbc_conflict
let du_nfc = Impl_model.make ~spec ~view:View.du ~conflict:Helpers.BA.nfc_conflict

let test_response_preconditions () =
  let h = History.empty |> History.invoke Tid.a ~obj:"BA" (Op.invocation "balance") in
  Helpers.check_bool "balance 0 enabled" true
    (Impl_model.response_enabled uip_nrbc h Tid.a (Value.int 0));
  Helpers.check_bool "balance 5 not legal" false
    (Impl_model.response_enabled uip_nrbc h Tid.a (Value.int 5));
  Helpers.check_bool "no pending, no response" false
    (Impl_model.response_enabled uip_nrbc History.empty Tid.a (Value.int 0))

let test_conflict_blocks () =
  (* The paper's §6.3 pair at the implementation model: with a committed
     balance of 2, B holds an active deposit and A requests a successful
     withdrawal.  Under UIP+NRBC the withdrawal does not push back over
     the deposit — blocked; under DU+NFC the two commute forward —
     enabled (A's view is the committed balance plus its own ops). *)
  let h =
    History.empty
    |> History.exec Tid.d (dep 2)
    |> History.commit_at Tid.d "BA"
    |> History.exec Tid.b (dep 1)
    |> History.invoke Tid.a ~obj:"BA" (Op.invocation ~args:[ Value.int 1 ] "withdraw")
  in
  Helpers.check_bool "blocked under UIP+NRBC" false
    (Impl_model.response_enabled uip_nrbc h Tid.a Value.ok);
  Helpers.check_bool "blocked flag" true (Impl_model.blocked uip_nrbc h Tid.a);
  Helpers.check_bool "enabled under DU+NFC" true
    (Impl_model.response_enabled du_nfc h Tid.a Value.ok);
  (* And the mirror image: with B holding a successful withdrawal, a
     second one is enabled under UIP+NRBC but blocked under DU+NFC. *)
  let h' =
    History.empty
    |> History.exec Tid.d (dep 2)
    |> History.commit_at Tid.d "BA"
    |> History.exec Tid.b (wok 1)
    |> History.invoke Tid.a ~obj:"BA" (Op.invocation ~args:[ Value.int 1 ] "withdraw")
  in
  Helpers.check_bool "second withdrawal enabled under UIP+NRBC" true
    (Impl_model.response_enabled uip_nrbc h' Tid.a Value.ok);
  Helpers.check_bool "second withdrawal blocked under DU+NFC" false
    (Impl_model.response_enabled du_nfc h' Tid.a Value.ok)

let test_own_ops_do_not_conflict () =
  let h =
    History.empty
    |> History.exec Tid.a (dep 1)
    |> History.invoke Tid.a ~obj:"BA" (Op.invocation ~args:[ Value.int 1 ] "withdraw")
  in
  Helpers.check_bool "own deposit does not block own withdraw" true
    (Impl_model.response_enabled uip_nrbc h Tid.a Value.ok)

let test_view_gates_response () =
  (* Precondition 3 in isolation (conflict relation emptied): under DU an
     active transaction cannot see another active transaction's deposit;
     under UIP the single current state includes it. *)
  let h =
    History.empty
    |> History.exec Tid.b (dep 5)
    |> History.invoke Tid.a ~obj:"BA" (Op.invocation "balance")
  in
  let du_none = Impl_model.make ~spec ~view:View.du ~conflict:Conflict.none in
  let uip_none = Impl_model.make ~spec ~view:View.uip ~conflict:Conflict.none in
  Helpers.check_bool "DU: balance reads 0" true
    (Impl_model.response_enabled du_none h Tid.a (Value.int 0));
  Helpers.check_bool "DU: balance cannot read 5" false
    (Impl_model.response_enabled du_none h Tid.a (Value.int 5));
  Helpers.check_bool "UIP: balance reads 5" true
    (Impl_model.response_enabled uip_none h Tid.a (Value.int 5));
  Helpers.check_bool "UIP: balance cannot read 0" false
    (Impl_model.response_enabled uip_none h Tid.a (Value.int 0))

let test_valid () =
  (* The §3.3 example is dynamic atomic but lies in *neither*
     implementation's language, even with no conflicts: B's successful
     withdrawal before A commits needs the UIP view (A's uncommitted
     deposit visible), while A's balance reading 3 after B's withdrawal
     needs the DU view (B's operation invisible).  The paper offers it as
     a history example, not an implementation run. *)
  let du_none = Impl_model.make ~spec ~view:View.du ~conflict:Conflict.none in
  Helpers.check_bool "paper example invalid under DU" false
    (Impl_model.valid du_none Helpers.paper_example_history);
  let uip_none = Impl_model.make ~spec ~view:View.uip ~conflict:Conflict.none in
  Helpers.check_bool "paper example invalid under UIP" false
    (Impl_model.valid uip_none Helpers.paper_example_history);
  (* The sound configurations block the overlap outright. *)
  Helpers.check_bool "invalid under UIP+NRBC" false
    (Impl_model.valid uip_nrbc Helpers.paper_example_history);
  (* A history whose response was never legal is invalid. *)
  let bad = History.empty |> History.exec Tid.a (wok 5) in
  Helpers.check_bool "invalid" false (Impl_model.valid uip_nrbc bad);
  (* A serial version of the same work is valid under both. *)
  let serial =
    History.empty
    |> History.exec Tid.a (dep 3)
    |> History.exec Tid.a (Helpers.bal 3)
    |> History.commit_at Tid.a "BA"
    |> History.exec Tid.b (Helpers.wok 2)
    |> History.commit_at Tid.b "BA"
  in
  Helpers.check_bool "serial valid under UIP+NRBC" true (Impl_model.valid uip_nrbc serial);
  Helpers.check_bool "serial valid under DU+NFC" true (Impl_model.valid du_nfc serial)

let test_enumerate_prefix_closed_and_valid () =
  let hs =
    Impl_model.enumerate uip_nrbc ~txns:[ Tid.a; Tid.b ] ~ops_per_txn:1 ~max_events:6
      ~limit:2000
  in
  Helpers.check_bool "nonempty" true (List.length hs > 10);
  Helpers.check_bool "all valid" true (List.for_all (Impl_model.valid uip_nrbc) hs)

(* Bounded model checking of Theorem 9/10 "if" directions. *)
let model_check name i limit =
  Alcotest.test_case name `Slow (fun () ->
      let hs = Impl_model.enumerate i ~txns:[ Tid.a; Tid.b ] ~ops_per_txn:2 ~max_events:8 ~limit in
      Helpers.check_bool "explored some histories" true (List.length hs > 100);
      List.iter
        (fun h ->
          match Atomicity.online_dynamic_atomic env h with
          | Atomicity.Ok -> ()
          | Atomicity.Ill_formed why -> Alcotest.fail why
          | Atomicity.Counterexample order ->
              Alcotest.failf "not online dynamic atomic in %a:@.%a"
                Fmt.(list ~sep:(any "-") Tid.pp)
                order History.pp h)
        hs)

let test_random_walks_dynamic_atomic name i =
  Alcotest.test_case name `Slow (fun () ->
      let rng = Random.State.make [| 2024 |] in
      for _ = 1 to 60 do
        let h = Impl_model.random i ~txns:[ Tid.a; Tid.b; Tid.c ] ~ops_per_txn:3 ~steps:24 ~rng in
        Helpers.check_bool "online dynamic atomic" true
          (Atomicity.is_online_dynamic_atomic env h)
      done)

(* Sanity for the only-if: with an insufficient conflict relation the
   generators *can* produce a non-dynamic-atomic history (checked via the
   Theorems module in test_theorems; here we check the model accepts the
   violating history, i.e. the gate really is the conflict relation). *)
let test_missing_conflict_admits_violation () =
  let weak = Impl_model.make ~spec ~view:View.uip ~conflict:Conflict.none in
  let h =
    History.empty
    |> History.exec Tid.b (dep 1)
    |> History.exec Tid.c (wok 1)
    |> History.commit_at Tid.b "BA"
    |> History.commit_at Tid.c "BA"
  in
  Helpers.check_bool "valid without conflicts" true (Impl_model.valid weak h);
  Helpers.check_bool "but not dynamic atomic" false (Atomicity.is_dynamic_atomic env h);
  Helpers.check_bool "rejected with NRBC" false (Impl_model.valid uip_nrbc h)

let suite =
  [
    Alcotest.test_case "response preconditions" `Quick test_response_preconditions;
    Alcotest.test_case "conflict blocks (§6.3)" `Quick test_conflict_blocks;
    Alcotest.test_case "own ops do not conflict" `Quick test_own_ops_do_not_conflict;
    Alcotest.test_case "view gates response" `Quick test_view_gates_response;
    Alcotest.test_case "validity" `Quick test_valid;
    Alcotest.test_case "enumeration valid" `Quick test_enumerate_prefix_closed_and_valid;
    model_check "model check: UIP+NRBC online dynamic atomic" uip_nrbc 4000;
    model_check "model check: DU+NFC online dynamic atomic" du_nfc 4000;
    test_random_walks_dynamic_atomic "random walks: UIP+NRBC" uip_nrbc;
    test_random_walks_dynamic_atomic "random walks: DU+NFC" du_nfc;
    Alcotest.test_case "missing conflict admits violation" `Quick
      test_missing_conflict_admits_violation;
  ]
