(* Registry-wide soundness: for every shipped ADT — closed-form and
   derived relations alike — the NRBC conflict must make UIP unrefutable,
   the NFC conflict must make DU unrefutable (Theorems 9/10), and bounded
   model checking of both sound engines must find only online-dynamic-
   atomic histories.  This covers the non-deterministic semiqueue and the
   partial-operation types through exactly the same criterion as the bank
   account. *)

open Tm_core
module Registry = Tm_adt.Registry

let params = Commutativity.params ~alpha_depth:4 ~future_depth:4 ()

let test_registry_complete () =
  Helpers.check_int "ten types registered" 10 (List.length Registry.all);
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check (option string))
        (e.name ^ " found") (Some e.name)
        (Option.map (fun (x : Registry.entry) -> x.name) (Registry.find e.name));
      Helpers.check_bool (e.name ^ " lookup case-insensitive") true
        (Registry.find (String.lowercase_ascii e.name) <> None);
      Helpers.check_bool (e.name ^ " generators non-empty") true
        (Spec.generators e.spec <> []))
    Registry.all;
  Alcotest.(check (option reject)) "unknown" None (Registry.find "NOPE")

let test_sound_relations_unrefutable () =
  List.iter
    (fun (e : Registry.entry) ->
      (match Theorems.uip_refute e.spec params e.nrbc with
      | None -> ()
      | Some cex ->
          Alcotest.failf "%s: UIP+NRBC refuted by %a/%a" e.name Op.pp cex.requested Op.pp
            cex.held);
      match Theorems.du_refute e.spec params e.nfc with
      | None -> ()
      | Some cex ->
          Alcotest.failf "%s: DU+NFC refuted by %a/%a" e.name Op.pp cex.requested Op.pp
            cex.held)
    Registry.all

(* With no conflicts at all, both theorems' only-if directions build a
   counterexample history for every type; the checker rejects each with
   an order of its committed transactions that is consistent with
   precedes and does not serialize. *)
let test_refutations_rejected () =
  List.iter
    (fun (e : Registry.entry) ->
      let env = Atomicity.env_of_list [ e.spec ] in
      List.iter
        (fun (view, refute) ->
          match refute e.spec params Conflict.none with
          | None -> Alcotest.failf "%s/%s: no refutation without conflicts" e.name view
          | Some (cex : Theorems.cex) -> (
              let h = cex.history in
              match Atomicity.dynamic_atomic env h with
              | Atomicity.Ok -> Alcotest.failf "%s/%s: counterexample accepted" e.name view
              | Atomicity.Ill_formed why -> Alcotest.failf "%s/%s: %s" e.name view why
              | Atomicity.Counterexample order ->
                  Helpers.check_bool (e.name ^ " order consistent") true
                    (Orders.consistent order (History.precedes h));
                  Helpers.check_bool (e.name ^ " order refutes") false
                    (Atomicity.serializable_in env (History.permanent h) order)))
        [ ("UIP", Theorems.uip_refute); ("DU", Theorems.du_refute) ])
    Registry.all

let model_check_entry (e : Registry.entry) view conflict =
  let i = Impl_model.make ~spec:e.spec ~view ~conflict in
  let env = Atomicity.env_of_list [ e.spec ] in
  let histories =
    Impl_model.enumerate i ~txns:[ Tid.a; Tid.b ] ~ops_per_txn:2 ~max_events:8 ~limit:800
  in
  Helpers.check_bool (e.name ^ " explored") true (List.length histories > 50);
  List.iter
    (fun h ->
      match Atomicity.online_dynamic_atomic env h with
      | Atomicity.Ok -> ()
      | Atomicity.Ill_formed why -> Alcotest.fail why
      | Atomicity.Counterexample order ->
          Alcotest.failf "%s/%s: violation in order %a:@.%a" e.name (View.name view)
            Fmt.(list ~sep:(any "-") Tid.pp)
            order History.pp h)
    histories

let test_model_check_all_uip () =
  List.iter (fun (e : Registry.entry) -> model_check_entry e View.uip e.nrbc) Registry.all

let test_model_check_all_du () =
  List.iter (fun (e : Registry.entry) -> model_check_entry e View.du e.nfc) Registry.all

let test_engine_runs_all_types () =
  (* a tiny randomized engine run per type and recovery method; committed
     operations must always replay *)
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun (recovery, conflict) ->
          let o = Tm_engine.Atomic_object.create ~spec:e.spec ~conflict ~recovery () in
          let db = Tm_engine.Database.create [ o ] in
          let rng = Random.State.make [| 77 |] in
          let invocations =
            List.map (fun (op : Op.t) -> op.inv) (Spec.generators e.spec)
            |> List.sort_uniq Op.compare_invocation
          in
          let active = ref [] in
          for _ = 1 to 60 do
            if List.length !active < 3 then active := Tm_engine.Database.begin_txn db :: !active;
            match !active with
            | [] -> ()
            | ts -> (
                let t = List.nth ts (Random.State.int rng (List.length ts)) in
                if Random.State.int rng 10 < 7 then begin
                  let inv =
                    List.nth invocations (Random.State.int rng (List.length invocations))
                  in
                  ignore (Tm_engine.Database.invoke db t ~obj:e.name inv);
                  match Tm_engine.Database.deadlock db with
                  | Some cycle ->
                      let v = Tm_engine.Deadlock.victim cycle in
                      Tm_engine.Database.abort db v;
                      active := List.filter (fun x -> not (Tid.equal x v)) !active
                  | None -> ()
                end
                else begin
                  Tm_engine.Database.commit db t;
                  active := List.filter (fun x -> not (Tid.equal x t)) !active
                end)
          done;
          Helpers.check_bool
            (Fmt.str "%s %s replay" e.name (Fmt.str "%a" Tm_engine.Recovery.pp_kind recovery))
            true
            (Spec.legal e.spec (Tm_engine.Atomic_object.committed_ops o)))
        [ (Tm_engine.Recovery.UIP, e.nrbc); (Tm_engine.Recovery.DU, e.nfc) ])
    Registry.all

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "sound relations unrefutable (all types)" `Slow
      test_sound_relations_unrefutable;
    Alcotest.test_case "model check UIP+NRBC (all types)" `Slow test_model_check_all_uip;
    Alcotest.test_case "model check DU+NFC (all types)" `Slow test_model_check_all_du;
    Alcotest.test_case "engine runs (all types)" `Slow test_engine_runs_all_types;
    Alcotest.test_case "refutations rejected (all types)" `Quick test_refutations_rejected;
  ]
