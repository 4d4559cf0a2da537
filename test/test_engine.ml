(* The executable engine: lock table, recovery managers, atomic objects,
   database, deadlock detection — including the run-time counterparts of
   the paper's §5 examples and end-to-end dynamic-atomicity checks of
   recorded histories. *)

open Tm_core
module Lock_table = Tm_engine.Lock_table
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module Deadlock = Tm_engine.Deadlock
module Tid_bits = Tm_engine.Tid_bits
module Tid_table = Tm_engine.Tid_table
module Op_log = Tm_engine.Op_log
module Op_table = Tm_engine.Op_table

module BA = Tm_adt.Bank_account

let dep = BA.deposit
let wok = BA.withdraw_ok

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw_inv i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance_inv = Op.invocation "balance"

(* --- Lock table --- *)

let test_lock_table () =
  let t = Lock_table.create BA.nrbc_conflict in
  Lock_table.add t Tid.a (dep 1);
  Alcotest.check Helpers.tids "withdraw blocked by deposit" [ Tid.a ]
    (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.b);
  Alcotest.check Helpers.tids "own op never blocks" []
    (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.a);
  Alcotest.check Helpers.tids "deposit free" []
    (Lock_table.blockers t ~requested:(dep 2) ~tid:Tid.b);
  Lock_table.release t Tid.a;
  Alcotest.check Helpers.tids "released" []
    (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.b)

(* [holds] lists holder by holder, the newest holder first, and each
   holder's operations in the order it acquired them; a hold carries no
   stamp, so interleaved acquisitions are not ordered across holders.
   [release] drops exactly one transaction's holds. *)
let test_lock_table_holds_order () =
  let t = Lock_table.create BA.nrbc_conflict in
  Lock_table.add t Tid.a (dep 1);
  Lock_table.add t Tid.b (dep 2);
  Lock_table.add t Tid.a (dep 3);
  Lock_table.add t Tid.b (dep 4);
  let pair = Alcotest.pair Helpers.tid Helpers.op in
  Alcotest.check (Alcotest.list pair) "per holder, in acquisition order"
    [ (Tid.b, dep 2); (Tid.b, dep 4); (Tid.a, dep 1); (Tid.a, dep 3) ]
    (Lock_table.holds t);
  Lock_table.release t Tid.a;
  Alcotest.check (Alcotest.list pair) "only a's holds dropped"
    [ (Tid.b, dep 2); (Tid.b, dep 4) ]
    (Lock_table.holds t);
  Lock_table.release t Tid.a;
  (* idempotent *)
  Alcotest.check (Alcotest.list pair) "release of absent tid is a no-op"
    [ (Tid.b, dep 2); (Tid.b, dep 4) ]
    (Lock_table.holds t);
  Lock_table.add t Tid.a (dep 5);
  Alcotest.check (Alcotest.list pair) "a returning holder is the newest"
    [ (Tid.a, dep 5); (Tid.b, dep 2); (Tid.b, dep 4) ]
    (Lock_table.holds t)

let test_lock_table_blockers_dedup () =
  let t = Lock_table.create BA.nrbc_conflict in
  Lock_table.add t Tid.a (dep 1);
  Lock_table.add t Tid.a (dep 2);
  Lock_table.add t Tid.b (dep 3);
  Alcotest.check Helpers.tids "each holder reported once"
    [ Tid.a; Tid.b ]
    (List.sort Tid.compare (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.c));
  Alcotest.check Helpers.tids "own holds ignored" [ Tid.b ]
    (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.a)

(* --- Recovery managers --- *)

let test_uip_view_semantics () =
  (* §5: UIP shows B's active withdrawal to everyone. *)
  let r = Recovery.create Recovery.UIP BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.commit r Tid.a;
  Recovery.record r Tid.b (wok 3);
  Alcotest.check (Alcotest.list Helpers.value) "C sees balance 2" [ Value.int 2 ]
    (Recovery.responses r Tid.c balance_inv)

let test_du_view_semantics () =
  (* §5: DU hides B's active withdrawal from C but not from B. *)
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.commit r Tid.a;
  Recovery.record r Tid.b (wok 3);
  Alcotest.check (Alcotest.list Helpers.value) "B sees balance 2" [ Value.int 2 ]
    (Recovery.responses r Tid.b balance_inv);
  Alcotest.check (Alcotest.list Helpers.value) "C sees balance 5" [ Value.int 5 ]
    (Recovery.responses r Tid.c balance_inv)

let test_uip_abort_undoes () =
  let r = Recovery.create Recovery.UIP BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.record r Tid.b (dep 3);
  Recovery.abort r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "balance back to 5" [ Value.int 5 ]
    (Recovery.responses r Tid.c balance_inv)

let test_du_abort_discards () =
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.abort r Tid.a;
  Alcotest.check (Alcotest.list Helpers.value) "balance 0" [ Value.int 0 ]
    (Recovery.responses r Tid.b balance_inv)

let test_du_commit_order_visibility () =
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.record r Tid.b (dep 2);
  (* neither committed: C sees 0 *)
  Alcotest.check (Alcotest.list Helpers.value) "C sees 0" [ Value.int 0 ]
    (Recovery.responses r Tid.c balance_inv);
  Recovery.commit r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "C sees 2" [ Value.int 2 ]
    (Recovery.responses r Tid.c balance_inv);
  Recovery.commit r Tid.a;
  Alcotest.check Helpers.ops "commit order log" [ dep 2; dep 5 ] (Recovery.committed_ops r)

(* A kept view goes stale when another transaction commits; committing
   it derives it again from the new base, and intentions that no longer
   apply there (only possible under a conflict relation too weak for DU,
   here none) raise instead of installing a stale base. *)
let test_du_stale_commit_raises () =
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.c (dep 5);
  Recovery.commit r Tid.c;
  Recovery.record r Tid.a (wok 5);
  Recovery.record r Tid.b (wok 5);
  Recovery.commit r Tid.a;
  Alcotest.check_raises "B's withdrawal no longer applies"
    (Invalid_argument
       "Recovery.commit(DU): intentions list of B no longer applies (conflict relation too weak)")
    (fun () -> Recovery.commit r Tid.b);
  Alcotest.check Helpers.ops "only C and A committed" [ dep 5; wok 5 ] (Recovery.committed_ops r)

let test_record_illegal_raises () =
  let r = Recovery.create Recovery.UIP BA.spec in
  Alcotest.check_raises "illegal op"
    (Invalid_argument "Recovery.record(UIP): illegal operation BA:[withdraw(5),ok]")
    (fun () -> Recovery.record r Tid.a (wok 5))

(* --- Atomic objects --- *)

let make_ba recovery =
  Atomic_object.create ~spec:BA.spec
    ~conflict:(match recovery with Recovery.UIP -> BA.nrbc_conflict | Recovery.DU -> BA.nfc_conflict)
    ~recovery ()

let test_invoke_executes () =
  let o = make_ba Recovery.UIP in
  (match Atomic_object.invoke o Tid.a (deposit_inv 5) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "deposit" (dep 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  match Atomic_object.invoke o Tid.a balance_inv with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "balance 5" (BA.balance 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_invoke_blocks_and_unblocks () =
  let o = make_ba Recovery.UIP and reg = Tm_obs.Metrics.create () in
  Atomic_object.attach_metrics o reg;
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  (match Atomic_object.invoke o Tid.b (withdraw_inv 3) with
  | Atomic_object.Blocked [ t ] -> Alcotest.check Helpers.tid "blocked on A" Tid.a t
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  Helpers.check_int "block counted" 1
    (Tm_obs.Metrics.counter_total reg "tm_object_blocked_total");
  Atomic_object.commit o Tid.a;
  match Atomic_object.invoke o Tid.b (withdraw_inv 3) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "withdraw ok" (wok 3) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_result_dependent_locking () =
  (* A failed withdrawal does not conflict with a held deposit's... it
     does under NRBC (deposit held, wno requested → wno RBC dep → no
     conflict).  Under NRBC a *successful* withdrawal is blocked while a
     failed one proceeds: the lock depends on the result. *)
  let o = make_ba Recovery.UIP in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 1));
  (* B's withdraw(5) would fail (balance 1): the wno result does not
     conflict with the held deposit, so it executes. *)
  (match Atomic_object.invoke o Tid.b (withdraw_inv 5) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "wno executes" (BA.withdraw_no 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (* C's withdraw(1) would succeed — and a successful withdrawal does not
     push back over a deposit, so it blocks. *)
  match Atomic_object.invoke o Tid.c (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_no_response () =
  let module FQ = Tm_adt.Fifo_queue in
  let o = Atomic_object.create ~spec:FQ.spec ~conflict:FQ.nfc_conflict ~recovery:Recovery.DU () in
  match Atomic_object.invoke o Tid.a (Op.invocation "deq") with
  | Atomic_object.No_response -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_abort_releases_and_undoes () =
  let o = make_ba Recovery.UIP in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  Atomic_object.abort o Tid.a;
  Helpers.check_int "locks released" 0 (List.length (Atomic_object.holds o));
  match Atomic_object.invoke o Tid.b balance_inv with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "balance 0" (BA.balance 0) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_committed_ops_replay () =
  let o = make_ba Recovery.DU in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  Atomic_object.commit o Tid.a;
  ignore (Atomic_object.invoke o Tid.b (withdraw_inv 2));
  Atomic_object.commit o Tid.b;
  Alcotest.check Helpers.ops "commit-order ops" [ dep 5; wok 2 ] (Atomic_object.committed_ops o);
  Helpers.check_bool "replays legally" true
    (Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))

(* Restore installs replayed work only into a fresh object: an object
   with a restored or committed operation, or a live transaction, gets
   an [Error] and keeps its committed operations, whatever its recovery
   method or policy. *)
let test_restore_needs_fresh_object () =
  let objects () =
    [
      make_ba Recovery.UIP;
      make_ba Recovery.DU;
      Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict;
    ]
  in
  let refused what o =
    let before = Atomic_object.committed_ops o in
    Helpers.check_bool (what ^ ": restore refused") true
      (Result.is_error (Atomic_object.restore o [ dep 1 ]));
    Alcotest.check Helpers.ops (what ^ ": committed ops kept") before
      (Atomic_object.committed_ops o)
  in
  List.iter
    (fun o ->
      Helpers.check_bool "a fresh object restores" true
        (Result.is_ok (Atomic_object.restore o [ dep 5 ]));
      refused "restored" o)
    (objects ());
  List.iter
    (fun o ->
      ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
      refused "live" o;
      Atomic_object.commit o Tid.a;
      refused "committed" o)
    (objects ())

(* Inverse-operation undo: the compensation fast path must agree with the
   general replay path on every randomised schedule.  The schedules run
   through locked objects (NRBC): update-in-place undo is only meaningful
   under a conflict relation containing NRBC (Theorem 9) — driving the
   raw manager without locks can strand the shared log, which is exactly
   the interaction the paper is about. *)
let test_inverse_undo_equivalence () =
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    let fast =
      Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ()
    in
    let slow =
      Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ()
    in
    let txns = [ Tid.a; Tid.b; Tid.c ] in
    let finished = Hashtbl.create 8 in
    for _ = 1 to 40 do
      let tid = List.nth txns (Random.State.int rng 3) in
      if not (Hashtbl.mem finished tid) then
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            let inv =
              match Random.State.int rng 3 with
              | 0 -> deposit_inv (1 + Random.State.int rng 3)
              | 1 -> withdraw_inv (1 + Random.State.int rng 3)
              | _ -> balance_inv
            in
            (* identical states and deterministic choice: identical
               outcomes *)
            let o1 = Atomic_object.invoke fast tid inv in
            let o2 = Atomic_object.invoke slow tid inv in
            Helpers.check_bool "same outcome" true
              (match o1, o2 with
              | Atomic_object.Executed a, Atomic_object.Executed b -> Op.equal a b
              | Atomic_object.Blocked a, Atomic_object.Blocked b -> a = b
              | Atomic_object.No_response, Atomic_object.No_response -> true
              | _, _ -> false)
        | 6 | 7 ->
            Atomic_object.commit fast tid;
            Atomic_object.commit slow tid;
            Hashtbl.add finished tid ()
        | _ ->
            Atomic_object.abort fast tid;
            Atomic_object.abort slow tid;
            Hashtbl.add finished tid ()
    done;
    (* same committed work, same observable final state *)
    Alcotest.check Helpers.ops "same committed ops" (Atomic_object.committed_ops slow)
      (Atomic_object.committed_ops fast);
    let observer = Tid.of_int 9 in
    Helpers.check_bool "same final balance" true
      (Atomic_object.invoke fast observer balance_inv
      = Atomic_object.invoke slow observer balance_inv)
  done

(* The folded UIP manager refines the unfolded one.  A long random
   schedule runs through one locked object (NRBC): at least 200
   transactions, up to 8 live at once, so the committed prefix is folded
   many times, with live transactions on both sides of the fold point.  A
   shadow manager receives the same record/commit/abort calls as the
   object's own.  After every step its responses to every invocation and
   its committed operations must equal those of the reference manager,
   which keeps and replays the whole history.  Every 50 steps, and at the
   end, the responses must also equal the literal UIP view: the
   operations of the non-aborted transactions in execution order.  The
   run must interleave at least three transactions in the live suffix
   and abort a transaction whose operations sit at its head, one at its
   tail and one in its middle (neither). *)
let uip_refinement_run ?inverse ?(restored = []) ~spec ~conflict seed =
  let rng = Random.State.make [| seed |] in
  let o = Atomic_object.create ?inverse ~spec ~conflict ~recovery:Recovery.UIP () in
  (* Equal operations are shared, as in a database. *)
  Atomic_object.share_ops o (Op_table.create ());
  let shadow = Recovery.create ?inverse Recovery.UIP spec in
  let oracle = Uip_reference.create ?inverse spec in
  if restored <> [] then begin
    let ok = function Ok () -> () | Error e -> Alcotest.failf "%a" Recovery.pp_error e in
    ok (Atomic_object.restore o restored);
    ok (Recovery.restore shadow (Op_log.of_list restored));
    oracle.restore restored
  end;
  let invs =
    List.sort_uniq Op.compare_invocation
      (List.map (fun (op : Op.t) -> op.inv) (Spec.generators spec))
  in
  let observer = Tid.of_int 1_000_000 in
  let values = Fmt.(brackets (list ~sep:semi Value.pp)) in
  let same_responses step what expected =
    List.iter
      (fun inv ->
        let got = Recovery.responses shadow observer inv in
        if not (List.equal Value.equal (expected inv) got) then
          Alcotest.failf "seed %d, step %d: %a answers %a, %s answers %a" seed step
            Op.pp_invocation inv values got what values (expected inv))
      invs
  in
  let same_committed step =
    let expected = oracle.committed_ops () in
    List.iter
      (fun (who, got) ->
        if not (List.equal Op.equal expected got) then
          Alcotest.failf "seed %d, step %d: %s committed ops differ from the reference" seed
            step who)
      [ ("shadow", Recovery.committed_ops shadow); ("object", Atomic_object.committed_ops o) ]
  in
  (* (tid, op) of non-aborted transactions, newest first *)
  let executed = ref [] in
  let literal_view () = restored @ List.rev_map snd !executed in
  let total = 200 + Random.State.int rng 50 in
  let started = ref 0 and live = ref [] and step = ref 0 in
  let finish t =
    live := List.filter (fun x -> not (Tid.equal x t)) !live
  in
  (* The tids of the live suffix's operations, oldest first: the
     non-aborted operations from the first one of a live transaction. *)
  let suffix () =
    let rec from = function
      | (x, _) :: rest as l -> if List.exists (Tid.equal x) !live then l else from rest
      | [] -> []
    in
    List.map fst (from (List.rev !executed))
  in
  let interleaved = ref 0 and heads = ref 0 and middles = ref 0 and tails = ref 0 in
  let note_abort t =
    match suffix () with
    | [] -> ()
    | first :: _ as tids when List.exists (Tid.equal t) tids ->
        let head = Tid.equal first t
        and tail = Tid.equal (List.nth tids (List.length tids - 1)) t in
        if head then incr heads;
        if tail then incr tails;
        if not (head || tail) then incr middles
    | _ -> ()
  in
  while !started < total || !live <> [] do
    incr step;
    if !started < total && List.length !live < 8 && (!live = [] || Random.State.bool rng)
    then begin
      live := Tid.of_int !started :: !live;
      incr started
    end;
    let t = List.nth !live (Random.State.int rng (List.length !live)) in
    (match Random.State.int rng 12 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> (
        let inv = List.nth invs (Random.State.int rng (List.length invs)) in
        let choose vs = List.nth vs (Random.State.int rng (List.length vs)) in
        match Atomic_object.invoke ~choose o t inv with
        | Atomic_object.Executed op ->
            if not (List.exists (Value.equal op.res) (oracle.responses inv)) then
              Alcotest.failf "seed %d, step %d: %a is not legal in the reference view" seed
                !step Op.pp op;
            Recovery.record shadow t op;
            oracle.record t op;
            executed := (t, op) :: !executed;
            let tids = suffix () in
            interleaved :=
              max !interleaved (List.length (List.sort_uniq Tid.compare tids))
        | Atomic_object.Blocked _ | Atomic_object.No_response -> ())
    | 8 | 9 ->
        Atomic_object.commit o t;
        Recovery.commit shadow t;
        oracle.commit t;
        finish t
    | _ ->
        note_abort t;
        Atomic_object.abort o t;
        Recovery.abort shadow t;
        oracle.abort t;
        executed := List.filter (fun (x, _) -> not (Tid.equal x t)) !executed;
        finish t);
    same_responses !step "the reference" oracle.responses;
    same_committed !step;
    if !step mod 50 = 0 then
      same_responses !step "the literal view" (Spec.responses spec (literal_view ()))
  done;
  same_responses !step "the literal view" (Spec.responses spec (literal_view ()));
  if !interleaved < 3 || !heads = 0 || !middles = 0 || !tails = 0 then
    Alcotest.failf
      "seed %d: %d transactions interleaved at most; aborts at the head %d, middle %d, tail %d"
      seed !interleaved !heads !middles !tails;
  true

let prop_uip_fold_refines name ?inverse ?restored ~spec ~conflict () =
  Helpers.qcheck ~count:4 name QCheck2.Gen.int
    (uip_refinement_run ?inverse ?restored ~spec ~conflict)

let uip_refinement_props =
  let module SQ = Tm_adt.Semiqueue in
  [
    prop_uip_fold_refines "folded UIP = reference (BA, compensation)" ~inverse:BA.inverse
      ~spec:BA.spec ~conflict:BA.nrbc_conflict ();
    prop_uip_fold_refines "folded UIP = reference (SQ, replay)" ~spec:SQ.spec
      ~conflict:SQ.nrbc_conflict ();
    prop_uip_fold_refines "folded UIP = reference (BA, replay, from restore)"
      ~restored:(List.init 20 (fun i -> if i mod 3 = 2 then wok 1 else dep 2))
      ~spec:BA.spec ~conflict:BA.nrbc_conflict ();
  ]

(* List state-sets refine the [Set] state-sets they replaced.  A random
   schedule of record, commit and abort steps, with [restore] attempts
   among them, drives a [Recovery] manager and the [Recovery_reference]
   manager of the same kind.  A lock table under a conflict relation
   correct for the recovery method decides which responses a transaction
   may take, so every schedule is one the engine could run.  After every
   step both managers must give the same responses to every invocation,
   for every live transaction and a fresh observer, and hold the same
   committed operations; each restore must succeed in both or fail in
   both. *)
let state_set_refinement_run ?inverse kind ~spec ~conflict seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let r = Recovery.create ?inverse kind spec in
  let oracle =
    match kind with
    | Recovery.UIP -> Recovery_reference.create_uip ?inverse spec
    | Recovery.DU -> Recovery_reference.create_du spec
  in
  let locks = Lock_table.create conflict in
  let invs =
    List.sort_uniq Op.compare_invocation
      (List.map (fun (op : Op.t) -> op.inv) (Spec.generators spec))
  in
  (* A legal committed sequence: one transaction's random walk. *)
  let restorable () =
    let w = Recovery.create Recovery.DU spec in
    for _ = 1 to Random.State.int rng 12 do
      let inv = pick invs in
      match Recovery.responses w Tid.a inv with
      | [] -> ()
      | vs -> Recovery.record w Tid.a { Op.obj = Spec.name spec; inv; res = pick vs }
    done;
    Recovery.commit w Tid.a;
    Recovery.committed_ops w
  in
  let values = Fmt.(brackets (list ~sep:semi Value.pp)) in
  let same step live =
    List.iter
      (fun tid ->
        List.iter
          (fun inv ->
            let got = Recovery.responses r tid inv and want = oracle.responses tid inv in
            if not (List.equal Value.equal got want) then
              Alcotest.failf "seed %d, step %d: %a for %a answers %a, the reference %a" seed step
                Op.pp_invocation inv Tid.pp tid values got values want)
          invs)
      (Tid.of_int 1_000_000 :: live);
    if not (List.equal Op.equal (Recovery.committed_ops r) (oracle.committed_ops ())) then
      Alcotest.failf "seed %d, step %d: committed ops differ from the reference" seed step
  in
  let live = ref [] and fresh = ref 1 in
  let finish tid =
    Lock_table.release locks tid;
    live := List.filter (fun t -> not (Tid.equal t tid)) !live
  in
  for step = 1 to 150 do
    (match Random.State.int rng 20 with
    | 0 | 1 ->
        let ops = restorable () in
        let a = Recovery.restore r (Op_log.of_list ops) and b = oracle.restore ops in
        if Result.is_ok a <> Result.is_ok b then
          Alcotest.failf "seed %d, step %d: restore %s here, %s in the reference" seed step
            (if Result.is_ok a then "succeeds" else "fails")
            (if Result.is_ok b then "succeeds" else "fails")
    | n when n < 13 || !live = [] ->
        let tid =
          if !live = [] || (List.length !live < 4 && Random.State.bool rng) then begin
            incr fresh;
            Tid.of_int !fresh
          end
          else pick !live
        in
        let inv = pick invs in
        let enabled =
          List.filter_map
            (fun res ->
              let op = { Op.obj = Spec.name spec; inv; res } in
              if Lock_table.blockers locks ~requested:op ~tid = [] then Some op else None)
            (Recovery.responses r tid inv)
        in
        if enabled <> [] then begin
          let op = pick enabled in
          Recovery.record r tid op;
          oracle.record tid op;
          Lock_table.add locks tid op;
          if not (List.exists (Tid.equal tid) !live) then live := tid :: !live
        end
    | n when n < 17 ->
        let tid = pick !live in
        Recovery.commit r tid;
        oracle.commit tid;
        finish tid
    | _ ->
        let tid = pick !live in
        Recovery.abort r tid;
        oracle.abort tid;
        finish tid);
    same step !live
  done;
  true

let prop_state_sets_refine name ?inverse kind ~spec ~conflict =
  Helpers.qcheck ~count:25 name QCheck2.Gen.int
    (state_set_refinement_run ?inverse kind ~spec ~conflict)

let state_set_refinement_props =
  let module SQ = Tm_adt.Semiqueue in
  [
    prop_state_sets_refine "state-sets BA/UIP/inverse = Explore"
      ~inverse:BA.inverse Recovery.UIP ~spec:BA.spec ~conflict:BA.nrbc_conflict;
    prop_state_sets_refine "state-sets BA/UIP/replay = Explore" Recovery.UIP
      ~spec:BA.spec ~conflict:BA.nrbc_conflict;
    prop_state_sets_refine "state-sets BA/DU = Explore" Recovery.DU ~spec:BA.spec
      ~conflict:BA.nfc_conflict;
    prop_state_sets_refine "state-sets SQ/UIP = Explore" Recovery.UIP
      ~spec:SQ.spec ~conflict:SQ.nrbc_conflict;
    prop_state_sets_refine "state-sets SQ/DU = Explore" Recovery.DU ~spec:SQ.spec
      ~conflict:SQ.nfc_conflict;
    prop_state_sets_refine "state-sets blind SQ/UIP = Explore" Recovery.UIP
      ~spec:Helpers.blind_semiqueue ~conflict:Helpers.blind_semiqueue_conflict;
    prop_state_sets_refine "state-sets blind SQ/DU = Explore" Recovery.DU
      ~spec:Helpers.blind_semiqueue ~conflict:Helpers.blind_semiqueue_conflict;
  ]

(* The blind semiqueue really reaches a state-set of two states: after
   [enq 1; enq 2; take] either item may remain, so [deq] may answer
   either, in both kinds of manager. *)
let test_several_states () =
  let enq x = Op.make ~obj:"BSQ" ~args:[ Value.int x ] "enq" Value.ok in
  List.iter
    (fun kind ->
      let r = Recovery.create kind Helpers.blind_semiqueue in
      List.iter (Recovery.record r Tid.a) [ enq 1; enq 2; Op.make ~obj:"BSQ" "take" Value.ok ];
      Alcotest.(check (list Helpers.value))
        (Fmt.str "%a: deq answers either item" Recovery.pp_kind kind)
        [ Value.int 1; Value.int 2 ]
        (Recovery.responses r Tid.a (Op.invocation "deq")))
    [ Recovery.UIP; Recovery.DU ]

(* History independence: after 10^4 committed transactions, an abort that
   cannot compensate replays only the live suffix, not the history.  The
   spec counts its [respond] calls, one per state stepped.  Consecutive
   transactions overlap, so the prefix is folded while another
   transaction is live, not only when the object falls idle. *)
let test_uip_abort_history_independent () =
  let steps = ref 0 in
  let spec =
    match BA.spec with
    | Spec.Packed { m = (module S); _ } ->
        let module Counting = struct
          include S

          let respond s inv k c acc =
            incr steps;
            S.respond s inv k c acc
        end in
        Spec.pack (module Counting)
  in
  let r = Recovery.create Recovery.UIP spec in
  let n = 10_000 in
  Recovery.record r (Tid.of_int 0) (dep 1);
  for i = 1 to n do
    Recovery.record r (Tid.of_int i) (dep 1);
    Recovery.commit r (Tid.of_int (i - 1))
  done;
  let doomed = Tid.of_int (n + 1) in
  Recovery.record r doomed (dep 1);
  steps := 0;
  Recovery.abort r doomed;
  Helpers.check_bool (Fmt.str "abort replays the live suffix only (%d steps)" !steps) true
    (!steps <= 2);
  Alcotest.(check (list Helpers.value))
    "balance after the abort" [ Value.int (n + 1) ]
    (Recovery.responses r doomed balance_inv)

let test_inverse_undo_counter () =
  let module C = Tm_adt.Bounded_counter in
  let r = Recovery.create ~inverse:C.inverse Recovery.UIP C.spec in
  Recovery.record r Tid.a (C.incr_ok 2);
  Recovery.record r Tid.b (C.incr_ok 1);
  Recovery.abort r Tid.a;
  Alcotest.(check (list Helpers.value))
    "abort compensated" [ Value.int 1 ]
    (Recovery.responses r Tid.c (Op.invocation "read"))

(* --- Deadlock --- *)

let test_deadlock_cycle () =
  let d = Deadlock.create () in
  Deadlock.set_waiting d Tid.a ~on:[ Tid.b ] ~at:0;
  Alcotest.(check (option Helpers.tids)) "no cycle yet" None (Deadlock.find_cycle d);
  Deadlock.set_waiting d Tid.b ~on:[ Tid.c ] ~at:0;
  Deadlock.set_waiting d Tid.c ~on:[ Tid.a ] ~at:0;
  (match Deadlock.find_cycle d with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      Helpers.check_int "3-cycle" 3 (List.length cycle);
      Alcotest.check Helpers.tid "victim is youngest" Tid.c (Deadlock.victim cycle));
  Deadlock.clear d Tid.c ~at:0;
  Alcotest.(check (option Helpers.tids)) "cleared" None (Deadlock.find_cycle d)

(* Regression: [clear] used to Hashtbl.replace inside Hashtbl.iter over
   the same table — unspecified behaviour.  Clearing a tid that appears
   in many edge lists must remove every mention and nothing else. *)
let test_deadlock_clear_many_edges () =
  let d = Deadlock.create () in
  let tids = List.init 40 Tid.of_int in
  let victim = Tid.of_int 40 in
  List.iter (fun t -> Deadlock.set_waiting d t ~on:[ victim; Tid.a ] ~at:0) tids;
  Deadlock.set_waiting d victim ~on:[ Tid.b ] ~at:0;
  Deadlock.clear d victim ~at:0;
  Alcotest.check Helpers.tids "victim's own edges gone" [] (Deadlock.waiting d victim);
  List.iter
    (fun t ->
      Alcotest.check Helpers.tids
        (Fmt.str "only %a's edge to the victim removed" Tid.pp t)
        [ Tid.a ] (Deadlock.waiting d t))
    tids

let test_deadlock_self_loop_impossible () =
  (* The lock table never reports a transaction as blocking itself, but
     the graph handles a self-edge gracefully if given one. *)
  let d = Deadlock.create () in
  Deadlock.set_waiting d Tid.a ~on:[ Tid.a ] ~at:0;
  match Deadlock.find_cycle d with
  | Some [ t ] -> Alcotest.check Helpers.tid "self" Tid.a t
  | _ -> Alcotest.fail "expected self-cycle"

(* --- Database --- *)

let test_database_end_to_end () =
  let db =
    Helpers.traced (Database.create [ make_ba Recovery.UIP ])
  in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 5));
  ignore (Database.invoke db b ~obj:"BA" (deposit_inv 3));
  Database.commit db a;
  Database.commit db b;
  Helpers.check_int "committed" 2 (Database.committed_count db);
  let h = Helpers.recorded_history db in
  Helpers.check_bool "recorded history well-formed" true (History.is_well_formed h);
  Helpers.check_bool "recorded history dynamic atomic" true
    (Atomicity.is_dynamic_atomic Helpers.ba_env h)

let test_database_deadlock_and_abort () =
  let db = Database.create [ make_ba Recovery.UIP ] in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1));
  ignore (Database.invoke db b ~obj:"BA" (deposit_inv 1));
  (* both now request withdrawals: each blocks on the other's deposit *)
  (match Database.invoke db a ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (match Database.invoke db b ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (match Database.deadlock db with
  | Some cycle -> Helpers.check_int "2-cycle" 2 (List.length cycle)
  | None -> Alcotest.fail "expected deadlock");
  Database.abort db b;
  Helpers.check_int "aborted" 1 (Database.aborted_count db);
  Alcotest.(check (option Helpers.tids)) "cycle broken" None (Database.deadlock db);
  match Database.invoke db a ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Executed _ -> Database.commit db a
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_database_multi_object_commit () =
  let ba0 = Spec.rename BA.spec "BA0" and ba1 = Spec.rename BA.spec "BA1" in
  let mk spec =
    Atomic_object.create ~spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ()
  in
  let db = Helpers.traced (Database.create [ mk ba0; mk ba1 ]) in
  let a = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA0" (deposit_inv 5));
  ignore (Database.invoke db a ~obj:"BA1" (deposit_inv 7));
  Database.commit db a;
  let h = Helpers.recorded_history db in
  (* commit events at both objects (atomic commitment) *)
  let commits = List.filter Event.is_commit (History.events h) in
  Helpers.check_int "two commit events" 2 (List.length commits);
  let env = Atomicity.env_of_list [ ba0; ba1 ] in
  Helpers.check_bool "atomic" true (Atomicity.is_dynamic_atomic env h)

let test_finished_txn_rejected () =
  let db = Database.create [ make_ba Recovery.UIP ] in
  let a = Database.begin_txn db in
  Database.commit db a;
  Alcotest.check_raises "invoke after commit"
    (Invalid_argument "Database: transaction A already finished") (fun () ->
      ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1)))

(* [Tid.of_int] refuses a negative id, so the tests of the code that
   still guards against one ([Database.adopt_txn], [Tid_bits]) forge
   it. *)
let forged_tid n : Tid.t = Obj.magic n

(* The transaction table against the one it replaced: a model that keeps
   every tid's [Running | Committed | Aborted], as [Database] did before
   it kept only running transactions.  After every step of a random
   sequence of begins, adoptions, invocations, commits (also through
   [try_commit]) and aborts, the
   database accepts exactly what the model accepts, and rejects the rest
   with the model's message.  Adopted tids include out-of-order ones,
   running and finished ones, [max_int], and negative ones. *)
type model_status = Running | Committed | Aborted

let prop_txn_table_matches_model =
  let open QCheck2.Gen in
  (* Which tid a step names, resolved against the model when it runs. *)
  let pick =
    frequency
      [
        (6, map (fun k -> `Known k) nat);
        (2, map (fun k -> `Ahead k) (int_range 0 3));
        (1, map (fun k -> `Behind k) (int_range 1 6));
        (1, pure `Max);
      ]
  in
  let step =
    frequency
      [
        (3, pure `Begin);
        (2, map (fun p -> `Adopt p) pick);
        (1, map (fun n -> `Adopt_negative n) (int_range 1 3));
        (4, map3 (fun p d n -> `Invoke (p, d, n)) pick bool (int_range 1 3));
        (2, map (fun p -> `Commit p) pick);
        (2, map (fun p -> `Abort p) pick);
        (1, map (fun p -> `Try_commit p) pick);
      ]
  in
  Helpers.qcheck ~count:300 "transaction table = every-tid status model"
    (list_size (int_range 1 60) step)
    (fun steps ->
      let db = Database.create [ make_ba Recovery.UIP ] in
      let status = Hashtbl.create 16 and known = ref [||] and next = ref 0 in
      let resolve = function
        | `Known k ->
            let len = Array.length !known in
            if len = 0 then !next else !known.(k mod len)
        | `Ahead k -> !next + k
        | `Behind k -> max 0 (!next - k)
        | `Max -> max_int
      in
      let register n =
        Hashtbl.replace status n Running;
        known := Array.append !known [| n |]
      in
      (* What the old table said of a call naming [n] that needs it
         running. *)
      let expect_running n =
        match Hashtbl.find_opt status n with
        | Some Running -> Ok ()
        | Some (Committed | Aborted) ->
            Error (Fmt.str "Database: transaction %a already finished" Tid.pp (Tid.of_int n))
        | None -> Error (Fmt.str "Database: unknown transaction %a" Tid.pp (Tid.of_int n))
      in
      let outcome f = match f () with () -> Ok () | exception Invalid_argument m -> Error m in
      let finish n s f =
        let e = expect_running n in
        let got = outcome (fun () -> f db (Tid.of_int n)) in
        if Result.is_ok e then Hashtbl.replace status n s;
        got = e
      in
      List.for_all
        (function
          | `Begin ->
              let n = Tid.to_int (Database.begin_txn db) in
              let ok = n = !next in
              next := !next + 1;
              register n;
              ok
          | `Adopt p ->
              let n = resolve p in
              let e =
                if Hashtbl.mem status n then
                  Error (Fmt.str "Database.adopt_txn: %a already known" Tid.pp (Tid.of_int n))
                else Ok ()
              in
              let got = outcome (fun () -> Database.adopt_txn db (Tid.of_int n)) in
              if Result.is_ok e then begin
                next := max !next (n + 1);
                register n
              end;
              got = e
          | `Adopt_negative k ->
              outcome (fun () -> Database.adopt_txn db (forged_tid (-k)))
              = Error "Database.adopt_txn: negative tid"
          | `Invoke (p, deposit, amount) ->
              let n = resolve p in
              let inv = if deposit then deposit_inv amount else withdraw_inv amount in
              expect_running n
              = outcome (fun () -> ignore (Database.invoke db (Tid.of_int n) ~obj:"BA" inv))
          | `Commit p -> finish (resolve p) Committed Database.commit
          | `Abort p -> finish (resolve p) Aborted Database.abort
          | `Try_commit p ->
              (* Locking objects always validate. *)
              finish (resolve p) Committed (fun db tid -> ignore (Database.try_commit db tid)))
        steps
      &&
      let count s = Hashtbl.fold (fun _ s' c -> if s' = s then c + 1 else c) status 0 in
      Database.committed_count db = count Committed
      && Database.aborted_count db = count Aborted
      && Database.next_tid db = !next)

(* --- The finished-tid set --- *)

let tid_set_words s = Obj.reachable_words (Obj.repr s)

let add_range s lo hi =
  for i = lo to hi - 1 do
    Tid_bits.add s (Tid.of_int i)
  done

let all_mem s lo hi = List.for_all (fun i -> Tid_bits.mem s (Tid.of_int i)) (List.init (hi - lo) (( + ) lo))

let none_mem s lo hi =
  List.for_all (fun i -> not (Tid_bits.mem s (Tid.of_int i))) (List.init (hi - lo) (( + ) lo))

(* The window starts at 8 bytes and doubles: 8,192 dense tids fill 1,024
   bytes exactly, and the next tid doubles them to 2,048 (128 more
   words on a 64-bit host). *)
let test_tid_set_window_doubles () =
  let s = Tid_bits.create () in
  let fresh = tid_set_words s in
  add_range s 0 8192;
  Helpers.check_bool "0..8191 members" true (all_mem s 0 8192);
  Helpers.check_bool "8192.. not members" true (none_mem s 8192 8300);
  Helpers.check_int "1,024 bytes of window" (fresh + ((1024 - 8) / 8)) (tid_set_words s);
  let before = tid_set_words s in
  Tid_bits.add s (Tid.of_int 8192);
  Helpers.check_int "doubled to 2,048 bytes" (before + 128) (tid_set_words s);
  Helpers.check_bool "8192 member" true (Tid_bits.mem s (Tid.of_int 8192))

(* An outlier ([max_int]) and a negative tid go to the table: neither
   sizes the window, and the window keeps growing over the dense run. *)
let test_tid_set_outliers_in_table () =
  let s = Tid_bits.create () in
  add_range s 0 1000;
  let before = tid_set_words s in
  Tid_bits.add s (Tid.of_int max_int);
  Tid_bits.add s (forged_tid (-5));
  Helpers.check_bool "max_int member" true (Tid_bits.mem s (Tid.of_int max_int));
  Helpers.check_bool "-5 member" true (Tid_bits.mem s (forged_tid (-5)));
  Helpers.check_bool "-6 and max_int - 1 not members" true
    ((not (Tid_bits.mem s (forged_tid (-6)))) && not (Tid_bits.mem s (Tid.of_int (max_int - 1))));
  let grown = tid_set_words s - before in
  Helpers.check_bool (Fmt.str "two table entries cost %d words (at most 16)" grown) true (grown <= 16);
  add_range s 1000 2000;
  Helpers.check_bool "0..1999 members" true (all_mem s 0 2000);
  let fresh = tid_set_words (Tid_bits.create ()) in
  let total = tid_set_words s - fresh in
  Helpers.check_bool
    (Fmt.str "2,002 tids cost %d words (at most 2 bytes each, plus the table)" total)
    true
    (total <= (2 * 2002 / 8) + 16)

(* A set of every 12th or every 16th tid (the tids one shard of 12 or
   16 sees finish) stays in the window, at most 2 bytes per member plus
   the 32-byte floor: 1,024 bytes for each.  A bound that allowed only
   the first doubling at or above [16 + added] bytes sent both into the
   table: 1,255 and 2,031 words. *)
let test_tid_set_sparse_in_window () =
  List.iter
    (fun stride ->
      let s = Tid_bits.create () in
      let fresh = tid_set_words s in
      let members = ref 0 in
      for i = 0 to 7999 do
        if i mod stride = 0 then begin
          Tid_bits.add s (Tid.of_int i);
          incr members
        end
      done;
      Helpers.check_bool
        (Fmt.str "every %dth tid a member, no other" stride)
        true
        (List.for_all
           (fun i -> Tid_bits.mem s (Tid.of_int i) = (i mod stride = 0))
           (List.init 8000 Fun.id));
      let total = tid_set_words s - fresh and limit = ((2 * !members) + 32) / 8 in
      if total > limit then
        Alcotest.failf "every %dth tid of 0..7999: %d members cost %d words (at most %d)" stride
          !members total limit)
    [ 12; 16 ]

(* [clear] empties both the window and the table, and the window starts
   again at the next tid added. *)
let test_tid_set_clear () =
  let s = Tid_bits.create () in
  add_range s 0 1000;
  Tid_bits.add s (Tid.of_int max_int);
  let kept = tid_set_words s in
  Tid_bits.clear s;
  Helpers.check_bool "nothing left" true
    (none_mem s 0 1000 && not (Tid_bits.mem s (Tid.of_int max_int)));
  add_range s 5000 5100;
  Helpers.check_bool "5000..5099 members" true (all_mem s 5000 5100);
  Helpers.check_bool "0..999 still gone" true (none_mem s 0 1000);
  Helpers.check_bool "the window is reused, the table emptied" true (tid_set_words s < kept)

(* The set against a hash table of its members over random adds and
   clears, with dense runs, gaps, outliers and negative tids. *)
let prop_tid_set_matches_table =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (6, map (fun n -> `Add n) (int_range 0 300));
        (2, map (fun n -> `Add (100_000 + n)) (int_range 0 300));
        (1, map (fun n -> `Add (max_int - n)) (int_range 0 3));
        (1, map (fun n -> `Add (-n)) (int_range 1 3));
        (1, map (fun n -> `Run n) (int_range 0 200_000));
        (1, pure `Clear);
      ]
  in
  Helpers.qcheck ~count:200 "tid set = table of members" (list_size (int_range 1 80) op)
    (fun ops ->
      let s = Tid_bits.create () and model = Hashtbl.create 64 in
      let add n =
        Tid_bits.add s (forged_tid n);
        Hashtbl.replace model n ()
      in
      List.iter
        (function
          | `Add n -> add n
          | `Run n ->
              for i = n to n + 99 do
                add i
              done
          | `Clear ->
              Tid_bits.clear s;
              Hashtbl.reset model)
        ops;
      let agrees n = Hashtbl.mem model n = Tid_bits.mem s (forged_tid n) in
      Hashtbl.fold (fun n () ok -> ok && agrees n && agrees (n - 1) && agrees (n + 8)) model true
      && List.for_all agrees [ 0; -1; max_int ])

(* --- The running-transaction table --- *)

(* The tid table against a hash table over random replace, remove, find
   and mem.  Each case draws its keys from a pool of its own: 8 keys
   keep the table at its 16 first slots, at most half full, where
   probes collide and clusters run past the last slot to the first, so
   a removal shifts entries back across the end; 40 keys make it
   double.  After every step every key of the pool, bound or not,
   answers [find] and [mem] as the model does.  [wrapped] counts the
   steps after which a cluster ran past the last slot. *)
let prop_tid_table_matches_model =
  let wrapped = ref 0 in
  let open QCheck2.Gen in
  let key =
    frequency
      [
        (6, int_range 0 63); (1, map (fun k -> max_int - k) (int_range 0 3));
        (1, int_range 0 1_000_000_000);
      ]
  in
  let case =
    bind (oneofl [ 8; 40 ]) (fun n ->
        pair (array_size (pure n) key)
          (list_size (int_range 1 200) (pair (int_bound 3) (int_bound (n - 1)))))
  in
  Helpers.qcheck ~count:300 "tid table = hash table model" case
    ~after:(fun () -> Helpers.check_bool "a cluster ran past the last slot" true (!wrapped > 0))
    (fun (pool, steps) ->
      let t = Tid_table.create ~dummy:(-1) and model = Hashtbl.create 16 in
      let agrees k =
        let tid = Tid.of_int k in
        Tid_table.mem t tid = Hashtbl.mem model k
        &&
        match Tid_table.find t tid with
        | v -> Hashtbl.find_opt model k = Some v
        | exception Not_found -> not (Hashtbl.mem model k)
      in
      List.for_all
        (fun (op, i) ->
          let k = pool.(i) in
          (match op with
          | 0 | 1 ->
              Tid_table.replace t (Tid.of_int k) (k + op);
              Hashtbl.replace model k (k + op)
          | 2 ->
              Tid_table.remove t (Tid.of_int k);
              Hashtbl.remove model k
          | _ -> ());
          if Tid_table.wraps t then incr wrapped;
          Array.for_all agrees pool)
        steps)

(* --- Bounded state --- *)

(* What a finished transaction leaves in a [Database]: its bit in the
   finished-tid set.  [n] begin → deposit → abort cycles keep the
   committed log empty, so only the transaction tables can grow between
   10³ and 10⁴ cycles; the pin allows the finished set's bit per tid
   (9,000 bits ≤ 2,000 words, with room for the window's doubling).
   Now each database grows 240 words; a status-table entry per finished
   tid grew one account's database 43,680 words, and each shard's
   21,840. *)
let bounded_state_pin what words =
  let small = words 1_000 and large = words 10_000 in
  List.iter2
    (fun s l ->
      Helpers.check_bool
        (Fmt.str "%s: %d → %d reachable words (at most +2000)" what s l)
        true
        (l - s <= 2_000))
    small large

let test_database_bounded_state () =
  bounded_state_pin "one account" (fun n ->
      let db = Database.create [ make_ba Recovery.UIP ] in
      for _ = 1 to n do
        let a = Database.begin_txn db in
        ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1));
        Database.abort db a
      done;
      [ Obj.reachable_words (Obj.repr db) ])

(* The same through the shard databases of a 4-shard engine, every
   transaction touching two shards, so each shard's database adopts the
   global tids it sees. *)
let test_shard_databases_bounded_state () =
  let module SD = Tm_engine.Sharded_database in
  let module Shard = Tm_engine.Shard in
  let shards = 4 in
  let names = List.init 64 (fun i -> Fmt.str "BA%d" i) in
  bounded_state_pin "shard database" (fun n ->
      let sd =
        SD.create
          ~wals:(Array.init shards (fun _ -> Tm_engine.Wal.create ()))
          (List.map
             (fun name ->
               Atomic_object.create ~spec:(Spec.rename BA.spec name) ~conflict:BA.nrbc_conflict
                 ~recovery:Recovery.UIP ())
             names)
      in
      (* One account on each shard. *)
      let home = Array.init shards (fun s -> List.find (fun o -> SD.shard_of_object sd o = s) names) in
      for i = 1 to n do
        let a = SD.begin_txn sd in
        ignore (SD.invoke sd a ~obj:home.(i mod shards) (deposit_inv 1));
        ignore (SD.invoke sd a ~obj:home.((i + 1) mod shards) (deposit_inv 1));
        SD.abort sd a
      done;
      Array.to_list (Array.map (fun sh -> Obj.reachable_words (Obj.repr (Shard.database sh))) (SD.shards sd)))

(* What an object costs: a fresh locking account is its lock table and
   its recovery manager, with no functor instance, no closure and no
   per-transaction table of its own, and no validation tables.  The
   marginal reachable words over 101 vs 1 objects cancel out what the
   objects share (the type's module and generators, the conflict
   relation): 40 words under UIP and 37 under DU, the lock table held
   in the [Locking] mode, and a field for its database's operation
   table, which a fresh object leaves at the shared detached one (39 and
   36 without that field, 38 and 35 when every object, optimistic and
   escrow ones too, kept a lock table in a field of its own).  An
   object that kept its own conflict field and block count, beside a
   lock table with a hold counter, cost 41 and 38, and a manager that
   was a record of closures with its own hash table, beside a renamed
   spec that copied the generators, 239 and 210.  The limits are the
   38 and 35 plus 10%. *)
let account kind i =
  let inverse = match kind with Recovery.UIP -> Some BA.inverse | Recovery.DU -> None in
  Atomic_object.create ?inverse
    ~spec:(Spec.rename BA.spec (Fmt.str "BA%d" i))
    ~conflict:BA.nrbc_conflict ~recovery:kind ()

let test_fresh_object_footprint () =
  List.iter
    (fun (kind, limit) ->
      let words n = Obj.reachable_words (Obj.repr (List.init n (account kind))) in
      let per_object = (words 101 - words 1) / 100 in
      if per_object > limit then
        Alcotest.failf "%a: a fresh account costs %d words (at most %d)" Recovery.pp_kind kind
          per_object limit)
    [ (Recovery.UIP, 41); (Recovery.DU, 38) ]

(* A fresh optimistic account is its recovery manager, its conflict
   relation, its table of start positions and its field for a
   database's operation table, with no lock table: 54 words (53 before
   that field, 59 when every object kept a lock table).  The limit is
   the 53 plus 10%. *)
let test_optimistic_object_footprint () =
  let words n =
    Obj.reachable_words
      (Obj.repr
         (List.init n (fun i ->
              Atomic_object.create_optimistic
                ~spec:(Spec.rename BA.spec (Fmt.str "BA%d" i))
                ~conflict:BA.nfc_conflict)))
  in
  let per_object = (words 101 - words 1) / 100 in
  if per_object > 58 then
    Alcotest.failf "a fresh optimistic account costs %d words (at most 58)" per_object

(* Every account opened at one balance shares one funded spec, so a
   funded account costs what an unfunded one does (a funded spec built
   per account added its own first-class module: 46 words against 38
   under DU). *)
let test_funded_account_footprint () =
  let per_object spec_of =
    let words n =
      Obj.reachable_words
        (Obj.repr
           (List.init n (fun i ->
                Atomic_object.create
                  ~spec:(Spec.rename (spec_of ()) (Fmt.str "BA%d" i))
                  ~conflict:BA.nrbc_conflict ~recovery:Recovery.DU ())))
    in
    (words 101 - words 1) / 100
  in
  Helpers.check_int "a funded account costs what an unfunded one does"
    (per_object (fun () -> BA.spec))
    (per_object (fun () -> BA.spec_with_initial 100))

(* What an attached object costs: an account in a [Database], after one
   committed deposit, is the fresh account plus its share of the
   database (registry series, a finished tid's bit), the handle it
   resolved, its field for the database's operation table and its
   one-operation committed log (a 2-word block); its deposit is in the
   table too, shared with the log: 88 words under UIP and 85 under DU
   (87 and 84 before the table field, 86 and 83 with the lock table a
   field of every object, 89 and 86 with the object's own
   conflict field and block count and a hold counter, 90 and 87 when
   the log was a list cell besides, 284 and 255 with the closure-record
   manager), limits +10% of the list-cell figures. *)
let test_attached_object_footprint () =
  List.iter
    (fun (kind, limit) ->
      let words n =
        let db = Database.create (List.init n (account kind)) in
        for i = 0 to n - 1 do
          let a = Database.begin_txn db in
          ignore (Database.invoke db a ~obj:(Fmt.str "BA%d" i) (deposit_inv 1));
          Database.commit db a
        done;
        Obj.reachable_words (Obj.repr db)
      in
      let per_object = (words 101 - words 1) / 100 in
      if per_object > limit then
        Alcotest.failf "%a: an attached account costs %d words (at most %d)" Recovery.pp_kind
          kind per_object limit)
    [ (Recovery.UIP, 99); (Recovery.DU, 95) ]

(* Validation is the same loop on both commit paths: a durable optimistic
   transaction that fails validation at two objects gets the same
   [(obj, mine, theirs)] as through [Database.try_commit] — the first
   failing object in first-touch order, not in registration order — and
   logs its Abort. *)
let test_durable_validation_matches () =
  let module Shard = Tm_engine.Shard in
  let module Wal = Tm_engine.Wal in
  let fresh () =
    List.map
      (fun name ->
        Atomic_object.create_optimistic ~spec:(Spec.rename BA.spec name)
          ~conflict:BA.nfc_conflict)
      [ "BA0"; "BA1" ]
  in
  (* [a] reads both accounts empty, touching BA1 first; [b] then deposits
     into both and commits, so [a]'s refused withdrawals are stale. *)
  let run ~begin_txn ~invoke ~try_commit =
    let a = begin_txn () and b = begin_txn () in
    List.iter (fun obj -> ignore (invoke a obj (withdraw_inv 1))) [ "BA1"; "BA0" ];
    List.iter (fun obj -> ignore (invoke b obj (deposit_inv 1))) [ "BA0"; "BA1" ];
    (match try_commit b with Ok () -> () | Error _ -> Alcotest.fail "b must commit");
    (a, try_commit a)
  in
  let db = Database.create (fresh ()) in
  let _, plain =
    run
      ~begin_txn:(fun () -> Database.begin_txn db)
      ~invoke:(fun tid obj inv -> Database.invoke db tid ~obj inv)
      ~try_commit:(Database.try_commit db)
  in
  let wal = Wal.create () in
  let dd = Shard.create ~wal (fresh ()) in
  let a, durable =
    run
      ~begin_txn:(fun () -> Shard.begin_txn dd)
      ~invoke:(fun tid obj inv -> Shard.invoke dd tid ~obj inv)
      ~try_commit:(Shard.try_commit dd)
  in
  let verdict = Alcotest.(result unit (triple string Helpers.op Helpers.op)) in
  let on obj (op : Op.t) = { op with obj } in
  Alcotest.check verdict "plain verdict"
    (Error ("BA1", on "BA1" (BA.withdraw_no 1), on "BA1" (dep 1)))
    plain;
  Alcotest.check verdict "durable verdict = plain verdict" plain durable;
  Helpers.check_bool "the Abort is logged last" true
    (match List.rev (Wal.records wal) with
    | Wal.Abort t :: _ -> Tid.equal t a
    | _ -> false)

(* Property: random single-object engine runs (UIP and DU) always record
   dynamic-atomic histories and pass the commit-order replay check. *)
let random_engine_run recovery seed =
  let conflict =
    match recovery with Recovery.UIP -> BA.nrbc_conflict | Recovery.DU -> BA.nfc_conflict
  in
  let o = Atomic_object.create ~spec:BA.spec ~conflict ~recovery () in
  let db = Helpers.traced (Database.create [ o ]) in
  let rng = Random.State.make [| seed |] in
  let active = ref [] in
  for _ = 1 to 40 do
    (* admit up to 4 transactions *)
    if List.length !active < 4 then active := Database.begin_txn db :: !active;
    match !active with
    | [] -> ()
    | ts ->
        let t = List.nth ts (Random.State.int rng (List.length ts)) in
        let choice = Random.State.int rng 10 in
        if choice < 6 then begin
          let inv =
            match Random.State.int rng 3 with
            | 0 -> deposit_inv (1 + Random.State.int rng 2)
            | 1 -> withdraw_inv (1 + Random.State.int rng 2)
            | _ -> balance_inv
          in
          ignore (Database.invoke db t ~obj:"BA" inv);
          match Database.deadlock db with
          | Some cycle ->
              let v = Tm_engine.Deadlock.victim cycle in
              Database.abort db v;
              active := List.filter (fun x -> not (Tid.equal x v)) !active
          | None -> ()
        end
        else if choice < 9 then begin
          Database.commit db t;
          active := List.filter (fun x -> not (Tid.equal x t)) !active
        end
        else begin
          Database.abort db t;
          active := List.filter (fun x -> not (Tid.equal x t)) !active
        end
  done;
  db

let prop_engine_histories_dynamic_atomic =
  Alcotest.test_case "random engine runs are dynamic atomic" `Slow (fun () ->
      List.iter
        (fun recovery ->
          for seed = 1 to 25 do
            let db = random_engine_run recovery seed in
            let h = Helpers.recorded_history db in
            Helpers.check_bool "well-formed" true (History.is_well_formed h);
            Helpers.check_bool "dynamic atomic" true
              (Atomicity.is_dynamic_atomic Helpers.ba_env h);
            Helpers.check_bool "commit-order replay" true
              (List.for_all
                 (fun o -> Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))
                 (Database.objects db))
          done)
        [ Recovery.UIP; Recovery.DU ])

(* ------------------------------------------------------------------ *)
(* The contention path: resolved handles, the deadlock search, and what
   a contended invocation allocates.                                   *)

module Metrics = Tm_obs.Metrics
module FQ = Tm_adt.Fifo_queue

(* A seeded, contended run over two accounts (one undoing by inverse,
   one by replay) and a FIFO queue, plus an optimistic account under
   DU+NFC: four clients block, wait, deadlock, are chosen as victims,
   stall on an empty queue, fail validation, abort and commit. *)
let contended_registry recovery =
  let ba, fq =
    match recovery with
    | Recovery.UIP -> (BA.nrbc_conflict, FQ.nrbc_conflict)
    | Recovery.DU -> (BA.nfc_conflict, FQ.nfc_conflict)
  in
  let objs =
    [
      Atomic_object.create ~inverse:BA.inverse ~spec:(Spec.rename BA.spec "BA0")
        ~conflict:ba ~recovery ();
      Atomic_object.create ~spec:(Spec.rename BA.spec "BA1") ~conflict:ba ~recovery ();
      Atomic_object.create ~spec:FQ.spec ~conflict:fq ~recovery ();
    ]
    @
    match recovery with
    | Recovery.DU ->
        [ Atomic_object.create_optimistic ~spec:(Spec.rename BA.spec "OPT") ~conflict:ba ]
    | Recovery.UIP -> []
  in
  let names = List.map Atomic_object.name objs in
  let db = Database.create objs in
  let rng = Random.State.make [| 19 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let active = ref [] and victims = ref 0 in
  let drop t = active := List.filter (fun x -> not (Tid.equal x t)) !active in
  for _ = 1 to 400 do
    if List.length !active < 4 then active := Database.begin_txn db :: !active;
    let t = pick !active in
    match Random.State.int rng 10 with
    | c when c < 7 ->
        let obj = pick names in
        let inv =
          if obj = "FQ" then
            if Random.State.bool rng then Op.invocation "deq"
            else Op.invocation ~args:[ Value.int (Random.State.int rng 3) ] "enq"
          else
            match Random.State.int rng 3 with
            | 0 -> deposit_inv (1 + Random.State.int rng 2)
            | 1 -> withdraw_inv (1 + Random.State.int rng 2)
            | _ -> balance_inv
        in
        ignore (Database.invoke db t ~obj inv);
        Option.iter
          (fun cycle ->
            let v = Deadlock.victim cycle in
            Database.abort db v;
            incr victims;
            drop v)
          (Database.deadlock db)
    | c when c < 9 ->
        ignore (Database.try_commit db t);
        drop t
    | _ ->
        Database.abort db t;
        drop t
  done;
  List.iter (Database.abort db) !active;
  (Database.metrics db, !victims)

let contains haystack needle =
  let n = String.length needle in
  let rec at i = i + n <= String.length haystack && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let pp_series ppf (name, labels) =
  Fmt.pf ppf "%s{%a}" name
    Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") string string))
    labels

let contended_snapshot () =
  String.concat ""
    (List.map
       (fun (setup, recovery) ->
         let reg, victims = contended_registry recovery in
         let series =
           List.rev (Metrics.fold reg (fun acc name labels _ -> (name, labels) :: acc) [])
         in
         Fmt.str "# %s deadlock victims %d@.# %s series@.%a@.# %s prometheus@.%s"
           setup victims setup
           Fmt.(list ~sep:(any "@.") pp_series)
           series setup (Metrics.to_prometheus reg))
       [ ("UIP+NRBC", Recovery.UIP); ("DU+NFC", Recovery.DU) ])

(* Keeping handles must not change which series are registered or what
   they count: the snapshot equals the one taken when every event
   searched the registry.  Regenerate only for an intended change:
   delete the file and run the test, which writes it to the build
   sandbox (_build/default/test/golden/). *)
let test_contended_metrics_golden () =
  let path = Filename.concat "golden" "contended_metrics.txt" in
  let actual = contended_snapshot () in
  if not (Sys.file_exists path) then begin
    (try
       let oc = open_out_bin path in
       output_string oc actual;
       close_out oc
     with Sys_error _ -> ());
    Alcotest.failf "missing %s (written to the build sandbox)" path
  end;
  let expected = In_channel.with_open_bin path In_channel.input_all in
  let lines s = String.split_on_char '\n' s in
  let rec first_diff i = function
    | e :: es, a :: as_ -> if String.equal e a then first_diff (i + 1) (es, as_) else Some (i, e, a)
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<end>")
    | [], a :: _ -> Some (i, "<end>", a)
  in
  Helpers.check_bool "the run blocks, waits, stalls, fails validation and undoes" true
    (List.for_all (contains actual)
       [
         "tm_object_blocked_total"; "tm_lock_wait_ticks"; "tm_object_no_response_total";
         "tm_validation_failures_total"; "mode=\"inverse\""; "mode=\"replay\"";
         "tm_recovery_discarded_ops_total";
       ]);
  Helpers.check_bool "both setups have deadlock victims" false
    (contains actual "deadlock victims 0\n");
  match first_diff 1 (lines expected, lines actual) with
  | None -> ()
  | Some (i, e, a) -> Alcotest.failf "line %d: expected %S, got %S" i e a

(* One object, attached to registry [a], then to [b]: each registry
   counts only the round run while it was attached, re-attaching to the
   same registry changes nothing, and an object with no registry counts
   nothing at all. *)
let test_reattach_resets_handles () =
  let o =
    Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ()
  in
  let next = ref 0 in
  let fresh () =
    incr next;
    Tid.of_int !next
  in
  (* A conflict, a block, a commit and an abort by inverse. *)
  let round () =
    let a = fresh () and b = fresh () in
    (match Atomic_object.invoke o a (deposit_inv 1) with
    | Atomic_object.Executed _ -> ()
    | _ -> Alcotest.fail "deposit must execute");
    (match Atomic_object.invoke o b (withdraw_inv 1) with
    | Atomic_object.Blocked [ h ] when Tid.equal h a -> ()
    | _ -> Alcotest.fail "withdraw must block on the deposit");
    Atomic_object.commit o a;
    (match Atomic_object.invoke o b (withdraw_inv 1) with
    | Atomic_object.Executed _ -> ()
    | _ -> Alcotest.fail "withdraw must execute once the deposit commits");
    Atomic_object.abort o b
  in
  let counts reg =
    List.map
      (fun (name, labels) -> Metrics.counter_value reg name ~labels)
      [
        ("tm_lock_conflicts_total", [ ("obj", "BA"); ("requested", "withdraw"); ("held", "deposit") ]);
        ("tm_object_blocked_total", [ ("obj", "BA"); ("op", "withdraw") ]);
        ("tm_recovery_committed_ops_total", [ ("obj", "BA") ]);
        ("tm_recovery_undone_ops_total", [ ("obj", "BA"); ("mode", "inverse") ]);
      ]
  in
  let series reg = Metrics.fold reg (fun n _ _ _ -> n + 1) 0 in
  let check what expected reg = Alcotest.(check (list int)) what expected (counts reg) in
  round ();
  let a = Metrics.create () and b = Metrics.create () in
  Atomic_object.attach_metrics o a;
  round ();
  Atomic_object.attach_metrics o b;
  round ();
  check "a counts only the round it saw" [ 1; 1; 1; 1 ] a;
  check "b counts only the round it saw" [ 1; 1; 1; 1 ] b;
  Atomic_object.attach_metrics o b;
  round ();
  check "re-attaching to b is idempotent" [ 2; 2; 2; 2 ] b;
  check "a is left alone" [ 1; 1; 1; 1 ] a;
  Helpers.check_int "a has four series" 4 (series a);
  Helpers.check_int "b has four series" 4 (series b);
  (* The same promise on the lock table alone. *)
  let t = Lock_table.create BA.nrbc_conflict in
  let c = Metrics.create () in
  Lock_table.add t Tid.a (dep 1);
  ignore (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.b);
  Helpers.check_int "an unattached table registers nothing" 0 (series c);
  Lock_table.attach_metrics t ~obj:"T" c;
  ignore (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.b);
  Lock_table.attach_metrics t ~obj:"T" c;
  ignore (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.b);
  Helpers.check_int "the table counts both attached conflicts" 2
    (Metrics.counter_value c "tm_lock_conflicts_total"
       ~labels:[ ("obj", "T"); ("requested", "withdraw"); ("held", "deposit") ])

(* A committing object's recovery counts live in its own record, which
   enrolls in the registry on the first commit for one slot.  Two
   databases of 10^4 fresh DU accounts take one deposit at each account:
   in [pre], every account's committed series is registered beforehand
   (a commit of a transaction that did nothing there counts 0), in
   [fresh] the deposit registers it.  Between
   the 10^3rd and the 10^4th account, [fresh] may grow by at most 2 words
   per account more than [pre] (1.23 today); registering a keyed series
   costs about 20.  The registry reads as if each series were keyed: the
   same series, values and Prometheus text. *)
let test_first_commit_registers_nothing () =
  let n = 10_000 and first = 1_000 in
  let names = Array.init n (fun i -> "acct" ^ string_of_int i) in
  let make () =
    Database.create
      (Array.to_list
         (Array.map
            (fun name ->
              Atomic_object.create ~spec:(Spec.rename BA.spec name) ~conflict:BA.nfc_conflict
                ~recovery:Recovery.DU ())
            names))
  in
  let deposit db i =
    let tid = Database.begin_txn db in
    (match Database.invoke db tid ~obj:names.(i) (deposit_inv 1) with
    | Atomic_object.Executed _ -> ()
    | _ -> Alcotest.fail "a deposit at a fresh account must execute");
    Database.commit db tid
  in
  (* Words the database reaches, registry included, as accounts
     [from .. upto - 1] take their deposit. *)
  let growth db ~from ~upto =
    let before = Obj.reachable_words (Obj.repr db) in
    for i = from to upto - 1 do
      deposit db i
    done;
    Obj.reachable_words (Obj.repr db) - before
  in
  let pre = make () and fresh = make () in
  List.iteri
    (fun i o -> Atomic_object.commit o (Tid.of_int (1_000_000 + i)))
    (Database.objects pre);
  ignore (growth pre ~from:0 ~upto:first);
  ignore (growth fresh ~from:0 ~upto:first);
  let registered = growth pre ~from:first ~upto:n
  and registering = growth fresh ~from:first ~upto:n in
  let per_object = float_of_int (registering - registered) /. float_of_int (n - first) in
  if per_object > 2. then
    Alcotest.failf "a first commit grew the registry by %.2f words per object (max 2)" per_object;
  let reg = Database.metrics fresh in
  let series reg =
    List.rev
      (Metrics.fold reg
         (fun acc name labels m ->
           match m with
           | Metrics.Counter c -> (name, labels, Metrics.Counter.get c) :: acc
           | Metrics.Gauge _ | Metrics.Histogram _ -> Alcotest.failf "%s: not a counter" name)
         [])
  in
  (* The old way: every other series as the database registered it,
     and one keyed counter per account. *)
  let name = "tm_recovery_committed_ops_total" in
  let expected = Metrics.create () in
  List.iter
    (fun (n, labels, v) ->
      if n <> name then Metrics.Counter.add (Metrics.counter expected ~labels n) v)
    (series reg);
  Array.iter
    (fun obj -> Metrics.Counter.incr (Metrics.counter expected ~labels:[ ("obj", obj) ] name))
    names;
  let pp_series ppf (n, labels, v) = Fmt.pf ppf "%a %d" pp_series (n, labels) v in
  Alcotest.(check (list (of_pp pp_series)))
    "series and values" (series expected) (series reg);
  Alcotest.(check string) "prometheus text" (Metrics.to_prometheus expected)
    (Metrics.to_prometheus reg);
  Alcotest.(check string) "as with every series registered first"
    (Metrics.to_prometheus (Database.metrics pre)) (Metrics.to_prometheus reg);
  Helpers.check_int "one account's series" 1
    (Metrics.counter_value reg name ~labels:[ ("obj", names.(42)) ]);
  Helpers.check_int "the family's total" n (Metrics.counter_total reg name)

(* The deadlock search against the one it replaced: at every [Search]
   step of a random sequence of edge changes, one detector (whose
   scratch and marks survive from search to search) finds exactly the
   reference's cycle, or none, and finds it again when asked twice; a
   search after steps that all left the graph as it was returns the
   last search's answer.  Several waits and clears pile up between two
   searches, so a new cycle may close through any source set since the
   last one.  After every step the detector holds exactly the
   reference's edge list for every tid the steps draw and for a
   stranger. *)
let prop_deadlock_matches_reference =
  let step =
    QCheck2.Gen.(
      let tid = int_range 0 5 in
      frequency
        [
          (3, map2 (fun t on -> `Wait (t, on)) tid (list_size (int_range 0 3) tid));
          (1, map (fun t -> `Clear t) tid);
          (1, map2 (fun t k -> `Rewait (t, k)) tid (int_range 0 5));
          (1, pure `Clear_stranger);
          (2, pure `Search);
        ])
  in
  (* [l] rotated left by [k] and followed by its reverse: the same edge
     set, permuted and duplicated. *)
  let shuffled k l =
    let k = k mod List.length l in
    let rotated = List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l in
    rotated @ List.rev l
  in
  Helpers.qcheck ~count:300 "deadlock search = reference search"
    QCheck2.Gen.(list_size (int_range 1 40) step)
    (fun steps ->
      let d = Deadlock.create () and r = Deadlock_reference.create () in
      (* The last search's answer, and whether every step since it left
         the graph as it was. *)
      let last = ref None and idle = ref true in
      List.for_all
        (fun s ->
          let agrees =
            match s with
            | `Wait (t, on) ->
                let on = List.map Tid.of_int on in
                Deadlock.set_waiting d (Tid.of_int t) ~on ~at:0;
                Deadlock_reference.set_waiting r (Tid.of_int t) ~on;
                idle := false;
                true
            | `Clear t ->
                Deadlock.clear d (Tid.of_int t) ~at:0;
                Deadlock_reference.clear r (Tid.of_int t);
                idle := false;
                true
            | `Rewait (t, k) -> (
                (* Re-register a waiter's current edges, as a blocked
                   retry does; a transaction with none is left alone. *)
                match Deadlock.waiting d (Tid.of_int t) with
                | [] -> true
                | on ->
                    let on = shuffled k on in
                    Deadlock.set_waiting d (Tid.of_int t) ~on ~at:0;
                    Deadlock_reference.set_waiting r (Tid.of_int t) ~on;
                    true)
            | `Clear_stranger ->
                (* A transaction the graph has never mentioned. *)
                Deadlock.clear d (Tid.of_int 99) ~at:0;
                Deadlock_reference.clear r (Tid.of_int 99);
                true
            | `Search ->
                let mine = Deadlock.find_cycle d in
                let ok =
                  mine = Deadlock_reference.find_cycle r
                  && mine = Deadlock.find_cycle d
                  && ((not !idle) || mine = !last)
                in
                last := mine;
                idle := true;
                ok
          in
          agrees
          && List.for_all
               (fun t ->
                 Deadlock.waiting d (Tid.of_int t) = Deadlock_reference.waiting r (Tid.of_int t))
               [ 0; 1; 2; 3; 4; 5; 99 ])
        (steps @ [ `Search ]))

(* Allocation pins: [Gc.minor_words] counts words, so these hold on any
   host.  Each runs its call once first, so every handle it uses is
   resolved before the measured call. *)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Eight holders, each holding a deposit that blocks the withdrawal:
   the answer (eight cells, sorted) and the requested operation, 38
   words; the walk over the holders allocates nothing.  Walking a hash
   table of holders with [Hashtbl.fold] took 77, and searching the
   registry per conflicting pair, with a label list built and sorted
   each time, 780. *)
let test_blockers_allocation () =
  let t = Lock_table.create BA.nrbc_conflict in
  Lock_table.attach_metrics t ~obj:"BA" (Metrics.create ());
  for i = 1 to 8 do
    Lock_table.add t (Tid.of_int i) (dep i)
  done;
  let call () = Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.a in
  Helpers.check_int "eight blockers" 8 (List.length (call ()));
  let w = minor_words call in
  if w > 41. then Alcotest.failf "blockers against 8 holders allocated %.0f words (max 41)" w

(* The lock holders are a chain of 4-word entries: the first hold of a
   new holder costs its entry and its 3-word hold, 7 words (8 when a
   hold was stamped with a sequence number), and releasing the
   oldest of eight holders unlinks it in place, 0.  A holder record in
   a list cell took 10 and 21: the release copied the seven cells
   before it. *)
let test_lock_release_allocation () =
  let t = Lock_table.create BA.nrbc_conflict and op = dep 1 in
  let w = minor_words (fun () -> Lock_table.add t (Tid.of_int 1) op) in
  if w > 7. then Alcotest.failf "a new holder's first hold allocated %.0f words (max 7)" w;
  for i = 2 to 8 do
    Lock_table.add t (Tid.of_int i) (dep i)
  done;
  let w = minor_words (fun () -> Lock_table.release t (Tid.of_int 1)) in
  if w > 0. then Alcotest.failf "releasing the oldest of eight holders allocated %.0f words" w;
  Alcotest.check Helpers.tids "the other seven still block"
    (List.init 7 (fun i -> Tid.of_int (i + 2)))
    (Lock_table.blockers t ~requested:(wok 1) ~tid:Tid.a)

(* A transaction that blocks on the bank's depositors and aborts: what
   another client's turn does between two polls of a blocked one.  The
   waits-for graph changes, so the next search runs again; it changes
   at the bystander's own edges only, which it takes away. *)
let bystander db =
  let x = Database.begin_txn db in
  (match Database.invoke db x ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | _ -> Alcotest.fail "the bystander must block");
  Database.abort db x

(* A blocked invocation and the deadlock search after it, as the
   closed-loop clients run them, another client's turn having changed
   the graph in between: 15 words.  After a search that found no cycle,
   one that follows only lost edges walks no source and allocates
   nothing; a search that walked the whole graph by [Hashtbl.iter] each
   time read 19 here, its closure 4, against a limit of 28.  The limit
   keeps that headroom of 9 words.  On a graph left unchanged, before
   the bystander: 22 → 19 words when the one legal response was tested
   without a candidate list, and 15 when the operation it tests was
   found in the database's table.  A spec that answered with a list of
   (response, state) pairs took 28 there, a hash table of holders 53,
   and a registry search per event, a fresh search table, exception and
   per-node closures, and the trace kind built before looking for a
   recorder, 367. *)
let test_blocked_invoke_allocation () =
  let db =
    Database.create
      [ Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Recovery.UIP () ]
  in
  let a = Database.begin_txn db and b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1));
  let call () =
    match Database.invoke db b ~obj:"BA" (withdraw_inv 1) with
    | Atomic_object.Blocked _ -> Database.deadlock db
    | _ -> Alcotest.fail "withdraw must block"
  in
  Helpers.check_bool "no deadlock" true (call () = None);
  bystander db;
  let w = minor_words call in
  if w > 24. then
    Alcotest.failf "a blocked invoke and deadlock search allocated %.0f words (max 24)" w

(* The conflict test itself allocates nothing: the relation is applied
   at full arity and the closed forms of the bank and of the counter
   classify each operand into an immediate int.  A partial application
   and a boxed class per operand took 9 words a call; the counter's
   boxed class alone 4 → 0. *)
let test_conflict_allocation () =
  let module C = Tm_adt.Bounded_counter in
  List.iter
    (fun (rel, requested, held) ->
      let call () = Conflict.conflicts rel ~requested ~held in
      Helpers.check_bool (Conflict.name rel ^ " update/read conflict") true (call ());
      let w = minor_words call in
      if w > 0. then Alcotest.failf "%s: a conflict test allocated %.0f words" (Conflict.name rel) w)
    [
      (BA.nrbc_conflict, dep 1, BA.balance 0); (BA.nfc_conflict, dep 1, BA.balance 0);
      (C.nrbc_conflict, C.incr_ok 1, C.read 0); (C.nfc_conflict, C.incr_ok 1, C.read 0);
    ]

(* A blocked retry against two holders and the deadlock search after
   it, another client's turn having changed the graph in between: the
   answer and the one operation it tests, 21 words.  The retry
   re-registers the edges it had, so it marks no source, and the search
   walks none; a search that walked the whole graph by [Hashtbl.iter]
   each time read 25 here, against a limit of 34.  The limit keeps that
   headroom of 9 words.  On a graph left unchanged, before the
   bystander: 28 → 25 words when the one legal response was tested
   without a candidate list, and 21 when the operation was found in the
   database's table.  A spec that answered with a list of pairs took 34
   there, walking a hash table of holders 62, and sorting the holders
   three times and rerunning the search on the unchanged graph 217. *)
let test_blocked_retry_allocation () =
  let db =
    Database.create
      [ Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Recovery.UIP () ]
  in
  let a = Database.begin_txn db and b = Database.begin_txn db and c = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1));
  ignore (Database.invoke db b ~obj:"BA" (deposit_inv 2));
  let call () =
    match Database.invoke db c ~obj:"BA" (withdraw_inv 1) with
    | Atomic_object.Blocked holders -> (holders, Database.deadlock db)
    | _ -> Alcotest.fail "withdraw must block"
  in
  Alcotest.check Helpers.tids "blocked on both depositors" [ a; b ] (fst (call ()));
  bystander db;
  let w = minor_words call in
  if w > 30. then
    Alcotest.failf "a blocked retry against two holders and its deadlock search allocated \
                    %.0f words (max 30)" w

(* A search on a graph that has not changed since the last one reuses
   that answer, cycle or none, and allocates nothing. *)
let test_unchanged_search_allocation () =
  let d = Deadlock.create () and r = Deadlock_reference.create () in
  let wait t on =
    let on = List.map Tid.of_int on in
    Deadlock.set_waiting d (Tid.of_int t) ~on ~at:0;
    Deadlock_reference.set_waiting r (Tid.of_int t) ~on
  in
  let check what =
    let first = Deadlock.find_cycle d in
    Helpers.check_bool (what ^ ": the reference's answer") true
      (first = Deadlock_reference.find_cycle r);
    let w = minor_words (fun () -> Deadlock.find_cycle d) in
    if w > 0. then Alcotest.failf "%s: a repeated search allocated %.0f words" what w;
    first
  in
  wait 1 [ 2; 3 ];
  wait 2 [ 3 ];
  Helpers.check_bool "no cycle" true (check "no cycle" = None);
  wait 3 [ 1 ];
  Helpers.check_bool "a cycle" true (check "a cycle" <> None)

(* After a search that found no cycle, the next walks only from the
   sources whose edges were set or changed since: one that follows only
   lost edges walks none, and one that follows a new edge closing no
   cycle walks from that edge's source.  After a search that found a
   cycle, a walk from every source decides whether one is left.  None
   of the three allocates once the scratch is warm; a walk from every
   source by [Hashtbl.iter] took its 4-word closure each time. *)
let test_incremental_search_allocation () =
  let d = Deadlock.create () in
  let wait t on = Deadlock.set_waiting d (Tid.of_int t) ~on:(List.map Tid.of_int on) ~at:0 in
  let search what =
    let answer = ref (Some []) in
    let w = minor_words (fun () -> answer := Deadlock.find_cycle d) in
    Helpers.check_bool (what ^ ": no cycle") true (!answer = None);
    if w > 0. then Alcotest.failf "%s: the search allocated %.0f words" what w
  in
  (* A chain 1 → 2 → ... → 9. *)
  for i = 1 to 8 do
    wait i [ i + 1 ]
  done;
  Helpers.check_bool "no cycle in the chain" true (Deadlock.find_cycle d = None);
  Deadlock.clear d (Tid.of_int 5) ~at:0;
  search "after a clear";
  wait 4 [ 6 ];
  search "after an edge closing no cycle";
  wait 9 [ 1 ];
  Helpers.check_bool "9 → 1 closes a cycle" true (Deadlock.find_cycle d <> None);
  Deadlock.clear d (Tid.of_int 9) ~at:0;
  search "after the cycle broke"

(* A graph that is fed but never searched, as each shard's database's
   is under [Sharded_database], whose search unions the shards' edges
   into a graph of its own: 10⁴ rounds of a new waiter, a changed edge
   list and a clear keep it within 10% of its reachable words after
   10³.  A source's mark is kept beside it and leaves with it. *)
let test_unsearched_graph_bounded () =
  let d = Deadlock.create () and t = Tid.of_int in
  let round i =
    Deadlock.set_waiting d (t (i + 2)) ~on:[ t i; t (i + 1) ] ~at:0;
    Deadlock.set_waiting d (t (i + 1)) ~on:[ t i; t (i + 2) ] ~at:0;
    Deadlock.clear d (t i) ~at:0
  in
  for i = 0 to 999 do
    round i
  done;
  let small = Obj.reachable_words (Obj.repr d) in
  for i = 1_000 to 9_999 do
    round i
  done;
  let large = Obj.reachable_words (Obj.repr d) in
  if 10 * large > 11 * small then
    Alcotest.failf "an unsearched graph grew from %d to %d reachable words" small large

(* A transaction that begins and commits having executed nothing
   allocates nothing on a warmed database: its running entry is a slot
   of the tid table, its record the one the last finished transaction
   left on the spare stack, and what it leaves a bit in the finished
   set.  Nor does a transaction that a shard's database adopts and then
   aborts.  A bucket of a generic hash table and a fresh record per
   transaction took 8 words for each. *)
let test_empty_txn_allocation () =
  let db = Database.create [ make_ba Recovery.UIP ] in
  let begin_commit () = Database.commit db (Database.begin_txn db) in
  let adopt_abort () =
    let tid = Tid.of_int (Database.next_tid db + 1) in
    Database.adopt_txn db tid;
    Database.abort db tid
  in
  for _ = 1 to 8 do
    begin_commit ();
    adopt_abort ()
  done;
  let w = minor_words begin_commit in
  if w > 0. then Alcotest.failf "begin and commit of an empty transaction allocated %.0f words" w;
  let w = minor_words adopt_abort in
  if w > 0. then Alcotest.failf "adopting and aborting a transaction allocated %.0f words" w;
  Helpers.check_int "committed" 9 (Database.committed_count db);
  Helpers.check_int "aborted" 9 (Database.aborted_count db)

(* A finished transaction's record is reused with its touched objects
   forgotten.  After a transaction that executed at A and B commits, the
   next one takes its record and executes only at B: it releases B alone
   and validates B alone.  A is optimistic, so a record that still held
   A would release it again and open a validation span at commit. *)
let test_reused_record_forgets_objects () =
  let a =
    Atomic_object.create_optimistic ~spec:(Spec.rename BA.spec "A") ~conflict:BA.nfc_conflict
  and b =
    Atomic_object.create ~spec:(Spec.rename BA.spec "B") ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ()
  in
  let db = Helpers.traced (Database.create [ a; b ]) in
  let t1 = Database.begin_txn db in
  ignore (Database.invoke db t1 ~obj:"A" (deposit_inv 5));
  ignore (Database.invoke db t1 ~obj:"B" (deposit_inv 5));
  Helpers.check_bool "the first commits" true (Database.try_commit db t1 = Ok ());
  let t2 = Database.begin_txn db in
  ignore (Database.invoke db t2 ~obj:"B" (deposit_inv 1));
  Helpers.check_bool "the second validates" true (Database.validate db t2 = Ok ());
  Helpers.check_bool "the second commits" true (Database.try_commit db t2 = Ok ());
  let events = match Database.trace db with Some tr -> Tm_obs.Trace.events tr | None -> [] in
  let of_txn tid f =
    List.filter_map
      (fun (e : Tm_obs.Trace.event) ->
        match e.tid with Some x when Tid.equal x tid -> f e.kind | _ -> None)
      events
  in
  let released tid =
    of_txn tid (function Tm_obs.Trace.Lock_release { obj } -> Some obj | _ -> None)
  and validating tid =
    List.length (of_txn tid (function Tm_obs.Trace.Validating -> Some () | _ -> None))
  in
  Alcotest.(check (list string)) "the first releases A, then B" [ "A"; "B" ] (released t1);
  Helpers.check_int "the first validates A" 1 (validating t1);
  Alcotest.(check (list string)) "the second releases B alone" [ "B" ] (released t2);
  Helpers.check_int "the second validates nothing optimistic" 0 (validating t2);
  Helpers.check_int "A holds the first's deposit alone" 1
    (List.length (Atomic_object.committed_ops a));
  Helpers.check_int "B holds both deposits" 2 (List.length (Atomic_object.committed_ops b))

(* Eight sources wait on a tid that heads each of their edge lists:
   clearing it rebuilds no list (each keeps its tail) and walks the
   sources from the graph's array of them, so it allocates nothing.
   Walking the table with [Hashtbl.iter] took 4 words for its closure,
   and collecting the sources with [Hashtbl.fold] into a list of pairs
   and filtering each hit list through a fresh closure 120.  A tid no
   edge mentions costs the same walk: 0 words, 4 with [Hashtbl.iter],
   10 with the fold. *)
let test_deadlock_clear_allocation () =
  let d = Deadlock.create () in
  let cleared = Tid.of_int 0 and other = Tid.of_int 9 in
  let wait_all () =
    for i = 1 to 8 do
      Deadlock.set_waiting d (Tid.of_int i) ~on:[ cleared; other ] ~at:0
    done
  in
  wait_all ();
  Deadlock.clear d cleared ~at:0;
  wait_all ();
  let w = minor_words (fun () -> Deadlock.clear d cleared ~at:0) in
  for i = 1 to 8 do
    Alcotest.check Helpers.tids "only the edge to the cleared tid removed" [ other ]
      (Deadlock.waiting d (Tid.of_int i))
  done;
  if w > 0. then Alcotest.failf "clearing a tid 8 sources wait on allocated %.0f words (max 0)" w;
  wait_all ();
  let stranger = Tid.of_int 99 in
  Deadlock.clear d stranger ~at:0;
  let w = minor_words (fun () -> Deadlock.clear d stranger ~at:0) in
  for i = 1 to 8 do
    Alcotest.check Helpers.tids "every source keeps its edges" [ cleared; other ]
      (Deadlock.waiting d (Tid.of_int i))
  done;
  if w > 0. then Alcotest.failf "clearing a tid no edge mentions allocated %.0f words (max 0)" w

(* An executed deposit by a transaction that three blocked withdrawals
   wait on pays for the deposit alone: the walk that clears their edges
   to it allocates nothing, and each waiter's list falls to its shared
   empty tail.  25 words under UIP, 21 under DU, with or without the
   waiters: 29 and 25 when each executed operation was a block of its
   own, 33 and 29 with a candidate list besides, 30 and 26 with a lock
   hold stamped with a global sequence number.  The deposit looks its
   operation up once, for the lock test, and finds it in the database's
   table, where the first deposit left it; it executes that operation,
   keeping it in an argument rather than a list; its lock hold (3 words, the operation
   and the next hold), and under UIP its cell of the live suffix, are
   one cell each; the recovery manager is called at full
   arity; and the spec folds over its responses.  The limits are the
   measured values plus 10%.  A spec that answered with a list of
   (response, state) pairs, one per step, took 45 words under UIP and
   41 under DU.  Before the other cuts it took 62 and 56, 4 more with
   the waiters ([Hashtbl.iter]'s closure in the clear): partial
   applications of [Recovery.responses] and [Recovery.record] 5 words
   each, the list of enabled operations 3, a pair in a list cell per
   hold and per suffix entry 2 more each.  Clearing through a fold, a
   list of pairs and a filter closure per hit took 46 words more than
   the uncontended deposit, and building the executed operation again
   after the lock test 7 more in both. *)
let test_contended_deposit_allocation () =
  List.iter
    (fun recovery ->
      let what, limit =
        match recovery with Recovery.UIP -> ("UIP", 27.) | Recovery.DU -> ("DU", 23.)
      in
      (* The words of a's third deposit, with [waiters] withdrawals
         blocked on a's first two. *)
      let deposit_words waiters =
        let db = Database.create [ make_ba recovery ] and g = Deadlock.create () in
        Database.share_waits db g ~shard:0;
        let a = Database.begin_txn db in
        let others = List.init waiters (fun _ -> Database.begin_txn db) in
        let block () =
          List.iter
            (fun b ->
              match Database.invoke db b ~obj:"BA" (withdraw_inv 1) with
              | Atomic_object.Blocked [ h ] when Tid.equal h a -> ()
              | _ -> Alcotest.failf "%s: a withdrawal must block on the depositor" what)
            others
        in
        let deposit () =
          match Database.invoke db a ~obj:"BA" (deposit_inv 1) with
          | Atomic_object.Executed _ as o -> o
          | _ -> Alcotest.failf "%s: the deposit must execute" what
        in
        ignore (deposit ());
        block ();
        ignore (deposit ());
        block ();
        let w = minor_words deposit in
        Helpers.check_bool (what ^ ": the waiters' edges cleared") true
          (List.for_all (fun b -> Deadlock.waiting g b = []) others);
        w
      in
      let alone = deposit_words 0 and contended = deposit_words 3 in
      if alone > limit then
        Alcotest.failf "%s: an uncontended deposit allocated %.0f words (max %.0f)" what alone
          limit;
      if contended > alone then
        Alcotest.failf "%s: a deposit three withdrawals wait on allocated %.0f words (max %.0f)"
          what contended alone)
    [ Recovery.UIP; Recovery.DU ]

(* Deferred update keeps each transaction's view: after 64 deposits an
   invocation steps nothing and pays only for its answer, 5 words.  A
   commit by another transaction moves the base, so the next call
   derives the view once; the call after it is back to the answer
   alone.  A spec that answered with a list of (response, state) pairs
   took 11 words, a [Recovery.responses] that returned the manager's
   closure, applied partially on each call, 16, and deriving the view
   on every call 797. *)
let test_du_kept_view_allocation () =
  let r = Recovery.create Recovery.DU BA.spec in
  for _ = 1 to 64 do
    Recovery.record r Tid.a (dep 1)
  done;
  let call () = Recovery.responses r Tid.a balance_inv in
  let check what balance =
    Alcotest.check (Alcotest.list Helpers.value) (what ^ ": A's balance") [ Value.int balance ]
      (call ());
    let w = minor_words call in
    if w > 5. then Alcotest.failf "%s: a DU responses call allocated %.0f words (max 5)" what w
  in
  check "after 64 deposits" 64;
  Recovery.record r Tid.b (dep 100);
  Recovery.commit r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "B's commit reaches A's view" [ Value.int 164 ]
    (call ());
  check "after B's commit" 164

(* Recording a deposit by a transaction that recorded eight before it
   pays for the stepped state-set and the transaction's list cell and,
   under update-in-place, one 4-word cell of the live suffix: 10 words
   under UIP, 6 under DU.  A spec that answered with a list of
   (response, state) pairs took 6 words more in both, 16 and 12; a
   [Recovery.record] that returned the manager's closure, applied
   partially on each call, 5 more again, and a suffix entry built as a
   pair in a list cell 2 more under UIP: 23 and 17. *)
let test_record_allocation () =
  List.iter
    (fun (recovery, what, limit) ->
      let r = Recovery.create recovery BA.spec in
      for _ = 1 to 8 do
        Recovery.record r Tid.a (dep 1)
      done;
      let op = dep 1 in
      let w = minor_words (fun () -> Recovery.record r Tid.a op) in
      if w > limit then
        Alcotest.failf "%s: recording a deposit allocated %.0f words (max %.0f)" what w limit;
      Alcotest.check (Alcotest.list Helpers.value) (what ^ ": A's balance") [ Value.int 9 ]
        (Recovery.responses r Tid.a balance_inv))
    [ (Recovery.UIP, "UIP", 10.); (Recovery.DU, "DU", 6.) ]

(* A UIP abort of eight bank deposits compensates each with the bank's
   shared inverse: it builds no operation, and pays only for the
   state-set each compensation steps to: 30 → 24 words, now that its
   suffix entries are unlinked in place rather than dropped from a
   two-list queue that the fold then refilled.  An inverse built per
   undone operation took 19 words more each: 182.  For small amounts the inverse itself allocates
   nothing. *)
let test_uip_abort_allocation () =
  List.iter
    (fun op ->
      let w = minor_words (fun () -> BA.inverse op) in
      if w > 0. then Alcotest.failf "the inverse of %a allocated %.0f words" Op.pp op w)
    [ dep 1; dep 63; wok 1; wok 63 ];
  let r = Recovery.create ~inverse:BA.inverse Recovery.UIP BA.spec in
  Recovery.record r Tid.b (dep 100);
  for i = 1 to 8 do
    Recovery.record r Tid.a (dep i)
  done;
  let w = minor_words (fun () -> Recovery.abort r Tid.a) in
  if w > 24. then
    Alcotest.failf "a UIP abort of eight deposits allocated %.0f words (max 24)" w;
  Alcotest.check (Alcotest.list Helpers.value) "only B's deposit is left" [ Value.int 100 ]
    (Recovery.responses r Tid.b balance_inv)

(* The same abort over a counter: eight increments, each undone by the
   counter's shared inverse, 30 → 24 words, what the bank's abort pays;
   the limit is that plus 10% (33 → 26).  An inverse built per undone increment took
   21 words more each: 198.  For small amounts the inverse itself
   allocates nothing. *)
let test_uip_counter_abort_allocation () =
  let module C = Tm_adt.Bounded_counter.Make (struct
    let capacity = 100
    let initial = 0
    let name = "CTR"
  end) in
  List.iter
    (fun op ->
      let w = minor_words (fun () -> C.inverse op) in
      if w > 0. then Alcotest.failf "the inverse of %a allocated %.0f words" Op.pp op w)
    [ C.incr_ok 1; C.incr_ok 63; C.decr_ok 1; C.decr_ok 63 ];
  let r = Recovery.create ~inverse:C.inverse Recovery.UIP C.spec in
  Recovery.record r Tid.b (C.incr_ok 10);
  for i = 1 to 8 do
    Recovery.record r Tid.a (C.incr_ok i)
  done;
  let w = minor_words (fun () -> Recovery.abort r Tid.a) in
  if w > 26. then
    Alcotest.failf "a UIP abort of eight increments allocated %.0f words (max 26)" w;
  Alcotest.check (Alcotest.list Helpers.value) "only B's increment is left" [ Value.int 10 ]
    (Recovery.responses r Tid.b (Op.invocation "read"))

(* A commit of a current view installs it as the base without stepping
   again: it pays for the committed log, which these 65 operations start,
   140 words: the one-operation block, the log's record, chunks of 8, 16,
   32 and 64 slots and a list cell for each full one.  Stepping the 65
   intentions from the base took 984 words, and a committed log of list
   cells 195, 3 per operation (the limit was 3 * 65 + 16, now 140 + 16). *)
let test_du_commit_allocation () =
  let r = Recovery.create Recovery.DU BA.spec in
  for i = 1 to 65 do
    Recovery.record r Tid.a (dep i)
  done;
  let w = minor_words (fun () -> Recovery.commit r Tid.a) in
  if w > 140. +. 16. then
    Alcotest.failf "a DU commit of 65 intentions allocated %.0f words (max %.0f)" w
      (140. +. 16.);
  Alcotest.check (Alcotest.list Helpers.value) "the base holds the deposits"
    [ Value.int (65 * 66 / 2) ]
    (Recovery.responses r Tid.b balance_inv)

(* An invocation with one legal response builds no candidate list: a
   deposit through [Atomic_object.invoke] by a transaction that
   deposited before pays for its operation (4 words), the manager's
   record (10 under UIP, 6 under DU), its lock hold (3) and the outcome
   (2): 19 and 15 words.  A hold stamped with a sequence number took 1
   more in both, and walking a one-element candidate list 3 more. *)
let test_one_response_allocation () =
  List.iter
    (fun (recovery, what, limit) ->
      let o =
        Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery ()
      in
      let inv = deposit_inv 1 in
      let call () = Atomic_object.invoke o Tid.a inv in
      ignore (call ());
      let w = minor_words call in
      if w > limit then
        Alcotest.failf "%s: a one-response invocation allocated %.0f words (max %.0f)" what w
          limit;
      Helpers.check_int (what ^ ": two deposits held") 2 (List.length (Atomic_object.holds o));
      match Atomic_object.invoke o Tid.a balance_inv with
      | Atomic_object.Executed op ->
          Alcotest.check Helpers.value (what ^ ": A's balance") (Value.int 2) op.Op.res
      | _ -> Alcotest.failf "%s: A's balance must execute" what)
    [ (Recovery.UIP, "UIP", 19.); (Recovery.DU, "DU", 15.) ]

(* Committing the older of two interleaved UIP transactions folds its
   one operation into the base where the suffix starts: it pays for
   the stepped base and the committed log's first block, 5 words, and
   copies no suffix entry.  Refilling a two-list queue by reversing
   all nine entries took 41. *)
let test_uip_commit_allocation () =
  let r = Recovery.create ~inverse:BA.inverse Recovery.UIP BA.spec in
  Recovery.record r Tid.a (dep 100);
  for i = 1 to 8 do
    Recovery.record r Tid.b (dep i)
  done;
  let w = minor_words (fun () -> Recovery.commit r Tid.a) in
  if w > 5. then
    Alcotest.failf "committing the older of two UIP transactions allocated %.0f words (max 5)" w;
  Alcotest.check (Alcotest.list Helpers.value) "B sees both" [ Value.int 136 ]
    (Recovery.responses r Tid.b balance_inv);
  Recovery.abort r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "only A's deposit is left" [ Value.int 100 ]
    (Recovery.responses r Tid.c balance_inv)

(* Aborting the middle one of three interleaved UIP transactions, four
   deposits each, unlinks its entries in place and pays only for its
   four compensating steps, 3 words each: 12.  Dropping them from a
   two-list queue copied the entries newer than its first and refilled
   the queue's front: 74. *)
let test_uip_abort_middle_allocation () =
  let r = Recovery.create ~inverse:BA.inverse Recovery.UIP BA.spec in
  for i = 1 to 4 do
    Recovery.record r Tid.a (dep i);
    Recovery.record r Tid.b (dep (10 * i));
    Recovery.record r Tid.c (dep (100 * i))
  done;
  let w = minor_words (fun () -> Recovery.abort r Tid.b) in
  if w > 12. then
    Alcotest.failf "aborting the middle of three UIP transactions allocated %.0f words (max 12)" w;
  Alcotest.check (Alcotest.list Helpers.value) "A's and C's deposits are left" [ Value.int 1010 ]
    (Recovery.responses r Tid.a balance_inv);
  Recovery.commit r Tid.a;
  Recovery.abort r Tid.c;
  Alcotest.check (Alcotest.list Helpers.value) "then A's alone" [ Value.int 10 ]
    (Recovery.responses r Tid.b balance_inv)

(* The chunked log against a list: single pushes and pushes of a
   newest-first list, interleaved across the chunk boundaries (8, 24,
   56, 120, 248, then every 256 operations), hold the length after each
   step, read back oldest first (split by object too), fold newest
   first and oldest first, and find from every start what the list's
   suffix finds.  The operations are distinct deposits, so an order
   slip shows. *)
let prop_op_log_matches_list =
  let gen =
    QCheck2.Gen.(
      list_size (int_bound 40)
        (oneof [ return None; map Option.some (int_bound 100) ]))
  in
  Helpers.qcheck ~count:100 "op log = list model" gen (fun steps ->
      let next = ref 0 in
      let fresh () =
        incr next;
        dep !next
      in
      let log, model =
        List.fold_left
          (fun (log, model) step ->
            let log, model =
              match step with
              | None ->
                  let op = fresh () in
                  (Op_log.push log op, model @ [ op ])
              | Some k ->
                  let ops = List.init k (fun _ -> fresh ()) in
                  (Op_log.push_rev log (List.rev ops), model @ ops)
            in
            if Op_log.length log <> List.length model then
              QCheck2.Test.fail_reportf "length %d, model %d" (Op_log.length log)
                (List.length model);
            (log, model))
          (Op_log.empty, []) steps
      in
      let n = List.length model in
      let newest_first = Array.of_list (List.rev model) in
      let in_order, visited =
        Op_log.fold (fun (ok, i) op -> (ok && Op.equal op newest_first.(i), i + 1)) (true, 0) log
      in
      let oldest_first, visited_oldest =
        Op_log.fold_oldest
          (fun (ok, i) op -> (ok && Op.equal op newest_first.(n - 1 - i), i + 1))
          (true, 0) log
      in
      (* Position [p] holds deposit [p + 1], so this holds at the last
         slot of each of the first chunks. *)
      let every_eighth (op : Op.t) =
        match op.inv.args with [ Value.Int i ] -> i mod 8 = 0 | _ -> false
      in
      let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r in
      let by_object =
        match Hashtbl.find_opt (Op_log.by_object log) "BA" with
        | Some l -> Op_log.to_list l
        | None -> []
      in
      List.equal Op.equal (Op_log.to_list log) model
      && List.equal Op.equal by_object model
      && in_order && visited = n && oldest_first && visited_oldest = n
      && List.for_all
           (fun start ->
             Option.equal Op.equal
               (Op_log.find_from log start every_eighth)
               (List.find_opt every_eighth (drop start model)))
           [ 0; 1; 6; 7; 8; 9; 23; 24; 55; 56; 119; 120; 247; 248; 249; n / 2; n - 1; n; n + 1 ])

(* What a committed operation costs a manager: one slot of a chunk and
   its share of the chunk's header and list cell, 1.04 words from 10^3
   to 10^4 committed deposits.  The deposit is one shared
   operation, so only the log's own structure is counted.  The list the
   chunks replaced cost 3 words per operation.  The limit is the
   measured value plus 10%. *)
let test_committed_log_density () =
  let op = dep 1 in
  List.iter
    (fun kind ->
      let words n =
        let r = Recovery.create kind BA.spec in
        for _ = 1 to n do
          Recovery.record r Tid.a op;
          Recovery.commit r Tid.a
        done;
        Obj.reachable_words (Obj.repr r)
      in
      let per_op = float_of_int (words 10_000 - words 1_000) /. 9_000. in
      if per_op > 1.15 then
        Alcotest.failf "%a: the committed log grew %.3f words per operation (max 1.15)"
          Recovery.pp_kind kind per_op)
    [ Recovery.UIP; Recovery.DU ]

(* An optimistic object validates against its recovery manager's
   committed log and keeps no log of its own: from 10^3 to 10^4
   committed single-deposit transactions it grows by what the manager's
   log does, 1.04 words per operation.  The words counted are the
   object's beyond the operations themselves: the account is in no
   database, so it shares no operations ({!Op_table.detached}) and each
   transaction's deposit is its own block, which the object shares with
   the list [committed_ops] builds.  A second chunked log for validation, filled
   by the same commits, doubled it (2.08); the limit is 1.2. *)
let test_optimistic_log_density () =
  let inv = deposit_inv 1 in
  let words n =
    let o = Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict in
    for i = 1 to n do
      let tid = Tid.of_int i in
      ignore (Atomic_object.invoke o tid inv);
      if Result.is_error (Atomic_object.validate o tid) then
        Alcotest.fail "a lone deposit must validate";
      Atomic_object.commit o tid
    done;
    let ops = Atomic_object.committed_ops o in
    Helpers.check_int "every deposit committed" n (List.length ops);
    Obj.reachable_words (Obj.repr (o, ops)) - Obj.reachable_words (Obj.repr ops)
  in
  let per_op = float_of_int (words 10_000 - words 1_000) /. 9_000. in
  if per_op > 1.2 then
    Alcotest.failf "an optimistic account grew %.3f words per committed operation (max 1.2)"
      per_op

(* What a committed operation costs through a database: its slot in
   the manager's committed log, and nothing more.  From 10^3 to 10^4
   single-deposit transactions, each invocation built afresh, a
   database grows 1.07 words per operation under UIP and under DU: the
   object builds each deposit through the database's operation table,
   so every one is the same shared operation.  When each executed
   operation was its own block, which kept the caller's invocation, its
   argument list and its value alive too, the database grew 13.07 words
   per operation.  The limit is 1.2. *)
let test_database_op_density () =
  List.iter
    (fun kind ->
      let words n =
        let db = Database.create [ make_ba kind ] in
        for _ = 1 to n do
          let a = Database.begin_txn db in
          (match Database.invoke db a ~obj:"BA" (deposit_inv 1) with
          | Atomic_object.Executed _ -> ()
          | _ -> Alcotest.fail "a lone deposit must execute");
          Database.commit db a
        done;
        Obj.reachable_words (Obj.repr db)
      in
      let per_op = float_of_int (words 10_000 - words 1_000) /. 9_000. in
      if per_op > 1.2 then
        Alcotest.failf "%a: a database grew %.3f words per committed operation (max 1.2)"
          Recovery.pp_kind kind per_op)
    [ Recovery.UIP; Recovery.DU ]

(* The table shares operations and invocations: equal keys built from
   distinct invocation records find one operation, and two objects'
   operations built from distinct but equal invocations carry one
   invocation block, the table's (a table that kept each caller's
   invocation fails here).  Once its slots exist, a hit allocates
   nothing and a miss only its 4-word operation.  Neither empty slot
   matches a lookup, not even one equal to its contents but for the
   object name's identity: such a lookup gets its own object name and
   its own invocation (an empty invocation slot that matched
   [Op.invocation ""] fails here).  The detached table of an object in
   no database builds every operation afresh. *)
let test_op_table_shares () =
  let t = Op_table.create () and obj = "BA" in
  let first = Op_table.find t obj (deposit_inv 1) Value.ok in
  let again = Op_table.find t obj (deposit_inv 1) Value.ok in
  Helpers.check_bool "equal keys find one operation" true (first == again);
  Helpers.check_bool "the operation is the key's" true
    (Op.equal first { Op.obj; inv = deposit_inv 1; res = Value.ok });
  let other = Op_table.find t "BB" (deposit_inv 1) Value.ok in
  Helpers.check_bool "two objects' operations share one invocation" true
    (other != first && other.Op.inv == first.Op.inv);
  let inv = deposit_inv 1 in
  let w = minor_words (fun () -> Op_table.find t obj inv Value.ok) in
  if w > 0. then Alcotest.failf "a hit allocated %.0f words" w;
  let missed = deposit_inv 2 in
  let w = minor_words (fun () -> Op_table.find t obj missed Value.ok) in
  if w <> 4. then Alcotest.failf "a miss allocated %.0f words (the operation is 4)" w;
  let unit_obj = String.make 0 ' ' and unit_inv = Op.invocation "" in
  List.iter
    (fun t ->
      let op = Op_table.find t unit_obj unit_inv Value.unit in
      Helpers.check_bool "a lookup of the empty slots' contents gets its own object name" true
        (op.Op.obj == unit_obj);
      Helpers.check_bool "a lookup of the empty slots' contents gets its own invocation" true
        (op.Op.inv == unit_inv))
    [ Op_table.create (); t ];
  let d = Op_table.find Op_table.detached obj inv Value.ok in
  Helpers.check_bool "the detached table shares nothing" true
    (d != Op_table.find Op_table.detached obj inv Value.ok && Op.equal d first)

(* Whatever the keys and their collisions, a lookup answers an
   operation equal to its key, carrying the object's own name string,
   and a key looked up twice in a row answers the same value both
   times.  A set holds two operations: after a key, the key looked up
   just before it still answers the value it answered then, and so does
   the key itself after that (a direct-mapped table fails this when two
   keys in a row collide). *)
let test_op_table_model =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map Value.int (int_range (-3) 3);
        map Value.str (oneofl [ "ok"; "no"; "a-rather-long-string-value"; "" ]);
        pure Value.unit;
        map Value.bool bool;
        map (fun l -> Value.list (List.map Value.int l)) (list_size (int_range 0 2) (int_range 0 3));
      ]
  in
  let key =
    quad (int_range 0 5)
      (oneofl [ "deposit"; "withdraw"; "balance"; "" ])
      (list_size (int_range 0 2) value)
      value
  in
  let objs = [| "BA"; "BA1"; "account-00000001"; "account-00000002"; ""; "x" |] in
  Helpers.qcheck ~count:200 "operation table: lookups answer their keys"
    (list_size (int_range 1 300) key)
    (fun keys ->
      let t = Op_table.create () in
      (* A fresh invocation and argument list each time. *)
      let find (o, name, args, res) =
        Op_table.find t objs.(o) (Op.invocation ~args:(List.map Fun.id args) (name ^ "")) res
      in
      let answers key op = find key == op in
      let rec go previous = function
        | [] -> true
        | ((o, name, args, res) as key) :: rest ->
            let obj = objs.(o) in
            let op = find key in
            op.Op.obj == obj
            && Op.equal op { Op.obj; inv = Op.invocation ~args name; res }
            && answers key op
            && (match previous with None -> true | Some (k, p) -> answers k p && answers key op)
            && go (Some (key, op)) rest
      in
      go None keys)

(* A restart replays into what it keeps.  Restoring 1,000 committed
   bank operations into a fresh account (UIP with its inverses, and DU)
   steps the account's one state in place and takes the log over as its
   committed log: 14 words in all, whatever the length.  The plan of a
   loaded 1,000-commit log over two accounts fills one [Op_log] bucket
   per account from the log's state, oldest first: 1,160 words, about
   one per operation.  A list cell per replay step (3,020 words), a copy
   of the log into the manager, buckets of list cells (about 4,200) or
   a fold of the records, which is how a live log plans (8,438 words),
   each cost 3 words or more per operation, and the limit is 2.5. *)
let test_restore_allocation () =
  let n = 1000 in
  let ops = List.init n (fun i -> if i mod 4 = 3 then wok 1 else dep (1 + (i mod 7))) in
  let balance =
    List.fold_left
      (fun b (op : Op.t) ->
        match op.inv.name, op.inv.args with
        | "deposit", [ Value.Int i ] -> b + i
        | _, [ Value.Int i ] -> b - i
        | _ -> b)
      0 ops
  in
  List.iter
    (fun kind ->
      let inverse = if kind = Recovery.UIP then Some BA.inverse else None in
      let o =
        Atomic_object.create ?inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:kind ()
      in
      let log = Op_log.of_list ops in
      let w = minor_words (fun () -> Atomic_object.restore_log o log) in
      if w > 2.5 *. float_of_int n then
        Alcotest.failf "%a: restoring %d operations allocated %.0f words (max %.0f)"
          Recovery.pp_kind kind n w (2.5 *. float_of_int n);
      Alcotest.check Helpers.ops "the restored log is the committed log" ops
        (Atomic_object.committed_ops o);
      match Atomic_object.invoke o Tid.a balance_inv with
      | Atomic_object.Executed op ->
          Alcotest.check Helpers.value "balance" (Value.int balance) op.res
      | outcome -> Alcotest.failf "balance: %a" Atomic_object.pp_outcome outcome)
    [ Recovery.UIP; Recovery.DU ];
  let module Wal = Tm_engine.Wal in
  let module Disk_wal = Tm_engine.Disk_wal in
  let image =
    Wal.Codec.encode_all
      (List.concat
         (List.mapi
            (fun i (op : Op.t) ->
              let tid = Tid.of_int (i + 1) in
              let obj = if i mod 2 = 0 then "BA0" else "BA1" in
              [ Wal.Operation (tid, { op with obj }); Wal.Commit tid ])
            ops))
  in
  let load () =
    match Disk_wal.load (Tm_engine.Storage.of_string image) with
    | Ok dw -> Disk_wal.wal dw
    | Error c -> Alcotest.failf "the image loads: %a" Wal.Codec.pp_corruption c
  in
  ignore (Wal.plan_of (load ()));
  let wal = load () in
  let w = minor_words (fun () -> Wal.plan_of wal) in
  if w > 2.5 *. float_of_int n then
    Alcotest.failf "the plan of %d loaded commits allocated %.0f words (max %.0f)" n w
      (2.5 *. float_of_int n);
  (* The log is live now: its plan is a fold of its frames. *)
  let plan = Wal.plan_of wal in
  Alcotest.check Alcotest.int "one bucket per account" 2 (Hashtbl.length plan.Wal.plan_objects);
  Alcotest.check Alcotest.int "half the operations each" (n / 2)
    (Op_log.length (Hashtbl.find plan.Wal.plan_objects "BA1"))

(* An invocation with one legal response still offers a chooser that
   response, as a one-element list, under locking (either recovery
   method) and under optimistic control. *)
let test_choose_offered_one_response () =
  List.iter
    (fun (what, o) ->
      let offered = ref [] in
      let choose vs =
        offered := vs;
        List.hd vs
      in
      (match Atomic_object.invoke ~choose o Tid.a (deposit_inv 1) with
      | Atomic_object.Executed op -> Alcotest.check Helpers.op (what ^ ": the deposit") (dep 1) op
      | _ -> Alcotest.failf "%s: the deposit must execute" what);
      Alcotest.check (Alcotest.list Helpers.value) (what ^ ": offered [ok]") [ Value.ok ] !offered)
    [
      ( "UIP",
        Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP () );
      ("DU", Atomic_object.create ~spec:BA.spec ~conflict:BA.nfc_conflict ~recovery:Recovery.DU ());
      ("optimistic", Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict);
    ]

(* A chooser may pick only among the responses it is offered.  B is
   offered [deq→1] because [deq→2] conflicts with A's open [enq 2];
   executing [deq→2] anyway would leave the committed [enq 1; deq→2]
   once A aborts, an illegal history.  The pick is rejected and the
   object is left as it was. *)
let test_choose_outside_offer_rejected () =
  let module SQ = Tm_adt.Semiqueue in
  let o =
    Atomic_object.create ~spec:SQ.spec ~conflict:SQ.nrbc_conflict ~recovery:Recovery.UIP ()
  in
  let db = Database.create [ o ] in
  let enq i = Op.invocation ~args:[ Value.int i ] "enq" in
  let c = Database.begin_txn db in
  ignore (Database.invoke db c ~obj:"SQ" (enq 1));
  Database.commit db c;
  let a = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"SQ" (enq 2));
  let b = Database.begin_txn db in
  let offered = ref [] in
  let choose vs =
    offered := vs;
    Value.int 2
  in
  let holds = Atomic_object.holds o in
  (match Database.invoke ~choose db b ~obj:"SQ" (Op.invocation "deq") with
  | _ -> Alcotest.fail "a pick outside the offer must be rejected"
  | exception Invalid_argument msg ->
      Helpers.check_bool ("the message names the object and the value: " ^ msg) true
        (contains msg "SQ" && contains msg "returned 2"));
  Alcotest.check (Alcotest.list Helpers.value) "offered only deq→1" [ Value.int 1 ] !offered;
  Helpers.check_bool "no lock taken" true (Atomic_object.holds o = holds);
  (* B's turn left nothing behind: it can still dequeue the committed 1. *)
  (match Database.invoke db b ~obj:"SQ" (Op.invocation "deq") with
  | Atomic_object.Executed op -> Alcotest.check Helpers.value "deq→1" (Value.int 1) op.Op.res
  | _ -> Alcotest.fail "deq→1 must execute");
  Database.abort db a;
  Database.commit db b;
  Helpers.check_bool "the committed history is legal" true
    (Spec.legal SQ.spec (Atomic_object.committed_ops o))

let suite =
  [
    Alcotest.test_case "lock table" `Quick test_lock_table;
    Alcotest.test_case "lock table holds order" `Quick test_lock_table_holds_order;
    Alcotest.test_case "lock table blockers dedup" `Quick
      test_lock_table_blockers_dedup;
    Alcotest.test_case "UIP view semantics (§5)" `Quick test_uip_view_semantics;
    Alcotest.test_case "DU view semantics (§5)" `Quick test_du_view_semantics;
    Alcotest.test_case "UIP abort undoes" `Quick test_uip_abort_undoes;
    Alcotest.test_case "DU abort discards" `Quick test_du_abort_discards;
    Alcotest.test_case "DU commit-order visibility" `Quick test_du_commit_order_visibility;
    Alcotest.test_case "DU stale commit raises" `Quick test_du_stale_commit_raises;
    Alcotest.test_case "record illegal raises" `Quick test_record_illegal_raises;
    Alcotest.test_case "invoke executes" `Quick test_invoke_executes;
    Alcotest.test_case "invoke blocks and unblocks" `Quick test_invoke_blocks_and_unblocks;
    Alcotest.test_case "result-dependent locking" `Quick test_result_dependent_locking;
    Alcotest.test_case "partial op: no response" `Quick test_no_response;
    Alcotest.test_case "abort releases and undoes" `Quick test_abort_releases_and_undoes;
    Alcotest.test_case "committed ops replay" `Quick test_committed_ops_replay;
    Alcotest.test_case "restore needs a fresh object" `Quick test_restore_needs_fresh_object;
    Alcotest.test_case "inverse undo = replay undo" `Slow test_inverse_undo_equivalence;
    Alcotest.test_case "inverse undo (counter)" `Quick test_inverse_undo_counter;
  ]
  @ uip_refinement_props
  @ state_set_refinement_props
  @ [
    Alcotest.test_case "state-sets with several states" `Quick test_several_states;
    Alcotest.test_case "UIP abort is history-independent" `Quick
      test_uip_abort_history_independent;
    Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
    Alcotest.test_case "deadlock clear with many edges" `Quick
      test_deadlock_clear_many_edges;
    Alcotest.test_case "deadlock self-loop" `Quick test_deadlock_self_loop_impossible;
    Alcotest.test_case "database end-to-end" `Quick test_database_end_to_end;
    Alcotest.test_case "database deadlock" `Quick test_database_deadlock_and_abort;
    Alcotest.test_case "multi-object commit" `Quick test_database_multi_object_commit;
    Alcotest.test_case "finished txn rejected" `Quick test_finished_txn_rejected;
    prop_txn_table_matches_model;
    Alcotest.test_case "tid set window doubles" `Quick test_tid_set_window_doubles;
    Alcotest.test_case "tid set outliers in the table" `Quick test_tid_set_outliers_in_table;
    Alcotest.test_case "tid set clear" `Quick test_tid_set_clear;
    Alcotest.test_case "tid set sparse runs stay in the window" `Quick test_tid_set_sparse_in_window;
    prop_tid_set_matches_table;
    Alcotest.test_case "fresh object footprint" `Quick test_fresh_object_footprint;
    Alcotest.test_case "funded account footprint" `Quick test_funded_account_footprint;
    Alcotest.test_case "optimistic object footprint" `Quick test_optimistic_object_footprint;
    Alcotest.test_case "database keeps only live transactions" `Quick
      test_database_bounded_state;
    Alcotest.test_case "shard databases keep only live transactions" `Quick
      test_shard_databases_bounded_state;
    Alcotest.test_case "durable validation = plain validation" `Quick
      test_durable_validation_matches;
    prop_engine_histories_dynamic_atomic;
    Alcotest.test_case "attached object footprint" `Quick test_attached_object_footprint;
    Alcotest.test_case "contended metrics = golden snapshot" `Quick
      test_contended_metrics_golden;
    Alcotest.test_case "re-attach resets resolved handles" `Quick
      test_reattach_resets_handles;
    Alcotest.test_case "a first commit registers no series" `Quick
      test_first_commit_registers_nothing;
    prop_deadlock_matches_reference;
    Alcotest.test_case "blockers allocation pin" `Quick test_blockers_allocation;
    Alcotest.test_case "blocked invoke allocation pin" `Quick
      test_blocked_invoke_allocation;
    Alcotest.test_case "lock release allocation pin" `Quick test_lock_release_allocation;
    Alcotest.test_case "conflict test allocation pin" `Quick test_conflict_allocation;
    Alcotest.test_case "blocked retry allocation pin" `Quick test_blocked_retry_allocation;
    Alcotest.test_case "unchanged search allocation pin" `Quick
      test_unchanged_search_allocation;
    Alcotest.test_case "deadlock clear allocation pin" `Quick test_deadlock_clear_allocation;
    Alcotest.test_case "contended deposit allocation pin" `Quick
      test_contended_deposit_allocation;
    Alcotest.test_case "DU kept view allocation pin" `Quick test_du_kept_view_allocation;
    Alcotest.test_case "recovery record allocation pin" `Quick test_record_allocation;
    Alcotest.test_case "UIP abort allocation pin" `Quick test_uip_abort_allocation;
    Alcotest.test_case "UIP counter abort allocation pin" `Quick
      test_uip_counter_abort_allocation;
    Alcotest.test_case "DU commit allocation pin" `Quick test_du_commit_allocation;
    Alcotest.test_case "one-response invocation allocation pin" `Quick
      test_one_response_allocation;
    Alcotest.test_case "UIP commit of the older allocation pin" `Quick
      test_uip_commit_allocation;
    Alcotest.test_case "UIP abort of the middle allocation pin" `Quick
      test_uip_abort_middle_allocation;
    Alcotest.test_case "restore and plan allocation pin" `Quick test_restore_allocation;
    prop_op_log_matches_list;
    Alcotest.test_case "committed log density pin" `Quick test_committed_log_density;
    Alcotest.test_case "optimistic one-log density pin" `Quick test_optimistic_log_density;
    Alcotest.test_case "a committed operation costs one word through a database" `Quick
      test_database_op_density;
    Alcotest.test_case "operation table shares equal operations" `Quick test_op_table_shares;
    test_op_table_model;
    Alcotest.test_case "chooser outside the offer rejected" `Quick
      test_choose_outside_offer_rejected;
    Alcotest.test_case "chooser offered the one response" `Quick
      test_choose_offered_one_response;
    Alcotest.test_case "incremental search allocation pin" `Quick
      test_incremental_search_allocation;
    Alcotest.test_case "unsearched graph stays bounded" `Quick test_unsearched_graph_bounded;
    prop_tid_table_matches_model;
    Alcotest.test_case "empty transaction allocation pin" `Quick test_empty_txn_allocation;
    Alcotest.test_case "a reused record forgets its objects" `Quick
      test_reused_record_forgets_objects;
  ]
