(* Shared test utilities: Alcotest testables for core types, operation
   shorthands, and qcheck generators. *)

open Tm_core

let value = Alcotest.testable Value.pp Value.equal
let op = Alcotest.testable Op.pp Op.equal
let tid = Alcotest.testable Tid.pp Tid.equal
let event = Alcotest.testable Event.pp Event.equal

let history =
  Alcotest.testable History.pp (fun h k ->
      List.equal Event.equal (History.events h) (History.events k))

let ops = Alcotest.list op
let tids = Alcotest.list tid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* [traced db] attaches a trace recorder, whose events rebuild the run's
   history: [recorded_history db] is {!Tm_obs.Trace.to_history} of it. *)
let traced db =
  Tm_engine.Database.set_trace db (Tm_obs.Trace.create ());
  db

let recorded_history db =
  match Tm_engine.Database.trace db with
  | Some tr -> Tm_obs.Trace.to_history tr
  | None -> Alcotest.fail "no trace recorder attached"

(* Bank-account shorthands used across suites. *)
module BA = Tm_adt.Bank_account

let dep = BA.deposit
let wok = BA.withdraw_ok
let wno = BA.withdraw_no
let bal = BA.balance

(* The worked example history of Section 3.3: A deposits 3 and reads
   balance 3; B withdraws 2 and reads balance 1; C's withdraw(2) fails;
   serializable exactly in the order A-B-C. *)
let paper_example_history =
  History.empty
  |> History.exec Tid.a (dep 3)
  |> History.exec Tid.b (wok 2)
  |> History.exec Tid.a (bal 3)
  |> History.invoke Tid.b ~obj:"BA" (Op.invocation "balance")
  |> History.commit_at Tid.a "BA"
  |> History.respond Tid.b ~obj:"BA" (Value.int 1)
  |> History.commit_at Tid.b "BA"
  |> History.exec Tid.c (wno 2)
  |> History.commit_at Tid.c "BA"

(* The Section 5 example: A deposits 5 and commits; B withdraws 3 and is
   still active. *)
let section5_history =
  History.empty
  |> History.exec Tid.a (dep 5)
  |> History.commit_at Tid.a "BA"
  |> History.exec Tid.b (wok 3)

let ba_env = Atomicity.env_of_list [ BA.spec ]

(* qcheck generator for random bank-account operations (drawn from the
   spec's generator alphabet). *)
let ba_op_gen =
  QCheck2.Gen.oneofl (Spec.generators BA.spec)

(* Random legal operation sequence of bounded length from a spec: walk the
   generator alphabet keeping only legal extensions. *)
let legal_seq_gen spec max_len =
  let open QCheck2.Gen in
  let gens = Spec.generators spec in
  let rec extend acc n =
    if n = 0 then return (List.rev acc)
    else
      oneofl gens >>= fun op ->
      if Spec.legal spec (List.rev (op :: acc)) then extend (op :: acc) (n - 1)
      else return (List.rev acc)
  in
  int_bound max_len >>= fun len -> extend [] len

(* A semiqueue whose [take] removes some item and answers only [ok]: after
   [enq 1; enq 2; take] the object is in {[1]} or {[2]}, so unlike the
   plain semiqueue (where the response names the item) its state-sets
   hold several states.  Only enqueues commute, so the relation that
   lets everything else conflict contains both NFC and NRBC. *)
let blind_semiqueue, blind_semiqueue_conflict =
  let module SQ = Tm_adt.Semiqueue in
  let module Blind = struct
    include SQ.S

    (* [take] answers [ok] for each state a [deq] may leave. *)
    let take (k, c) _ s' acc = k c Value.ok s' acc

    let respond s (inv : Op.invocation) k c acc =
      match inv.name with
      | "take" -> SQ.S.respond s (Op.invocation "deq") take (k, c) acc
      | _ -> SQ.S.respond s inv k c acc

    let generators = SQ.S.generators @ [ Op.make ~obj:SQ.S.name "take" Value.ok ]
  end in
  let is_enq (op : Op.t) = op.inv.name = "enq" in
  ( Spec.rename (Spec.pack (module Blind)) "BSQ",
    Conflict.make ~name:"BSQ-all-but-enq" (fun ~requested ~held ->
        not (is_enq requested && is_enq held)) )

(* A sink-less log holding the records [recs], appended in order. *)
let log_of recs =
  let wal = Tm_engine.Wal.create () in
  List.iter (Tm_engine.Wal.append wal) recs;
  wal

(* The stable log as it reads after a crash that persisted only the
   first [n] of the records [recs]. *)
let log_prefix recs n = log_of (List.filteri (fun i _ -> i < n) recs)

(* Each shard's log as the loader restores it from its byte image. *)
let load_images images =
  match Tm_engine.Crash.load images with
  | Ok dws -> Array.map Tm_engine.Disk_wal.wal dws
  | Error e -> Alcotest.fail e

(* Do two replay plans hold the same buckets, in the same order, the
   same losers and the same next tid? *)
let plans_equal (a : Tm_engine.Wal.plan) (b : Tm_engine.Wal.plan) =
  a.plan_ops = b.plan_ops
  && Tid.Set.equal a.plan_loser_tids b.plan_loser_tids
  && a.plan_next_tid = b.plan_next_tid
  && Hashtbl.length a.plan_objects = Hashtbl.length b.plan_objects
  && Hashtbl.fold
       (fun name ops ok ->
         ok
         &&
         match Hashtbl.find_opt b.plan_objects name with
         | Some ops' ->
             List.equal Op.equal (Tm_engine.Op_log.to_list ops) (Tm_engine.Op_log.to_list ops')
         | None -> false)
       a.plan_objects true

(* One seed per process, honoring QCHECK_SEED so a failure is replayable:
   the failing test prints the seed, and rerunning under
   QCHECK_SEED=<seed> dune runtest reproduces the exact draw sequence. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some seed -> seed
        | None -> Fmt.failwith "QCHECK_SEED=%S is not an integer" s)
    | None -> Random.State.bits (Random.State.make_self_init ()) land 0x3FFFFFFF)

let qcheck ?(count = 200) ?(after = ignore) name gen prop =
  Alcotest.test_case name `Quick (fun () ->
      let seed = Lazy.force qcheck_seed in
      let rand = Random.State.make [| seed |] in
      try
        QCheck2.Test.check_exn ~rand (QCheck2.Test.make ~count ~name gen prop);
        after ()
      with e ->
        Fmt.epr "[qcheck] %s failed — reproduce with QCHECK_SEED=%d@." name seed;
        raise e)

(* [precedes h] restricted to [Committed(h) ∪ Active(h)] is transitive;
   [chains] counts the triples [a < b < c] it saw. *)
let precedes_transitive ?(chains = ref 0) h =
  let ts = Tid.Set.elements (Tid.Set.diff (History.transactions h) (History.aborted h)) in
  let p = History.precedes h in
  List.for_all
    (fun b ->
      List.for_all
        (fun a ->
          (not (p a b))
          || List.for_all
               (fun c ->
                 (not (p b c))
                 || begin
                      incr chains;
                      p a c
                    end)
               ts)
        ts)
    ts
