(* Observability read back: JSON parsing, the trace JSONL exporter, the
   span kinds the engine emits, trace replay through the atomicity
   checker, the Prometheus exporter's label escaping, and the UIP-vs-DU
   conflict heat-map comparison. *)

open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
module Json = Tm_obs.Json
module Heatmap = Tm_obs.Heatmap
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Experiment = Tm_sim.Experiment

let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Json: parse/print round trip.                                       *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("c", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("d", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check_bool "round trip" true (v = v')
  | Error e -> Alcotest.fail ("parse: " ^ e)

let test_json_errors () =
  List.iter
    (fun s -> check_bool s true (Result.is_error (Json.parse s)))
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "tru"; "" ]

let test_json_ints_stay_ints () =
  match Json.parse "{\"ts\":12345}" with
  | Ok (Json.Obj [ ("ts", Json.Int 12345) ]) -> ()
  | Ok j -> Alcotest.failf "unexpected %s" (Json.to_string j)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Trace JSONL export: every line parses back to its event.            *)

let small_cfg seed =
  Experiment.config ~concurrency:4 ~total_txns:12 ~seed ()

let uip = Experiment.setup Recovery.UIP Experiment.Semantic
let du = Experiment.setup Recovery.DU Experiment.Semantic

let trace_of_row (row : Experiment.row) =
  match row.Experiment.trace with
  | Some tr -> tr
  | None -> Alcotest.fail "no trace recorded"

(* The scalar payload each kind's line must carry. *)
let payload : Trace.kind -> (string * Json.t) list =
  let int k v = (k, Json.Int v) and str k v = (k, Json.Str v) in
  let bool k v = (k, Json.Bool v) in
  let tids k ts = (k, Json.List (List.map (fun t -> Json.Int (Tid.to_int t)) ts)) in
  function
  | Trace.Begin | Commit | Abort | Validating -> []
  | Invoke { obj; _ } | No_response { obj; _ } | Lock_release { obj } -> [ str "obj" obj ]
  | Executed { op } -> [ str "obj" op.Op.obj ]
  | Blocked { obj; holders; _ } -> [ str "obj" obj; tids "holders" holders ]
  | Validated { ok } -> [ bool "ok" ok ]
  | Deadlock_victim { cycle } -> [ tids "cycle" cycle ]
  | Wal_flush_wait { upto } -> [ int "upto" upto ]
  | Durable { lsn } -> [ int "lsn" lsn ]
  | Recovery_phase { phase; wall_us; items } ->
      [ str "phase" phase; int "wall_us" wall_us; int "items" items ]
  | Prepare_append { shard; gtid } -> [ int "shard" shard; int "gtid" gtid ]
  | Prepare_force { shard; lsn; gtid } ->
      [ int "shard" shard; int "lsn" lsn; int "gtid" gtid ]
  | Decision_force { shard; lsn; gtid; commit } ->
      [ int "shard" shard; int "lsn" lsn; int "gtid" gtid; bool "commit" commit ]
  | Completion { shard; gtid; commit } ->
      [ int "shard" shard; int "gtid" gtid; bool "commit" commit ]

(* [exported_matches ~extra tr] — the dump has one line per event, and
   each line is a JSON object carrying the event's [ts], [tid], [event]
   (= [kind_name]), its payload and every [extra] label. *)
let exported_matches ~extra tr =
  match Json.parse_lines (Trace.to_jsonl ~extra tr) with
  | Error _ -> false
  | Ok lines ->
      let events = Trace.events tr in
      List.length lines = List.length events
      && List.for_all2
           (fun (e : Trace.event) j ->
             let tid =
               match e.Trace.tid with
               | Some t -> Json.Int (Tid.to_int t)
               | None -> Json.Null
             in
             Json.member "ts" j = Some (Json.Int e.Trace.ts)
             && Json.member "tid" j = Some tid
             && Json.member "event" j = Some (Json.Str (Trace.kind_name e.Trace.kind))
             && List.for_all
                  (fun (k, v) -> Json.member k j = Some v)
                  (payload e.Trace.kind
                  @ List.map (fun (k, v) -> (k, Json.Str v)) extra))
           events lines

let test_jsonl_lines_parse_back () =
  let tr =
    trace_of_row
      (Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 3))
  in
  check_bool "some events" true (Trace.length tr > 0);
  check_bool "every line matches its event" true
    (exported_matches
       ~extra:[ ("scenario", "bank-hotspot"); ("setup", "UIP+NRBC") ]
       tr)

(* ------------------------------------------------------------------ *)
(* Span kinds: each engine path emits the spans that describe it.      *)

let kinds_of_row row =
  List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events (trace_of_row row))

let emits what kind row =
  check_bool (what ^ " emits " ^ kind) true (List.mem kind (kinds_of_row row))

let test_span_kinds_locking () =
  emits "a UIP hot spot" "blocked"
    (Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 7))

(* [Database.try_commit] brackets optimistic validation in spans; the
   durable staged commit that [Experiment] drives validates without
   them. *)
let test_span_kinds_occ () =
  let module BA = Tm_adt.Bank_account in
  let db =
    Tm_engine.Database.create
      [ Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict ]
  in
  let tr = Trace.create () in
  Tm_engine.Database.set_trace db tr;
  let tid = Tm_engine.Database.begin_txn db in
  ignore (Tm_engine.Database.invoke db tid ~obj:"BA" (BA.deposit 1).Op.inv);
  check_bool "commits" true (Tm_engine.Database.try_commit db tid = Ok ());
  (* A reader overtaken by a committed deposit fails validation. *)
  let reader = Tm_engine.Database.begin_txn db in
  ignore (Tm_engine.Database.invoke db reader ~obj:"BA" (BA.balance 1).Op.inv);
  let writer = Tm_engine.Database.begin_txn db in
  ignore (Tm_engine.Database.invoke db writer ~obj:"BA" (BA.deposit 2).Op.inv);
  check_bool "writer commits" true (Tm_engine.Database.try_commit db writer = Ok ());
  check_bool "reader fails validation" true
    (Result.is_error (Tm_engine.Database.try_commit db reader));
  let kinds = List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events tr) in
  check_bool "an optimistic commit emits validating" true (List.mem "validating" kinds);
  let verdicts =
    List.filter_map
      (fun e ->
        match (e.Trace.tid, e.Trace.kind) with
        | Some t, Trace.Validated { ok } -> Some (Tid.to_int t, ok)
        | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check (list (pair int bool))) "validated verdicts"
    [ (Tid.to_int tid, true); (Tid.to_int writer, true); (Tid.to_int reader, false) ]
    verdicts

let test_span_kinds_durable_group_commit () =
  let row = Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 7) in
  (* every commit waits on the group-commit watermark *)
  emits "a durable run" "wal_flush_wait" row

(* Replay of a durable trace (wal_flush_wait / durable spans
   present): non-operation spans are ignored and the history
   passes the dynamic-atomicity checker.  Transactions kept few so the
   exponential check runs. *)
let durable_replay_gen = QCheck2.Gen.(int_bound 10_000)

let durable_replay_prop seed =
  let cfg =
    Experiment.config ~concurrency:3 ~total_txns:4 ~seed ~max_retries:4 ()
  in
  let sdb =
    Tm_engine.Sharded_database.create ~wals:[| Tm_engine.Wal.create () |]
      (Experiment.bank_hotspot.Experiment.build du)
  in
  Tm_engine.Sharded_database.set_trace sdb (Trace.create ());
  let row = Experiment.drive ~checkpoint_every:2 Experiment.bank_hotspot du cfg sdb in
  match row.Experiment.trace with
  | None -> false
  | Some tr ->
      (* the trace really contains the PR4/PR5 span kinds under test *)
      let kinds = List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events tr) in
      List.mem "wal_flush_wait" kinds
      && List.mem "durable" kinds
      && List.mem "lock_release" kinds
      &&
      let h = Trace.to_history tr in
      let env =
        Atomicity.env_of_list
          (List.map Atomic_object.spec (Experiment.bank_hotspot.Experiment.build du))
      in
      History.is_well_formed h && Atomicity.is_online_dynamic_atomic env h

(* ------------------------------------------------------------------ *)
(* Prometheus label escaping: backslash, double quote and newline.     *)

let test_prometheus_label_escaping () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("k", "a\\b\"c\nd") ] "tm_x") 5;
  (* A raw newline surviving into the text would split the sample line. *)
  let samples =
    String.split_on_char '\n' (Metrics.to_prometheus reg)
    |> List.filter (fun l -> String.starts_with ~prefix:"tm_x" l)
  in
  Alcotest.(check (list string)) "escaped exposition line"
    [ {|tm_x{k="a\\b\"c\nd"} 5|} ]
    samples

(* ------------------------------------------------------------------ *)
(* Heat maps: engine wiring and the UIP-vs-DU comparison.              *)

(* The bench's OBS-A aggregation: one scenario under both semantic
   setups merged into a labelled registry. *)
let merged_registry scenario =
  let merged = Metrics.create () in
  List.iter
    (fun s ->
      let r = Experiment.run scenario s (small_cfg 7) in
      Metrics.merge
        ~extra_labels:[ ("scenario", r.Experiment.scenario); ("setup", r.Experiment.setup) ]
        merged r.Experiment.metrics)
    [ uip; du ];
  merged

let heatmaps_for scenario = Heatmap.of_metrics (merged_registry scenario)

let test_heatmap_comparison_two_adts () =
  List.iter
    (fun (scenario, obj) ->
      let maps = heatmaps_for scenario in
      check_bool "maps for both setups" true (List.length maps >= 2);
      let rows = Heatmap.comparison ~by:"setup" maps in
      check_bool "comparison non-empty" true (rows <> []);
      List.iter
        (fun (shared, variants) ->
          Alcotest.(check (option string)) "paired on the object" (Some obj)
            (List.assoc_opt "obj" shared);
          check_int "both setups present" 2 (List.length variants);
          List.iter
            (fun (_, m) -> check_bool "matrix non-empty" true (Heatmap.total m > 0))
            variants)
        rows)
    [ (Experiment.bank_hotspot, "BA"); (Experiment.queue_semiqueue, "SQ") ]

(* ------------------------------------------------------------------ *)
(* The exporter over ALL span kinds, the four 2PC kinds included
   (QCheck over the field values), with a label that needs escaping.   *)

let all_kinds_of_seed seed =
  let rng = Random.State.make [| seed; 0x2bc |] in
  let i n = Random.State.int rng n in
  let b () = Random.State.bool rng in
  let inv = Op.invocation ~args:[ Value.int (i 100) ] "deposit" in
  let op =
    Op.make ~obj:"BA" ~args:[ Value.int (i 100) ] "deposit" (Value.int (i 100))
  in
  [
    Trace.Begin;
    Trace.Invoke { obj = "BA"; inv };
    Trace.Executed { op };
    Trace.Blocked { obj = "BA"; inv; holders = [ Tid.of_int (i 9) ] };
    Trace.No_response { obj = "BA"; inv };
    Trace.Validating;
    Trace.Validated { ok = b () };
    Trace.Commit;
    Trace.Abort;
    Trace.Deadlock_victim { cycle = [ Tid.of_int (i 9); Tid.of_int (9 + i 9) ] };
    Trace.Lock_release { obj = "BA" };
    Trace.Wal_flush_wait { upto = i 1000 };
    Trace.Durable { lsn = i 1000 };
    Trace.Recovery_phase { phase = "scan"; wall_us = i 10_000; items = i 500 };
    Trace.Prepare_append { shard = i 8; gtid = i 40 };
    Trace.Prepare_force { shard = i 8; lsn = i 1000; gtid = i 40 };
    Trace.Decision_force { shard = i 8; lsn = i 1000; gtid = i 40; commit = b () };
    Trace.Completion { shard = i 8; gtid = i 40; commit = b () };
  ]

let all_kinds_gen = QCheck2.Gen.(int_bound 100_000)

let all_kinds_export_prop seed =
  let kinds = all_kinds_of_seed seed in
  (* one event per kind: the list above must never silently miss one *)
  List.length (List.sort_uniq compare (List.map Trace.kind_name kinds))
  = List.length kinds
  &&
  let tr = Trace.create () in
  List.iteri
    (fun idx k ->
      if idx mod 5 = 4 then Trace.emit_system tr k
      else Trace.emit tr ~tid:(Tid.of_int (idx mod 7)) k)
    kinds;
  exported_matches ~extra:[ ("setup", Fmt.str "q\"\\\n%d" seed) ] tr

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json ints stay ints" `Quick test_json_ints_stay_ints;
    Alcotest.test_case "trace jsonl lines parse back" `Quick
      test_jsonl_lines_parse_back;
    Alcotest.test_case "span kinds (locking)" `Quick test_span_kinds_locking;
    Alcotest.test_case "span kinds (occ validate)" `Quick test_span_kinds_occ;
    Alcotest.test_case "span kinds (durable, group commit)" `Quick
      test_span_kinds_durable_group_commit;
    Helpers.qcheck ~count:25 "durable trace replay passes the checker"
      durable_replay_gen durable_replay_prop;
    Alcotest.test_case "prometheus label escaping" `Quick
      test_prometheus_label_escaping;
    Alcotest.test_case "heat-map comparison (BA, SQ)" `Quick
      test_heatmap_comparison_two_adts;
    Helpers.qcheck ~count:50 "jsonl export over all span kinds"
      all_kinds_gen all_kinds_export_prop;
  ]
