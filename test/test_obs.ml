(* Observability: the metrics registry (bucketing, quantiles, labeled
   merging, Prometheus export), transaction tracing, and the round trip
   recorded trace -> history -> dynamic-atomicity checker. *)

open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
module Atomic_object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module Concurrent = Tm_engine.Concurrent
module Recovery = Tm_engine.Recovery
module Experiment = Tm_sim.Experiment
module BA = Tm_adt.Bank_account

let check_float = Alcotest.(check (float 1e-9))
let check_float_opt = Alcotest.(check (option (float 1e-9)))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Histogram bucketing and quantile estimation.                        *)

let test_histogram_bucketing () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 10.; 20.; 30. |] "h" in
  List.iter (Metrics.Histogram.observe h) [ 5.; 15.; 25. ];
  Helpers.check_int "count" 3 (Metrics.Histogram.count h);
  check_float "sum" 45. (Metrics.Histogram.sum h);
  (* rank 1.5 falls in (10,20] with one observation below: interpolates
     to the middle of the bucket *)
  check_float_opt "p50" (Some 15.) (Metrics.Histogram.quantile h 0.5);
  check_float_opt "p100" (Some 30.) (Metrics.Histogram.quantile h 1.0);
  check_float_opt "p0" (Some 0.) (Metrics.Histogram.quantile h 0.)

let test_histogram_overflow_clamp () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 10.; 20.; 30. |] "h" in
  Metrics.Histogram.observe h 1000.;
  (* everything in the overflow bucket: clamped to the largest bound *)
  check_float_opt "clamped" (Some 30.) (Metrics.Histogram.quantile h 0.5)

let test_histogram_empty_and_bad_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.; 2. |] "h" in
  check_float_opt "empty" None (Metrics.Histogram.quantile h 0.5);
  Alcotest.check_raises "non-increasing" (Invalid_argument
    "Metrics.histogram: bucket bounds must be strictly increasing") (fun () ->
      ignore (Metrics.histogram reg ~buckets:[| 2.; 2. |] "h2"))

(* Quantile estimator edges: single sample, extreme q, all-equal
   samples, and monotonicity in q. *)

let test_quantile_single_sample () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 10.; 20. |] "h" in
  Metrics.Histogram.observe h 5.;
  let q v =
    match Metrics.Histogram.quantile h v with
    | Some x -> x
    | None -> Alcotest.failf "quantile %g: None on non-empty histogram" v
  in
  check_float "q0 is the bucket's lower edge" 0. (q 0.);
  check_float "q1 is the bucket's upper edge" 10. (q 1.);
  Helpers.check_bool "q0.5 within the sample's bucket" true
    (q 0.5 > 0. && q 0.5 <= 10.)

let test_quantile_all_equal () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 5.; 10.; 20. |] "h" in
  for _ = 1 to 50 do
    Metrics.Histogram.observe h 7.
  done;
  (* every estimate interpolates inside the one occupied bucket *)
  List.iter
    (fun qv ->
      match Metrics.Histogram.quantile h qv with
      | Some x ->
          Helpers.check_bool (Fmt.str "q%g inside (5,10]" qv) true
            (x > 5. && x <= 10.)
      | None -> Alcotest.failf "q%g: None" qv)
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_quantile_monotone_in_q () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:Metrics.default_buckets "h" in
  List.iter
    (fun v -> Metrics.Histogram.observe h v)
    [ 0.5; 3.; 3.; 17.; 40.; 120.; 800.; 4000.; 9000. ];
  let last = ref neg_infinity in
  List.iter
    (fun qv ->
      match Metrics.Histogram.quantile h qv with
      | Some x ->
          Helpers.check_bool (Fmt.str "q%g >= previous" qv) true (x >= !last);
          last := x
      | None -> Alcotest.failf "q%g: None" qv)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Registry semantics: idempotent handles, labels, merging.            *)

(* The instruments on the commit path allocate nothing: a counter
   addition (an optional [~by] built [Some n], 2 words) and an integer
   observation (a boxed float, a closure for the bucket search and a
   boxed sum cost 10 words each). *)
let test_instrument_allocation () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" and h = Metrics.histogram reg "h" in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let n = Sys.opaque_identity 7 in
  let added = words (fun () -> Metrics.Counter.add c n) in
  let observed =
    words (fun () ->
        Metrics.Histogram.observe_int h n;
        Metrics.Histogram.observe_int h 6000)
  in
  if added > 0. then Alcotest.failf "Counter.add allocated %.0f words (max 0)" added;
  if observed > 0. then Alcotest.failf "two observe_int calls allocated %.0f words (max 0)" observed;
  Helpers.check_int "added" 7 (Metrics.Counter.get c);
  Helpers.check_int "observed" 2 (Metrics.Histogram.count h);
  check_float "sum" 6007. (Metrics.Histogram.sum h);
  Alcotest.(check string) "exported as by observe"
    (let g = Metrics.create () in
     let h = Metrics.histogram g "h" in
     List.iter (Metrics.Histogram.observe h) [ 7.; 6000. ];
     Metrics.to_prometheus g)
    (let g = Metrics.create () in
     let h = Metrics.histogram g "h" in
     List.iter (Metrics.Histogram.observe_int h) [ 7; 6000 ];
     Metrics.to_prometheus g)

(* A series resolves with one table lookup and builds no closure, and a
   label list already sorted by key is kept as it is.  Averaged over
   1,024 one-label counters, and counting the caller's label list (6
   words) and the [Some] around it (2), resolving an existing series
   costs 11 words (those 8 and its key, 3) and registering a new one
   19.8: 19 for those 11, its metric (2), counter (2) and table bucket
   (4), and 0.8 for the table's growth.  The pins allow 21 and 12.
   Resolving through two closures, a [List.sort_uniq] of the labels and
   a [find_opt] cost 47.8 and 38.0; a place in a registration order
   cost 3.4 more. *)
let test_series_resolution_allocation () =
  let n = 1024 in
  let objs = Array.init n (fun i -> "obj-" ^ string_of_int i) in
  let reg = Metrics.create () in
  let resolve_all () =
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (Metrics.counter reg ~labels:[ ("obj", objs.(i)) ] "c"))
    done
  in
  let per_series f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let registered = per_series resolve_all in
  let resolved = per_series resolve_all in
  if registered > 21. then
    Alcotest.failf "registering a labelled counter allocated %.1f words (max 21)" registered;
  if resolved > 12. then
    Alcotest.failf "resolving a labelled counter allocated %.1f words (max 12)" resolved;
  Helpers.check_int "one series per object" n (Metrics.fold reg (fun k _ _ _ -> k + 1) 0)

(* Counters kept in their owners' records read as keyed counters
   beside keyed series: the same series, values, totals, merge and
   text.  A record enrolled twice under one label set (an owner
   re-attached) reads as one series holding the sum.  [fold] walks the
   series in the order [to_prometheus] prints them, and the lookups
   agree with it.  A registry enrolls any number of (family, series)
   pairs. *)
type owned_counts = { obj : string; mutable hits : int; mutable misses : int }

let test_owned_counters_read_as_keyed () =
  let family =
    Metrics.family
      [|
        { Metrics.name = "hits_total"; labels = (fun r -> [ ("obj", r.obj) ]); read = (fun r -> r.hits) };
        { name = "misses_total"; labels = (fun r -> [ ("obj", r.obj); ("kind", "x") ]); read = (fun r -> r.misses) };
      |]
  in
  let owned = Metrics.create () and keyed = Metrics.create () in
  let a = { obj = "A"; hits = 0; misses = 0 } and b = { obj = "B"; hits = 0; misses = 0 } in
  let a' = { obj = "A"; hits = 0; misses = 0 } in
  let both f = f owned; f keyed in
  both (fun reg -> Metrics.Counter.incr (Metrics.counter reg "before_total"));
  Metrics.enroll owned family 0 a;
  a.hits <- 2;
  Metrics.Counter.add (Metrics.counter keyed ~labels:[ ("obj", "A") ] "hits_total") 2;
  both (fun reg -> Metrics.Gauge.set (Metrics.gauge reg "between") 1.5);
  Metrics.enroll owned family 1 b;
  b.misses <- 3;
  Metrics.Counter.add (Metrics.counter keyed ~labels:[ ("kind", "x"); ("obj", "B") ] "misses_total") 3;
  Metrics.enroll owned family 0 b;
  Metrics.enroll owned family 0 a';
  a'.hits <- 5;
  Metrics.Counter.add (Metrics.counter keyed ~labels:[ ("obj", "B") ] "hits_total") 0;
  Metrics.Counter.add (Metrics.counter keyed ~labels:[ ("obj", "A") ] "hits_total") 5;
  both (fun reg -> Metrics.Histogram.observe (Metrics.histogram reg ~buckets:[| 1. |] "after") 0.5);
  let series reg =
    List.rev
      (Metrics.fold reg
         (fun acc name labels m ->
           let v =
             match m with
             | Metrics.Counter c -> float_of_int (Metrics.Counter.get c)
             | Metrics.Gauge g -> Metrics.Gauge.get g
             | Metrics.Histogram h -> Metrics.Histogram.sum h
           in
           Fmt.str "%s%a %g" name Fmt.(Dump.list (Dump.pair string string)) labels v :: acc)
         [])
  in
  Alcotest.(check (list string)) "order and values" (series keyed) (series owned);
  Alcotest.(check string) "prometheus" (Metrics.to_prometheus keyed) (Metrics.to_prometheus owned);
  Helpers.check_int "a re-enrolled series sums" 7
    (Metrics.counter_value owned "hits_total" ~labels:[ ("obj", "A") ]);
  Helpers.check_int "labels in any order" 3
    (Metrics.counter_value owned "misses_total" ~labels:[ ("obj", "B"); ("kind", "x") ]);
  Helpers.check_int "family total" 7 (Metrics.counter_total owned "hits_total");
  let merged reg =
    let dst = Metrics.create () in
    Metrics.merge ~extra_labels:[ ("run", "1") ] dst reg;
    series dst
  in
  Alcotest.(check (list string)) "merged" (merged keyed) (merged owned);
  let sample name labels =
    Fmt.str "%s%s" name
      (if labels = [] then ""
       else
         "{" ^ String.concat "," (List.map (fun (k, v) -> Fmt.str "%s=%S" k v) labels) ^ "}")
  in
  List.iter
    (fun reg ->
      let walked =
        List.rev
          (Metrics.fold reg
             (fun acc name labels m ->
               match m with
               | Metrics.Histogram _ -> sample (name ^ "_count") labels :: acc
               | Metrics.Counter _ | Metrics.Gauge _ -> sample name labels :: acc)
             [])
      in
      let printed =
        List.filter_map
          (fun line ->
            match String.rindex_opt line ' ' with
            | Some i when List.mem (String.sub line 0 i) walked -> Some (String.sub line 0 i)
            | Some _ | None -> None)
          (String.split_on_char '\n' (Metrics.to_prometheus reg))
      in
      Alcotest.(check (list string)) "fold walks the printed order" printed walked;
      let counters =
        Metrics.fold reg
          (fun acc name labels m ->
            match m with
            | Metrics.Counter c -> (name, labels, Metrics.Counter.get c) :: acc
            | Metrics.Gauge _ | Metrics.Histogram _ -> acc)
          []
      in
      List.iter
        (fun (name, labels, v) ->
          Helpers.check_int (sample name labels ^ ": counter_value = fold") v
            (Metrics.counter_value reg name ~labels);
          Helpers.check_int (name ^ ": counter_total = fold")
            (List.fold_left (fun acc (n, _, v) -> if n = name then acc + v else acc) 0 counters)
            (Metrics.counter_total reg name))
        counters)
    [ keyed; owned ];
  a.hits <- 4;
  Helpers.check_int "a read sees the record now" 9 (Metrics.counter_total owned "hits_total");
  let wide =
    Metrics.family
      (Array.init 256 (fun i ->
           { Metrics.name = Fmt.str "s%03d_total" i; labels = (fun _ -> []); read = (fun r -> r.hits) }))
  in
  let reg = Metrics.create () in
  for i = 0 to 255 do
    Metrics.enroll reg wide i a
  done;
  Helpers.check_int "a 256th series enrolls" 256 (Metrics.fold reg (fun k _ _ _ -> k + 1) 0);
  Helpers.check_int "and reads" 4 (Metrics.counter_value reg "s255_total")

let test_counter_idempotent_and_labels () =
  let reg = Metrics.create () in
  let c1 = Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "c" in
  (* same series under reordered labels *)
  let c2 = Metrics.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "c" in
  Metrics.Counter.incr c1;
  Metrics.Counter.add c2 2;
  Helpers.check_int "one series" 3
    (Metrics.counter_value reg ~labels:[ ("a", "1"); ("b", "2") ] "c");
  Helpers.check_int "absent reads 0" 0 (Metrics.counter_value reg "absent");
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("a", "other") ] "c") 10;
  Helpers.check_int "family total" 13 (Metrics.counter_total reg "c")

let test_type_clash () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.check_raises "counter as gauge" (Invalid_argument
    "Metrics: x already registered as a counter, requested as a gauge") (fun () ->
      ignore (Metrics.gauge reg "x"))

let test_merge () =
  let src = Metrics.create () in
  Metrics.Counter.add (Metrics.counter src ~labels:[ ("k", "v") ] "c") 3;
  Metrics.Gauge.set (Metrics.gauge src "g") 7.;
  let hs = Metrics.histogram src ~buckets:[| 1.; 2. |] "h" in
  Metrics.Histogram.observe hs 1.5;
  let dst = Metrics.create () in
  Metrics.Counter.add (Metrics.counter dst ~labels:[ ("k", "v"); ("run", "a") ] "c") 2;
  Metrics.merge ~extra_labels:[ ("run", "a") ] dst src;
  Helpers.check_int "counters accumulate" 5
    (Metrics.counter_value dst ~labels:[ ("k", "v"); ("run", "a") ] "c");
  check_float_opt "gauge copied" (Some 7.)
    (Metrics.gauge_value dst ~labels:[ ("run", "a") ] "g");
  let hd = Metrics.histogram dst ~labels:[ ("run", "a") ] ~buckets:[| 1.; 2. |] "h" in
  Helpers.check_int "histogram accumulates" 1 (Metrics.Histogram.count hd);
  (* merging again doubles the counter *)
  Metrics.merge ~extra_labels:[ ("run", "a") ] dst src;
  Helpers.check_int "second merge" 8
    (Metrics.counter_value dst ~labels:[ ("k", "v"); ("run", "a") ] "c")

let test_merge_bucket_mismatch () =
  let src = Metrics.create () in
  ignore (Metrics.histogram src ~buckets:[| 1.; 2. |] "h");
  let dst = Metrics.create () in
  ignore (Metrics.histogram dst ~buckets:[| 5.; 6. |] "h");
  Alcotest.check_raises "bucket mismatch" (Invalid_argument
    "Metrics: histogram h re-registered with different buckets") (fun () ->
      Metrics.merge dst src)

let test_prometheus_export () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("obj", "BA") ] "tm_c") 4;
  let h = Metrics.histogram reg ~buckets:[| 1.; 2. |] "tm_h" in
  Metrics.Histogram.observe h 1.5;
  let out = Metrics.to_prometheus reg in
  List.iter
    (fun needle -> Helpers.check_bool needle true (contains out needle))
    [
      "# TYPE tm_c counter";
      "tm_c{obj=\"BA\"} 4";
      "# TYPE tm_h histogram";
      "tm_h_bucket{le=\"1\"} 0";
      "tm_h_bucket{le=\"2\"} 1";
      "tm_h_bucket{le=\"+Inf\"} 1";
      "tm_h_sum 1.5";
      "tm_h_count 1";
    ]

(* ------------------------------------------------------------------ *)
(* Engine wiring: database counters and trace spans.                   *)

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"

let make_db () =
  Database.create
    [
      Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ();
    ]

let test_database_counters_registry_backed () =
  let db = make_db () in
  let t = Database.begin_txn db in
  (match Database.invoke db t ~obj:"BA" (deposit_inv 5) with
  | Atomic_object.Executed _ -> ()
  | _ -> Alcotest.fail "deposit should execute");
  Database.commit db t;
  let u = Database.begin_txn db in
  ignore (Database.invoke db u ~obj:"BA" (deposit_inv 1));
  Database.abort db u;
  let reg = Database.metrics db in
  Helpers.check_int "committed_count" 1 (Database.committed_count db);
  Helpers.check_int "backing counter" 1
    (Metrics.counter_value reg "tm_txn_committed_total");
  Helpers.check_int "aborted_count" 1 (Database.aborted_count db);
  Helpers.check_int "aborted counter" 1
    (Metrics.counter_value reg "tm_txn_aborted_total");
  Helpers.check_int "begins" 2 (Metrics.counter_value reg "tm_txn_begins_total");
  Helpers.check_int "executed invocations" 2
    (Metrics.counter_value reg ~labels:[ ("outcome", "executed") ]
       "tm_invocations_total")

let test_trace_spans () =
  let db = make_db () in
  let tr = Trace.create () in
  Database.set_trace db tr;
  let t = Database.begin_txn db in
  ignore (Database.invoke db t ~obj:"BA" (deposit_inv 5));
  Database.commit db t;
  let kinds = List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events tr) in
  Alcotest.(check (list string)) "span sequence"
    [ "begin"; "invoke"; "executed"; "lock_release"; "commit" ]
    kinds;
  (* timestamps are the monotonic emission order *)
  Alcotest.(check (list int)) "timestamps" [ 0; 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.ts) (Trace.events tr));
  let json = Trace.to_jsonl ~extra:[ ("setup", "UIP+NRBC") ] tr in
  List.iter
    (fun needle -> Helpers.check_bool needle true (contains json needle))
    [ "\"event\":\"begin\""; "\"event\":\"executed\""; "\"setup\":\"UIP+NRBC\"" ];
  (* A partial operation with no legal response leaves a no_response
     span naming the object, and nothing after it. *)
  let q =
    Atomic_object.create ~spec:Tm_adt.Fifo_queue.spec
      ~conflict:Tm_adt.Fifo_queue.nrbc_conflict ~recovery:Recovery.UIP ()
  in
  let obj = Atomic_object.name q in
  let qdb = Database.create [ q ] in
  let qtr = Trace.create () in
  Database.set_trace qdb qtr;
  let u = Database.begin_txn qdb in
  ignore (Database.invoke qdb u ~obj (Op.invocation "deq"));
  match List.map (fun e -> e.Trace.kind) (Trace.events qtr) with
  | [ Trace.Begin; Trace.Invoke _; Trace.No_response { obj = o; _ } ] ->
      Alcotest.(check string) "no_response names the object" obj o
  | _ -> Alcotest.fail "an empty dequeue should end in a no_response span"

let test_concurrent_accessors () =
  let db =
    Concurrent.create
      (Tm_engine.Sharded_database.create ~wals:[| Tm_engine.Wal.create () |]
         [
           Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
             ~recovery:Recovery.UIP ();
         ])
  in
  (match
     Concurrent.with_txn db (fun h ->
         Concurrent.invoke h ~obj:"BA" (deposit_inv 5))
   with
  | Ok _ -> ()
  | Error (`Gave_up _) -> Alcotest.fail "unexpected abort");
  Helpers.check_int "committed" 1 (Concurrent.committed_count db);
  Helpers.check_int "no victims" 0 (Concurrent.deadlock_victim_count db);
  Helpers.check_int "no retries" 0 (Concurrent.retry_count db)

let test_scheduler_row_counters () =
  let cfg = Experiment.config ~concurrency:8 ~total_txns:60 ~seed:11 () in
  let row =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Recovery.UIP Experiment.Semantic)
      cfg
  in
  Helpers.check_bool "consistent" true row.Experiment.consistent;
  let s = row.Experiment.stats in
  Helpers.check_int "every program commits, gives up or goes unanswered" 60
    (s.committed + s.gave_up + s.unanswered);
  Helpers.check_bool "victims retried or given up" true
    (s.deadlock_victims + s.stall_victims <= s.retries + s.gave_up);
  Helpers.check_int "attempts split by outcome" s.attempts
    (s.executed + s.blocked + s.no_response);
  (* each committed program steps 3 invocations and a commit; 8 fibers *)
  Helpers.check_bool "rounds bound the work" true (s.rounds * 8 >= s.committed * 4);
  Helpers.check_int "rounds counter" s.rounds
    (Metrics.counter_value row.Experiment.metrics "tm_sched_rounds_total")

(* ------------------------------------------------------------------ *)
(* Self-describing artifact headers: both forms parse back.            *)

module Artifact = Tm_obs.Artifact

let test_artifact_roundtrip () =
  let meta =
    Artifact.make ~schema:Artifact.trace_schema ~binary:"test.exe" ~seed:42
      ~config:[ ("txns", "7") ] ()
  in
  let module Json = Tm_obs.Json in
  let check_meta what line =
    match Json.parse line with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok j ->
        let field k = Option.bind (Json.member "meta" j) (Json.member k) in
        Alcotest.(check (option string)) (what ^ " schema") (Some Artifact.trace_schema)
          (Option.bind (field "schema") Json.to_str);
        Alcotest.(check (option string)) (what ^ " binary") (Some "test.exe")
          (Option.bind (field "binary") Json.to_str);
        Alcotest.(check (option int)) (what ^ " seed") (Some 42)
          (Option.bind (field "seed") Json.to_int);
        Alcotest.(check (option string)) (what ^ " config") (Some "7")
          (Option.bind (Option.bind (field "config") (Json.member "txns")) Json.to_str)
  in
  check_meta "jsonl header" (Artifact.header_line meta);
  (* The Prometheus form is the same object behind a comment marker. *)
  let prom = Artifact.prom_header meta in
  let magic = "# tm-meta " in
  let n = String.length magic in
  Alcotest.(check string) "prom comment marker" magic (String.sub prom 0 n);
  check_meta "prom header" (String.sub prom n (String.length prom - n))

(* ------------------------------------------------------------------ *)
(* The metrics catalog: live registries must match it.                 *)

module Catalog = Tm_obs.Catalog

let test_catalog_covers_live_registries () =
  (* a scheduler run exercises txn / lock / object / scheduler families *)
  let cfg = Experiment.config ~concurrency:8 ~total_txns:80 ~seed:3 () in
  let row =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Recovery.UIP Experiment.Semantic)
      cfg
  in
  (* an optimistic run adds the validation family *)
  let occ_row =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup ~occ:true Recovery.DU Experiment.Semantic)
      cfg
  in
  List.iter
    (fun (what, reg) ->
      match Catalog.check reg with
      | Ok () -> ()
      | Error ps -> Alcotest.failf "%s registry:@.%s" what (String.concat "\n" ps))
    [ ("scheduler", row.Experiment.metrics); ("optimistic", occ_row.Experiment.metrics) ];
  (* a durable run + profiled restart exercises wal / storage / recovery
     / profiler families *)
  let store = Tm_engine.Storage.memory () in
  let dw = Tm_engine.Disk_wal.create store in
  let wal = Tm_engine.Disk_wal.wal dw in
  let rebuild () =
    [
      Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ();
    ]
  in
  let module Shard = Tm_engine.Shard in
  let db = Shard.create ~wal (rebuild ()) in
  let a = Shard.begin_txn db in
  ignore (Shard.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "commit" true (Shard.try_commit db a = Ok ());
  Shard.checkpoint db;
  (match Catalog.check (Database.metrics (Shard.database db)) with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "durable registry:@.%s" (String.concat "\n" ps));
  let profile = Tm_obs.Recovery_profile.create () in
  (match
     Tm_engine.Disk_wal.load ~profile (Tm_engine.Storage.of_string
      (Tm_engine.Storage.read_all store))
  with
  | Error _ -> Alcotest.fail "load failed"
  | Ok loaded -> (
      match
        Shard.recover ~profile ~wal:(Tm_engine.Disk_wal.wal loaded) ~rebuild ()
      with
      | Error _ -> Alcotest.fail "recover failed"
      | Ok (db', _) -> (
          match Catalog.check (Database.metrics (Shard.database db')) with
          | Ok () -> ()
          | Error ps ->
              Alcotest.failf "recovered registry:@.%s" (String.concat "\n" ps))));
  (* a sharded recovery that resolves an in-doubt transaction adds the
     2PC resolution family, and a log on faulty storage the fault family *)
  let audit what family reg =
    Helpers.check_bool (what ^ " registers " ^ family) true
      (Metrics.counter_total reg family > 0);
    match Catalog.check reg with
    | Ok () -> ()
    | Error ps -> Alcotest.failf "%s registry:@.%s" what (String.concat "\n" ps)
  in
  let module Wal = Tm_engine.Wal in
  let accounts = List.init 4 (Fmt.str "BA%d") in
  let home s = List.find (fun o -> Tm_engine.Sharded_database.home_shard ~shards:2 o = s) accounts in
  let wals = Array.init 2 (fun _ -> Wal.create ()) in
  Array.iteri
    (fun s wal ->
      let dep = Op.make ~obj:(home s) ~args:[ Value.int 5 ] "deposit" Value.ok in
      List.iter (Wal.append wal)
        [ Wal.Begin Tid.a; Wal.Operation (Tid.a, dep); Wal.Prepare Tid.a ])
    wals;
  Wal.append wals.(0) (Wal.Decision { tid = Tid.a; commit = true });
  let rebuild () =
    List.map
      (fun name ->
        Atomic_object.create ~spec:(Spec.rename BA.spec name) ~conflict:BA.nrbc_conflict
          ~recovery:Recovery.UIP ())
      accounts
  in
  (match Tm_engine.Sharded_database.recover ~wals ~rebuild () with
  | Error _ -> Alcotest.fail "sharded recover failed"
  | Ok (sdb, _) ->
      audit "sharded recovery" "tm_2pc_resolved_total"
        (Tm_engine.Sharded_database.metrics sdb));
  let faulty =
    Tm_engine.Storage.faulty ~seed:7 Tm_engine.Storage.write_faults (Tm_engine.Storage.memory ())
  in
  let fwal = Tm_engine.Disk_wal.wal (Tm_engine.Disk_wal.create faulty) in
  let freg = Metrics.create () in
  Wal.attach_metrics fwal freg;
  for i = 0 to 19 do
    let t = Tid.of_int i in
    List.iter (Wal.append fwal) [ Wal.Begin t; Wal.Operation (t, BA.deposit 1); Wal.Commit t ];
    Wal.force fwal
  done;
  audit "faulty storage" "tm_storage_faults_total" freg

let test_catalog_rejects_strays () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "tm_not_in_catalog_total");
  (* catalogued name registered with the wrong kind *)
  ignore (Metrics.gauge reg "tm_txn_begins_total");
  (* catalogued name missing its declared label key *)
  ignore (Metrics.counter reg ~labels:[ ("other", "x") ] "tm_lock_conflicts_total");
  match Catalog.check reg with
  | Ok () -> Alcotest.fail "stray metrics accepted"
  | Error ps ->
      (* one for the unknown name, one for the kind clash, one per
         missing label key of tm_lock_conflicts_total *)
      Helpers.check_int "five violations" 5 (List.length ps);
      Helpers.check_bool "unknown name reported" true
        (List.exists (fun p -> contains p "tm_not_in_catalog_total") ps);
      Helpers.check_bool "kind mismatch reported" true
        (List.exists (fun p -> contains p "tm_txn_begins_total") ps);
      Helpers.check_bool "label mismatch reported" true
        (List.exists (fun p -> contains p "tm_lock_conflicts_total") ps)

let test_catalog_markdown_mentions_everything () =
  let md = Catalog.to_markdown () in
  List.iter
    (fun (e : Catalog.entry) ->
      Helpers.check_bool e.Catalog.name true (contains md e.Catalog.name))
    Catalog.all

(* ------------------------------------------------------------------ *)
(* Round trip: recorded trace -> history -> dynamic-atomicity checker. *)

let roundtrip_setups =
  [
    Experiment.setup Recovery.UIP Experiment.Semantic;
    Experiment.setup Recovery.DU Experiment.Semantic;
    Experiment.setup ~occ:true Recovery.DU Experiment.Semantic;
    Experiment.setup Recovery.UIP Experiment.Read_write;
  ]

let roundtrip_scenarios =
  [ Experiment.bank_hotspot; Experiment.inventory; Experiment.kv_store () ]

let trace_roundtrip_gen =
  QCheck2.Gen.(
    triple (int_bound 10_000)
      (oneofl roundtrip_setups)
      (oneofl roundtrip_scenarios))

let trace_roundtrip_prop (seed, s, scenario) =
  let cfg =
    Experiment.config ~concurrency:3 ~total_txns:4 ~seed ~max_retries:4 ()
  in
  let row = Experiment.run ~record_trace:true scenario s cfg in
  match row.Experiment.trace with
  | None -> false
  | Some tr ->
      let h = Trace.to_history tr in
      let env =
        Atomicity.env_of_list
          (List.map Atomic_object.spec (scenario.Experiment.build s))
      in
      History.is_well_formed h && Atomicity.is_online_dynamic_atomic env h

let suite =
  [
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram overflow clamp" `Quick test_histogram_overflow_clamp;
    Alcotest.test_case "histogram empty / bad buckets" `Quick
      test_histogram_empty_and_bad_buckets;
    Alcotest.test_case "quantile: single sample" `Quick test_quantile_single_sample;
    Alcotest.test_case "quantile: all-equal samples" `Quick test_quantile_all_equal;
    Alcotest.test_case "quantile: monotone in q" `Quick test_quantile_monotone_in_q;
    Alcotest.test_case "artifact header round trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "catalog covers live registries" `Quick
      test_catalog_covers_live_registries;
    Alcotest.test_case "catalog rejects strays" `Quick test_catalog_rejects_strays;
    Alcotest.test_case "catalog markdown complete" `Quick
      test_catalog_markdown_mentions_everything;
    Alcotest.test_case "labeled counters" `Quick test_counter_idempotent_and_labels;
    Alcotest.test_case "owned counters read as keyed" `Quick test_owned_counters_read_as_keyed;
    Alcotest.test_case "instrument allocation pin" `Quick test_instrument_allocation;
    Alcotest.test_case "series resolution allocation pin" `Quick
      test_series_resolution_allocation;
    Alcotest.test_case "type clash" `Quick test_type_clash;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge bucket mismatch" `Quick test_merge_bucket_mismatch;
    Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
    Alcotest.test_case "database counters registry-backed" `Quick
      test_database_counters_registry_backed;
    Alcotest.test_case "trace spans" `Quick test_trace_spans;
    Alcotest.test_case "concurrent accessors" `Quick test_concurrent_accessors;
    Alcotest.test_case "scheduler row counters" `Quick test_scheduler_row_counters;
    Helpers.qcheck ~count:30 "trace -> history round trip accepted by checker"
      trace_roundtrip_gen trace_roundtrip_prop;
  ]
