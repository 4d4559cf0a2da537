(* weihl: the paper's tools as subcommands of one command line —
   tables, explore, modelcheck and simulate (see weihl --help).  Every
   named value (type, scenario, view, conflict relation, recovery
   method) goes through one lookup, [named], so an unknown name is
   refused the same way everywhere. *)

open Tm_core
open Cmdliner
module Registry = Tm_adt.Registry
module Experiment = Tm_sim.Experiment
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Trace = Tm_obs.Trace

(* A value named, case-insensitively, by its key in [table]; a name not
   there is refused with the names that are.  A default must be a value
   of [table] itself: it is printed by finding it there, as the values
   may hold functions. *)
let named what table =
  let key = String.lowercase_ascii in
  let parse s =
    match List.find_opt (fun (n, _) -> String.equal (key n) (key s)) table with
    | Some (_, x) -> Ok x
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown %s %S; try one of %s" what s
               (String.concat ", " (List.map fst table))))
  in
  Arg.conv (parse, fun ppf x -> Fmt.string ppf (fst (List.find (fun (_, y) -> y == x) table)))

let type_arg =
  let types = List.map (fun (e : Registry.entry) -> (e.name, e)) Registry.all in
  Arg.(
    value
    & pos 0 (named "type" types) (List.assoc "BA" types)
    & info [] ~docv:"TYPE" ~doc:"Object type (see $(b,weihl tables --list)).")

let depth_arg =
  Arg.(
    value & opt int 5
    & info [ "depth" ]
        ~doc:"Exploration bound: context length, distinguishing-future length and \
              reachable-word length.")

let params depth = Commutativity.params ~alpha_depth:depth ~future_depth:depth ()

let tables (e : Registry.entry) list depth =
  if list then begin
    Fmt.pr "Available types:@.";
    List.iter (fun (e : Registry.entry) -> Fmt.pr "  %-4s %s@." e.name e.description) Registry.all
  end
  else begin
    let fc = Commutativity.fc_table e.spec (params depth) e.classes in
    let rbc = Commutativity.rbc_table e.spec (params depth) e.classes in
    Fmt.pr "Forward commutativity for %s (X = do not commute forward):@.%a@." e.name
      Commutativity.pp_table fc;
    Fmt.pr
      "Right backward commutativity for %s (X = row does not right commute \
       backward with column):@.%a@."
      e.name Commutativity.pp_table rbc;
    if String.equal e.name "BA" then begin
      Fmt.pr "Figure 6-1 reproduced: %b@."
        (Commutativity.equal_table fc Tm_adt.Bank_account.paper_fc_table);
      Fmt.pr "Figure 6-2 reproduced: %b@."
        (Commutativity.equal_table rbc Tm_adt.Bank_account.paper_rbc_table)
    end
  end

let tables_cmd =
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List the registered types.") in
  Cmd.v
    (Cmd.info "tables" ~doc:"print commutativity tables computed from a serial specification")
    Term.(const tables $ type_arg $ list $ depth_arg)

let show_reachable (e : Registry.entry) depth =
  let (Spec.Packed { m = (module S); _ }) = e.spec in
  let reached = Explore.reachable (module S) ~depth ~alphabet:(Spec.generators e.spec) in
  Fmt.pr "%d distinct reachable state-sets within depth %d:@." (List.length reached) depth;
  List.iter
    (fun (word, sts) ->
      Fmt.pr "  @[<h>[%a] -> {%a}@]@."
        Fmt.(list ~sep:(any "; ") Op.pp_short)
        word
        Fmt.(list ~sep:(any ", ") S.pp_state)
        sts)
    reached

let show_conflicts (e : Registry.entry) =
  let ops = Spec.generators e.spec in
  let show name (rel : Conflict.t) =
    Fmt.pr "%s conflicts (requested / held):@." name;
    List.iter
      (fun p ->
        List.iter
          (fun q ->
            if Conflict.conflicts rel ~requested:p ~held:q then
              Fmt.pr "  %a  vs  %a@." Op.pp_short p Op.pp_short q)
          ops)
      ops
  in
  show "NFC" e.nfc;
  show "NRBC" e.nrbc

let find_op (e : Registry.entry) text =
  let candidates = Spec.generators e.spec in
  match
    List.find_opt (fun op -> String.equal (Fmt.str "%a" Op.pp_short op) text) candidates
  with
  | Some op -> op
  | None ->
      Fmt.epr "unknown operation %S; generator alphabet:@." text;
      List.iter (fun op -> Fmt.epr "  %a@." Op.pp_short op) candidates;
      exit 1

let show_witness (e : Registry.entry) beta gamma depth =
  let b = find_op e beta and g = find_op e gamma in
  Fmt.pr "forward commutativity of %a and %a: %a@." Op.pp_short b Op.pp_short g
    Commutativity.pp_verdict
    (Commutativity.commute_forward e.spec (params depth) b g);
  Fmt.pr "%a right-commutes-backward with %a: %a@." Op.pp_short b Op.pp_short g
    Commutativity.pp_verdict
    (Commutativity.right_commutes_backward e.spec (params depth) b g)

let explore e depth reachable conflicts pair =
  match pair with
  | Some (beta, gamma) -> show_witness e beta gamma depth
  | None ->
      if reachable then show_reachable e depth;
      if conflicts then show_conflicts e;
      if (not reachable) && not conflicts then begin
        show_reachable e (min depth 3);
        show_conflicts e
      end

(* "OP1,OP2" split at the one comma outside every parenthesis and
   bracket, so an operation such as put(j,1)→ok keeps its own commas. *)
let op_pair =
  let parse s =
    let rec split i depth =
      if i = String.length s then
        Error (`Msg (Fmt.str "expected OP1,OP2 with a comma outside brackets: '%s'" s))
      else
        match s.[i] with
        | '(' | '[' -> split (i + 1) (depth + 1)
        | ')' | ']' -> split (i + 1) (depth - 1)
        | ',' when depth = 0 ->
            Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
        | _ -> split (i + 1) depth
    in
    split 0 0
  in
  Arg.conv (parse, fun ppf (a, b) -> Fmt.pf ppf "%s,%s" a b)

let explore_cmd =
  let reachable = Arg.(value & flag & info [ "reachable" ] ~doc:"Show reachable state-sets.") in
  let conflicts = Arg.(value & flag & info [ "conflicts" ] ~doc:"List conflict pairs.") in
  let pair =
    Arg.(
      value
      & opt (some op_pair) None
      & info [ "pair" ] ~docv:"OP1,OP2"
          ~doc:"Decide commutativity of two operations (pp-short syntax, e.g. \
                'withdraw(1)\xe2\x86\x92ok,deposit(1)\xe2\x86\x92ok'), split at the \
                comma outside every parenthesis and bracket.")
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"explore a serial specification and its conflict relations")
    Term.(const explore $ type_arg $ depth_arg $ reachable $ conflicts $ pair)

(* modelcheck: Theorems 9 and 10 made push-button.  Enumerates (and
   randomly samples) the histories the implementation model admits and
   checks each for online dynamic atomicity: sound combinations report
   no violation, unsound ones print a non-serializable history and exit
   with status 2. *)

let views = [ ("uip", View.uip); ("du", View.du) ]

let conflicts : (string * (Registry.entry -> Conflict.t)) list =
  [
    ("nrbc", fun e -> e.nrbc);
    ("nfc", fun e -> e.nfc);
    ("rw", fun e -> e.rw);
    ("none", fun _ -> Conflict.none);
    ("all", fun _ -> Conflict.all);
  ]

let modelcheck (e : Registry.entry) view conflict txns ops max_events limit random_walks steps
    seed =
  let conflict = conflict e in
  let i = Impl_model.make ~spec:e.spec ~view ~conflict in
  let env = Atomicity.env_of_list [ e.spec ] in
  let tids = List.init txns Tid.of_int in
  let violations = ref 0 in
  let checked = ref 0 in
  let check h =
    incr checked;
    match Atomicity.online_dynamic_atomic env h with
    | Atomicity.Ok -> ()
    | Atomicity.Ill_formed why -> invalid_arg ("modelcheck: " ^ why)
    | Atomicity.Counterexample order ->
        incr violations;
        if !violations = 1 then
          Fmt.pr "@.VIOLATION — not serializable in %a:@.%a@.@."
            Fmt.(list ~sep:(any "-") Tid.pp)
            order History.pp h
  in
  Fmt.pr "model checking I(%s, Spec, %s, %s): %d txns x %d ops, <=%d events@." e.name
    (View.name view) (Conflict.name conflict) txns ops max_events;
  List.iter check (Impl_model.enumerate i ~txns:tids ~ops_per_txn:ops ~max_events ~limit);
  Fmt.pr "enumerated: %d histories@." !checked;
  if random_walks > 0 then begin
    let rng = Random.State.make [| seed |] in
    let before = !checked in
    for _ = 1 to random_walks do
      check (Impl_model.random i ~txns:tids ~ops_per_txn:ops ~steps ~rng)
    done;
    Fmt.pr "random walks: %d@." (!checked - before)
  end;
  if !violations = 0 then Fmt.pr "no violations: every history online dynamic atomic@."
  else begin
    Fmt.pr "%d violating histories@." !violations;
    exit 2
  end

let modelcheck_cmd =
  let view =
    Arg.(
      value
      & opt (named "view" views) View.uip
      & info [ "view" ] ~docv:"uip|du" ~doc:"Recovery view.")
  in
  let conflict =
    Arg.(
      value
      & opt (named "conflict" conflicts) (List.assoc "nrbc" conflicts)
      & info [ "conflict" ] ~docv:"nrbc|nfc|rw|none|all" ~doc:"Conflict relation.")
  in
  let int_opt name default doc = Arg.(value & opt int default & info [ name ] ~doc) in
  Cmd.v
    (Cmd.info "modelcheck" ~doc:"bounded model checking of the paper's implementation model")
    Term.(
      const modelcheck $ type_arg $ view $ conflict
      $ int_opt "txns" 2 "Transactions."
      $ int_opt "ops" 2 "Operations per transaction."
      $ int_opt "max-events" 8 "History length bound."
      $ int_opt "limit" 5000 "Enumeration budget."
      $ int_opt "random" 50 "Additional random walks."
      $ int_opt "steps" 20 "Steps per random walk."
      $ int_opt "seed" 11 "PRNG seed.")

(* simulate: with --metrics the registries of all runs are merged (rows
   distinguished by scenario/setup labels) into one Prometheus snapshot;
   with --trace every run records its spans, dumped as JSON lines, and
   each trace is replayed through Trace.to_history and re-checked
   against the paper's dynamic-atomicity definition. *)

let scenarios =
  Experiment.all_scenarios
  @ List.map (fun w -> Experiment.bank_sweep ~withdraw_pct:w) [ 0; 25; 50; 75; 100 ]
  @ List.map (fun d -> Experiment.inventory_sweep ~decr_pct:d) [ 0; 25; 50; 75; 100 ]

let check_traces ~specs rows =
  let env = Atomicity.env_of_list specs in
  List.iter
    (fun (r : Experiment.row) ->
      match r.Experiment.trace with
      | None -> ()
      | Some tr ->
          let h = Trace.to_history tr in
          let verdict =
            match Atomicity.online_dynamic_atomic env h with
            | Atomicity.Ill_formed _ -> "history NOT WELL-FORMED"
            | Atomicity.Ok -> "well-formed, dynamically atomic"
            | Atomicity.Counterexample _ -> "well-formed, NOT DYNAMICALLY ATOMIC"
          in
          Fmt.pr "trace %-24s %-10s %5d events -> %s@." r.scenario r.setup
            (Trace.length tr) verdict)
    rows

let simulate (scenario : Experiment.scenario) list_only recovery choice occ concurrency txns
    seed metrics_file trace_file =
  if list_only then begin
    Fmt.pr "Available scenarios:@.";
    List.iter (fun (s : Experiment.scenario) -> Fmt.pr "  %s@." s.name) scenarios
  end
  else begin
    let cfg = Experiment.config ~concurrency ~total_txns:txns ~seed () in
    let record_trace = trace_file <> None in
    let rows =
      match recovery, choice, occ with
      | None, None, false -> Experiment.run_matrix ~record_trace scenario cfg
      | _ ->
          let recovery = Option.value recovery ~default:(if occ then Recovery.DU else UIP) in
          let choice = Option.value choice ~default:Experiment.Semantic in
          [ Experiment.run ~record_trace scenario (Experiment.setup ~occ recovery choice) cfg ]
    in
    Fmt.pr "%a@." Experiment.pp_table rows;
    let config =
      [
        ("scenario", scenario.name);
        ("concurrency", string_of_int concurrency);
        ("txns", string_of_int txns);
      ]
    in
    Option.iter
      (fun f -> Cli_util.write_metrics ~seed ~config f (Cli_util.prom_of_rows rows))
      metrics_file;
    Option.iter
      (fun f ->
        Cli_util.write_traces ~seed ~config f (Cli_util.jsonl_of_rows rows);
        (* Specs don't depend on the setup, so any build serves as the
           checker environment. *)
        let specs =
          List.map Atomic_object.spec (scenario.build (Experiment.setup Recovery.UIP Semantic))
        in
        check_traces ~specs rows)
      trace_file
  end

let simulate_cmd =
  let scenario =
    let table = List.map (fun (s : Experiment.scenario) -> (s.name, s)) scenarios in
    Arg.(
      value
      & pos 0 (named "scenario" table) (List.assoc "bank-hotspot" table)
      & info [] ~docv:"SCENARIO" ~doc:"Scenario name (see --list).")
  in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List scenarios.") in
  let recovery =
    Arg.(
      value
      & opt (some (named "recovery method" [ ("uip", Recovery.UIP); ("du", Recovery.DU) ])) None
      & info [ "recovery" ] ~docv:"uip|du" ~doc:"Recovery method (default: run the full matrix).")
  in
  let choice =
    Arg.(
      value
      & opt
          (some
             (named "conflict choice"
                [
                  ("semantic", Experiment.Semantic);
                  ("rw", Experiment.Read_write);
                  ("all", Experiment.Total);
                ]))
          None
      & info [ "conflict" ] ~docv:"semantic|rw|all" ~doc:"Conflict relation choice.")
  in
  let occ =
    Arg.(value & flag & info [ "occ" ] ~doc:"Optimistic execution (implies deferred update).")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "concurrency"; "c" ] ~doc:"Concurrent transactions.")
  in
  let txns = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"Transactions to run.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed.") in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a merged Prometheus text snapshot of all runs to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record transaction spans, write them to $(docv) as JSON lines, and \
             re-check each trace against the dynamic-atomicity definition.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"run a transaction-engine scenario and print its statistics")
    Term.(
      const simulate $ scenario $ list $ recovery $ choice $ occ $ concurrency $ txns $ seed
      $ metrics $ trace)

let () =
  let doc = "commutativity tables, specifications, model checking and engine scenarios" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "weihl" ~doc) [ tables_cmd; explore_cmd; modelcheck_cmd; simulate_cmd ]))
