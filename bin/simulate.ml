(* simulate: run an engine scenario from the command line and print the
   comparison matrix (or a single configured run).

   With --metrics FILE the registries of all runs are merged (rows
   distinguished by scenario/setup labels) and written as a Prometheus
   text snapshot; with --trace FILE every run records transaction spans,
   dumped as JSON lines, and each trace is replayed through
   Trace.to_history and re-checked against the paper's dynamic-atomicity
   definition (the full check is exponential, so it only runs on small
   histories — well-formedness is always verified). *)

module Experiment = Tm_sim.Experiment
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
open Tm_core

let scenarios () =
  Experiment.all_scenarios
  @ List.map (fun w -> Experiment.bank_sweep ~withdraw_pct:w) [ 0; 25; 50; 75; 100 ]
  @ List.map (fun d -> Experiment.inventory_sweep ~decr_pct:d) [ 0; 25; 50; 75; 100 ]

let find_scenario name =
  List.find_opt (fun (s : Experiment.scenario) -> String.equal s.name name) (scenarios ())

let list_scenarios () =
  Fmt.pr "Available scenarios:@.";
  List.iter (fun (s : Experiment.scenario) -> Fmt.pr "  %s@." s.name) (scenarios ())

let write_metrics = Cli_util.write_metrics_rows
let write_traces = Cli_util.write_traces_rows

(* The exact dynamic-atomicity checkers enumerate serialization orders,
   so replaying a full production-sized trace is infeasible; beyond this
   many transactions we settle for well-formedness. *)
let full_check_txn_limit = 9

let check_traces ~specs rows =
  let env = Atomicity.env_of_list specs in
  List.iter
    (fun (r : Experiment.row) ->
      match r.Experiment.trace with
      | None -> ()
      | Some tr ->
          let h = Trace.to_history tr in
          let verdict =
            if not (History.is_well_formed h) then "history NOT WELL-FORMED"
            else begin
              let txns = Tid.Set.cardinal (History.transactions h) in
              if txns <= full_check_txn_limit then
                if Atomicity.is_online_dynamic_atomic env h then
                  "well-formed, dynamically atomic"
                else "well-formed, NOT DYNAMICALLY ATOMIC"
              else
                Fmt.str "well-formed (%d txns; atomicity check needs <= %d)" txns
                  full_check_txn_limit
            end
          in
          Fmt.pr "trace %-24s %-10s %5d events -> %s@." r.scenario r.setup
            (Trace.length tr) verdict)
    rows

let main name list_only recovery choice occ concurrency txns seed metrics_file
    trace_file =
  if list_only then list_scenarios ()
  else
    match find_scenario name with
    | None ->
        Fmt.epr "unknown scenario %S (try --list)@." name;
        exit 1
    | Some scenario ->
        let cfg = Experiment.config ~concurrency ~total_txns:txns ~seed () in
        let record_trace = trace_file <> None in
        let setup_of_flags () =
          let recovery =
            match recovery with
            | Some "du" | Some "DU" -> Recovery.DU
            | None when occ -> Recovery.DU
            | _ -> Recovery.UIP
          in
          let choice =
            match choice with
            | Some "rw" -> Experiment.Read_write
            | Some "all" -> Experiment.Total
            | _ -> Experiment.Semantic
          in
          Experiment.setup ~occ recovery choice
        in
        let rows =
          match recovery, choice, occ with
          | None, None, false -> Experiment.run_matrix ~record_trace scenario cfg
          | _ -> [ Experiment.run ~record_trace scenario (setup_of_flags ()) cfg ]
        in
        Fmt.pr "%a@." Experiment.pp_table rows;
        let config =
          [
            ("scenario", name);
            ("concurrency", string_of_int concurrency);
            ("txns", string_of_int txns);
          ]
        in
        Option.iter (fun f -> write_metrics ~seed ~config f rows) metrics_file;
        Option.iter
          (fun f ->
            write_traces ~seed ~config f rows;
            (* Specs don't depend on the setup, so any build serves as the
               checker environment. *)
            let specs =
              List.map Atomic_object.spec
                (scenario.Experiment.build (Experiment.setup Recovery.UIP Semantic))
            in
            check_traces ~specs rows)
          trace_file

open Cmdliner

let name_arg =
  Arg.(
    value
    & pos 0 string "bank-hotspot"
    & info [] ~docv:"SCENARIO" ~doc:"Scenario name (see --list).")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List scenarios.")

let recovery_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "recovery" ] ~docv:"uip|du" ~doc:"Recovery method (default: run the full matrix).")

let choice_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "conflict" ] ~docv:"semantic|rw|all" ~doc:"Conflict relation choice.")

let occ_arg =
  Arg.(value & flag & info [ "occ" ] ~doc:"Optimistic execution (implies deferred update).")

let concurrency_arg =
  Arg.(value & opt int 8 & info [ "concurrency"; "c" ] ~doc:"Concurrent transactions.")

let txns_arg = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"Transactions to run.")
let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed.")
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a merged Prometheus text snapshot of all runs to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record transaction spans, write them to $(docv) as JSON lines, and \
           re-check each trace against the dynamic-atomicity definition.")

let cmd =
  let doc = "run a transaction-engine scenario and print its statistics" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const main $ name_arg $ list_arg $ recovery_arg $ choice_arg $ occ_arg
      $ concurrency_arg $ txns_arg $ seed_arg $ metrics_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
