(* Shared output plumbing for the CLI executables. *)

(* Create every missing directory on the way to [dir]. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* [with_out file f] opens [file] for writing — creating parent
   directories as needed — runs [f] on the channel and closes it; a
   filesystem error prints a diagnostic and exits non-zero (these are
   leaf CLI tools, not a library). *)
let with_out file f =
  mkdir_p (Filename.dirname file);
  match open_out file with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." file msg;
      exit 1

(* [read_file file] reads the whole file; same leaf-CLI error policy as
   {!with_out}. *)
let read_file file =
  match open_in_bin file with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error msg ->
      Fmt.epr "cannot read %s: %s@." file msg;
      exit 1

(* Shared dump formats for experiment rows: every executable that takes
   --metrics/--trace writes the same artifacts.  Rows are distinguished
   by scenario/setup labels (extra Prometheus labels; extra JSONL
   fields). *)

let prom_of_rows rows =
  let module Metrics = Tm_obs.Metrics in
  let all = Metrics.create () in
  List.iter
    (fun (r : Tm_sim.Experiment.row) ->
      Metrics.merge
        ~extra_labels:[ ("scenario", r.scenario); ("setup", r.setup) ]
        all r.metrics)
    rows;
  Metrics.to_prometheus all

let jsonl_of_rows rows =
  String.concat ""
    (List.filter_map
       (fun (r : Tm_sim.Experiment.row) ->
         Option.map
           (Tm_obs.Trace.to_jsonl
              ~extra:[ ("scenario", r.scenario); ("setup", r.setup) ])
           r.Tm_sim.Experiment.trace)
       rows)

(* Dumps are self-describing: a one-line Artifact header (schema, the
   producing binary, seed, run configuration) leads the file.  On the
   Prometheus side it is a comment, on the JSONL side a {"meta":...}
   line; both readers validate the family and skip it. *)

let write_metrics ~seed ~config file prom =
  let meta = Tm_obs.Artifact.make ~schema:Tm_obs.Artifact.metrics_schema ~seed ~config () in
  with_out file (fun oc ->
      output_string oc (Tm_obs.Artifact.prom_header meta);
      output_string oc prom);
  Fmt.pr "wrote Prometheus snapshot to %s@." file

let write_traces ~seed ~config file jsonl =
  let meta = Tm_obs.Artifact.make ~schema:Tm_obs.Artifact.trace_schema ~seed ~config () in
  with_out file (fun oc ->
      output_string oc (Tm_obs.Artifact.header_line meta);
      output_string oc jsonl);
  Fmt.pr "wrote trace (JSON lines) to %s@." file
