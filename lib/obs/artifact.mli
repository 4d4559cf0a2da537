(** Self-describing artifact headers.

    Every dump the CLI executables write — trace JSONL, Prometheus
    metrics snapshots, time series — carries a one-line metadata header:
    the schema ("<family>/<version>"), the producing binary, the seed
    and any run configuration.  Readers ({!Series.of_jsonl},
    [shardmon]) validate the family (a trace handed to the series reader
    fails loudly) and then skip the line; unknown {e versions} within
    the right family are skipped without complaint, so old readers
    survive new writers. *)

type t = {
  schema : string;  (** ["<family>/<version>"], e.g. ["tm-trace/1"] *)
  binary : string;  (** producing executable's basename *)
  seed : int option;
  config : (string * string) list;
}

val trace_schema : string  (** ["tm-trace/1"] *)

val metrics_schema : string  (** ["tm-metrics/1"] *)

val series_schema : string
(** ["tm-series/1"] — a {!Series} time-series snapshot (one sampled
    point per line). *)

(** [make ~schema ()] — [binary] defaults to
    [Filename.basename Sys.executable_name]. *)
val make :
  schema:string ->
  ?binary:string ->
  ?seed:int ->
  ?config:(string * string) list ->
  unit ->
  t

(** [check_schema ~expect m] — [Ok m] when [m]'s family matches
    [expect]'s family, an explanatory [Error] otherwise. *)
val check_schema : expect:string -> t -> (t, string) result

(** {1 Wire format}

    The header is a JSON object [{"meta":{...}}] — distinguishable from
    every trace event (those carry ["ts"]). *)

val to_json : t -> Json.t

(** [is_header j] — does [j] look like an artifact header (has a
    ["meta"] member)? *)
val is_header : Json.t -> bool

val of_json : Json.t -> (t, string) result

(** The JSONL header line, newline-terminated. *)
val header_line : t -> string

(** The Prometheus header: [# tm-meta {...}\n] — a comment line, so any
    Prometheus parser skips it even without knowing the convention. *)
val prom_header : t -> string

(** [of_prom s] finds and parses the [# tm-meta] line of a Prometheus
    dump, if any. *)
val of_prom : string -> (t option, string) result
