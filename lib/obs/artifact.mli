(** Self-describing artifact headers.

    Every dump the CLI executables write — trace JSONL and Prometheus
    metrics snapshots — carries a one-line metadata header: the schema
    ("<family>/<version>"), the producing binary, the seed and any run
    configuration.  The header is valid JSON (or a Prometheus comment),
    so [jq] and any Prometheus parser read past it. *)

(** A header: the schema (["<family>/<version>"], e.g. ["tm-trace/1"]),
    the producing executable's basename, the seed and the run
    configuration. *)
type t

val trace_schema : string  (** ["tm-trace/1"] *)

val metrics_schema : string  (** ["tm-metrics/1"] *)

(** [make ~schema ()] — [binary] defaults to
    [Filename.basename Sys.executable_name]. *)
val make :
  schema:string ->
  ?binary:string ->
  ?seed:int ->
  ?config:(string * string) list ->
  unit ->
  t

(** {1 Wire format}

    The header is a JSON object [{"meta":{...}}] — distinguishable from
    every trace event (those carry ["ts"]). *)

(** The JSONL header line, newline-terminated. *)
val header_line : t -> string

(** The Prometheus header: [# tm-meta {...}\n] — a comment line, so any
    Prometheus parser skips it even without knowing the convention. *)
val prom_header : t -> string
