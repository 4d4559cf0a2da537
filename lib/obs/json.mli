(** Minimal JSON values: a hand-rolled parser and printer.

    The repo deliberately carries no JSON dependency.  The trace
    exporter ({!Trace.to_jsonl}) escapes its strings with {!escape};
    the artifact headers ({!Artifact}) are printed, and the benchmark's
    result files printed and read back, with this module.

    The value model covers exactly what the telemetry formats use:
    null, booleans, integers, floats, strings, arrays and objects.
    Integers are kept distinct from floats so logical timestamps round
    trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] parses one JSON document (surrounding whitespace allowed).
    [Error msg] carries a character offset and a reason. *)
val parse : string -> (t, string) result

(** [parse_lines s] parses one document per non-blank line (JSONL); the
    error names the offending 1-based line. *)
val parse_lines : string -> (t list, string) result

(** {1 Printing} *)

(** Compact (no insignificant whitespace), with full string escaping;
    floats print as [%.17g] trimmed, integers bare. *)
val to_string : t -> string

(** [escape s] is the body of a JSON string literal for [s] (no
    surrounding quotes). *)
val escape : string -> string

(** {1 Accessors} *)

(** [member key j] — [Some v] if [j] is an object with field [key]. *)
val member : string -> t -> t option

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** Fields of an object ([] for any other constructor). *)
val entries : t -> (string * t) list
