(* Self-describing dump headers.  Every artifact the CLIs write — trace
   JSONL, Prometheus metrics snapshots, 2PC audit trails, time series —
   starts with a small metadata record: schema name/version, the
   producing binary, the seed and any config the run used.  Readers
   skip it after validating that the file is the kind of artifact they
   expect, so a metrics dump fed to the trace parser fails loudly
   instead of decoding garbage. *)

type t = {
  schema : string;  (* "<family>/<version>", e.g. "tm-trace/1" *)
  binary : string;
  seed : int option;
  config : (string * string) list;
}

let trace_schema = "tm-trace/1"
let metrics_schema = "tm-metrics/1"
let audit_schema = "tm-2pc/1"
let series_schema = "tm-series/1"

let make ~schema ?binary ?seed ?(config = []) () =
  let binary =
    match binary with
    | Some b -> b
    | None -> Filename.basename Sys.executable_name
  in
  { schema; binary; seed; config }

let family_of_schema s =
  match String.index_opt s '/' with Some i -> String.sub s 0 i | None -> s

let to_json t =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          (("schema", Json.Str t.schema)
           :: ("binary", Json.Str t.binary)
           :: (match t.seed with
              | Some s -> [ ("seed", Json.Int s) ]
              | None -> [])
          @ [
              ( "config",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.config) );
            ]) );
    ]

let is_header j = Json.member "meta" j <> None

let of_json j =
  match Json.member "meta" j with
  | None -> Error "not an artifact header (no \"meta\" member)"
  | Some m -> (
      match Option.bind (Json.member "schema" m) Json.to_str with
      | None -> Error "artifact header: missing \"schema\""
      | Some schema ->
          let binary =
            Option.value
              (Option.bind (Json.member "binary" m) Json.to_str)
              ~default:"?"
          in
          let seed = Option.bind (Json.member "seed" m) Json.to_int in
          let config =
            match Json.member "config" m with
            | Some c ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
                  (Json.entries c)
            | None -> []
          in
          Ok { schema; binary; seed; config })

(* [check_schema ~expect m] — the header's family must match; versions
   within a family are forward-compatible for skipping (the reader only
   needs to know it has the right kind of file). *)
let check_schema ~expect m =
  if String.equal (family_of_schema m.schema) (family_of_schema expect) then Ok m
  else
    Error
      (Fmt.str "artifact schema %S where a %S artifact was expected" m.schema
         expect)

(* ------------------------------------------------------------------ *)
(* Headers on the wire                                                 *)

let header_line t = Json.to_string (to_json t) ^ "\n"

let prom_magic = "# tm-meta "

let prom_header t = prom_magic ^ Json.to_string (to_json t) ^ "\n"

let of_jsonl s =
  let line =
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let line = String.trim line in
  if line = "" then Ok None
  else
    match Json.parse line with
    | Error _ -> Ok None  (* not even JSON: the event parser will complain *)
    | Ok j ->
        if is_header j then Result.map Option.some (of_json j) else Ok None

let of_prom s =
  let rec first = function
    | [] -> Ok None
    | line :: rest ->
        let line = String.trim line in
        if String.length line >= String.length prom_magic
           && String.sub line 0 (String.length prom_magic) = prom_magic
        then
          let body =
            String.sub line (String.length prom_magic)
              (String.length line - String.length prom_magic)
          in
          match Json.parse body with
          | Error e -> Error ("tm-meta header: " ^ e)
          | Ok j -> Result.map Option.some (of_json j)
        else first rest
  in
  first (String.split_on_char '\n' s)

let pp ppf t =
  Fmt.pf ppf "%s (by %s%a%a)" t.schema t.binary
    (fun ppf -> function None -> () | Some s -> Fmt.pf ppf ", seed %d" s)
    t.seed
    Fmt.(
      list ~sep:nop (fun ppf (k, v) -> Fmt.pf ppf ", %s=%s" k v))
    t.config
