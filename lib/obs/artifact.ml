(* Self-describing dump headers.  Every artifact the CLIs write — trace
   JSONL and Prometheus metrics snapshots — starts with a small metadata
   record: schema name/version, the producing binary, the seed and any
   config the run used. *)

type t = {
  schema : string;  (* "<family>/<version>", e.g. "tm-trace/1" *)
  binary : string;
  seed : int option;
  config : (string * string) list;
}

let trace_schema = "tm-trace/1"
let metrics_schema = "tm-metrics/1"

let make ~schema ?binary ?seed ?(config = []) () =
  let binary =
    match binary with
    | Some b -> b
    | None -> Filename.basename Sys.executable_name
  in
  { schema; binary; seed; config }

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

let header_line t = Json.to_string (to_json t) ^ "\n"

let prom_header t = "# tm-meta " ^ Json.to_string (to_json t) ^ "\n"
