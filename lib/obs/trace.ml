open Tm_core

type kind =
  | Begin
  | Invoke of { obj : string; inv : Op.invocation }
  | Executed of { op : Op.t }
  | Blocked of { obj : string; inv : Op.invocation; holders : Tid.t list }
  | No_response of { obj : string; inv : Op.invocation }
  | Validating
  | Validated of { ok : bool }
  | Commit
  | Abort
  | Deadlock_victim of { cycle : Tid.t list }
  | Lock_release of { obj : string }
  | Wal_flush_wait of { upto : int }
  | Durable of { lsn : int }
  | Recovery_phase of { phase : string; wall_us : int; items : int }
  | Prepare_append of { shard : int; gtid : int }
  | Prepare_force of { shard : int; lsn : int; gtid : int }
  | Decision_force of { shard : int; lsn : int; gtid : int; commit : bool }
  | Completion of { shard : int; gtid : int; commit : bool }

type event = {
  ts : int;
  tid : Tid.t option;  (* [None] for system-wide events *)
  kind : kind;
}

type t = {
  mutable events_rev : event list;
  mutable clock : int;
  (* The durable commit pipeline emits its flush-wait/ack spans outside
     the engine monitor (stage 2 of the commit runs with no locks held),
     so a threaded run appends concurrently; the recorder serialises its
     own clock.  Single-threaded sims pay one uncontended lock per
     event. *)
  lock : Mutex.t;
}

let create () = { events_rev = []; clock = 0; lock = Mutex.create () }

let emit_opt t tid kind =
  Mutex.lock t.lock;
  let ts = t.clock in
  t.clock <- ts + 1;
  t.events_rev <- { ts; tid; kind } :: t.events_rev;
  Mutex.unlock t.lock

let emit t ~tid kind = emit_opt t (Some tid) kind
let emit_system t kind = emit_opt t None kind

let events t =
  Mutex.lock t.lock;
  let es = t.events_rev in
  Mutex.unlock t.lock;
  List.rev es

let length t = t.clock

let kind_name = function
  | Begin -> "begin"
  | Invoke _ -> "invoke"
  | Executed _ -> "executed"
  | Blocked _ -> "blocked"
  | No_response _ -> "no_response"
  | Validating -> "validating"
  | Validated _ -> "validated"
  | Commit -> "commit"
  | Abort -> "abort"
  | Deadlock_victim _ -> "deadlock_victim"
  | Lock_release _ -> "lock_release"
  | Wal_flush_wait _ -> "wal_flush_wait"
  | Durable _ -> "durable"
  | Recovery_phase _ -> "recovery_phase"
  | Prepare_append _ -> "prepare_append"
  | Prepare_force _ -> "prepare_force"
  | Decision_force _ -> "decision_force"
  | Completion _ -> "completion"

(* ------------------------------------------------------------------ *)
(* JSON-lines export: hand-printed, strings escaped by [Json.escape]. *)

let rec json_of_value = function
  | Value.Unit -> "null"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Str s -> Fmt.str "\"%s\"" (Json.escape s)
  | Value.List l -> Fmt.str "[%s]" (String.concat "," (List.map json_of_value l))

let json_str s = Fmt.str "\"%s\"" (Json.escape s)

let json_obj fields =
  Fmt.str "{%s}"
    (String.concat "," (List.map (fun (k, v) -> Fmt.str "\"%s\":%s" k v) fields))

let json_of_inv (inv : Op.invocation) =
  json_obj
    [
      ("name", json_str inv.name);
      ("args", Fmt.str "[%s]" (String.concat "," (List.map json_of_value inv.args)));
    ]

let json_of_tids tids =
  Fmt.str "[%s]" (String.concat "," (List.map (fun t -> string_of_int (Tid.to_int t)) tids))

let kind_fields = function
  | Begin | Commit | Abort | Validating -> []
  | Invoke { obj; inv } -> [ ("obj", json_str obj); ("op", json_of_inv inv) ]
  | Executed { op } ->
      [
        ("obj", json_str op.Op.obj);
        ("op", json_of_inv op.Op.inv);
        ("res", json_of_value op.Op.res);
      ]
  | Blocked { obj; inv; holders } ->
      [ ("obj", json_str obj); ("op", json_of_inv inv); ("holders", json_of_tids holders) ]
  | No_response { obj; inv } -> [ ("obj", json_str obj); ("op", json_of_inv inv) ]
  | Validated { ok } -> [ ("ok", string_of_bool ok) ]
  | Deadlock_victim { cycle } -> [ ("cycle", json_of_tids cycle) ]
  | Lock_release { obj } -> [ ("obj", json_str obj) ]
  | Wal_flush_wait { upto } -> [ ("upto", string_of_int upto) ]
  | Durable { lsn } -> [ ("lsn", string_of_int lsn) ]
  | Recovery_phase { phase; wall_us; items } ->
      [
        ("phase", json_str phase);
        ("wall_us", string_of_int wall_us);
        ("items", string_of_int items);
      ]
  | Prepare_append { shard; gtid } ->
      [ ("shard", string_of_int shard); ("gtid", string_of_int gtid) ]
  | Prepare_force { shard; lsn; gtid } ->
      [
        ("shard", string_of_int shard);
        ("lsn", string_of_int lsn);
        ("gtid", string_of_int gtid);
      ]
  | Decision_force { shard; lsn; gtid; commit } ->
      [
        ("shard", string_of_int shard);
        ("lsn", string_of_int lsn);
        ("gtid", string_of_int gtid);
        ("commit", string_of_bool commit);
      ]
  | Completion { shard; gtid; commit } ->
      [
        ("shard", string_of_int shard);
        ("gtid", string_of_int gtid);
        ("commit", string_of_bool commit);
      ]

let event_to_json ?(extra = []) e =
  json_obj
    (("ts", string_of_int e.ts)
     :: ( "tid",
          match e.tid with
          | Some tid -> string_of_int (Tid.to_int tid)
          | None -> "null" )
     :: ("event", json_str (kind_name e.kind))
     :: kind_fields e.kind
    @ List.map (fun (k, v) -> (k, json_str v)) extra)

let pp_jsonl ?extra ppf t =
  List.iter (fun e -> Fmt.pf ppf "%s@." (event_to_json ?extra e)) (events t)

let to_jsonl ?extra t = Fmt.str "%a" (pp_jsonl ?extra) t

(* ------------------------------------------------------------------ *)
(* Replay: a recorded trace as a paper history.                        *)

(* Only [Executed], [Commit] and [Abort] events carry history content;
   the rest is scheduling noise.  [History.of_steps] turns an outcome
   into one event per object the transaction executed at, as
   [Database.finish] emits its per-object commit/abort events. *)
let to_history t =
  History.of_steps
    (List.filter_map
       (fun e ->
         match e.tid, e.kind with
         | Some tid, Executed { op } -> Some (History.Exec (tid, op))
         | Some tid, Commit -> Some (History.Commit tid)
         | Some tid, Abort -> Some (History.Abort tid)
         | _ -> None)
       (events t))
