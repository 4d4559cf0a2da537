open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

(* Objects by name.  Every invocation and every release looks its
   object up, so names are compared by [String.equal], not by the
   polymorphic compare of a generic table (about half the time of a
   lookup); the hash, and so the buckets, are a generic table's. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* What the database keeps of a running transaction.  A finished one
   leaves only its bit in [finished]; its record, reset, waits in
   [spare] for the next transaction to begin.  No record leaves this
   module, so none is in use once its transaction has finished. *)
type txn = {
  mutable touched : Atomic_object.t array;
      (* objects executed at, first touch first, in [touched.(0 .. ntouched - 1)];
         grown by doubling and kept when the record is reused *)
  mutable ntouched : int;
  mutable blocked_on : string;  (* the object of its first block since it last executed *)
  mutable blocked_since : int;  (* the tick of that block; -1 when not blocked *)
}

let fresh_txn () = { touched = [||]; ntouched = 0; blocked_on = ""; blocked_since = -1 }

(* The value of an empty slot of [live] and [spare]; never running. *)
let no_txn = fresh_txn ()

type t = {
  mutable objs_rev : Atomic_object.t list;  (* newest first *)
  by_name : Atomic_object.t Names.t;
  live : txn Tid_table.t;  (* running transactions only *)
  spare : txn Spare.t;  (* finished records, reset *)
  finished : Tid_bits.t;
  mutable waits : Deadlock.t;  (* shared by every shard of a sharded engine *)
  mutable shard : int;  (* this database's tag in [waits] *)
  mutable next_tid : int;
  (* Observability.  The registry always exists — counters are plain
     field bumps, so the uninstrumented cost is negligible — and the
     transaction counts below are *backed* by it ({!committed_count}
     reads the counter).  The trace recorder is optional: [None] (the
     default) costs one branch per event site. *)
  metrics : Metrics.t;
  (* The operations of every object here, shared ({!Op_table}). *)
  ops : Op_table.t;
  c_begins : Metrics.counter;
  c_committed : Metrics.counter;
  c_aborted : Metrics.counter;
  c_executed : Metrics.counter;
  c_blocked : Metrics.counter;
  c_no_response : Metrics.counter;
  mutable trace : Trace.t option;
  mutable ticks : int;  (* logical clock: one tick per invocation attempt *)
  wait_ticks : (string, Metrics.histogram) Hashtbl.t;  (* by object, on first wake *)
}

let add_object t o =
  Atomic_object.attach_metrics o t.metrics;
  Atomic_object.share_ops o t.ops;
  t.objs_rev <- o :: t.objs_rev;
  (* The first object registered under a name keeps it. *)
  let name = Atomic_object.name o in
  if not (Names.mem t.by_name name) then Names.add t.by_name name o

let create ?(first_tid = 0) objs =
  if first_tid < 0 then invalid_arg "Database.create: negative first_tid";
  let metrics = Metrics.create () in
  let t =
    {
      objs_rev = [];
      by_name = Names.create 16;
      live = Tid_table.create ~dummy:no_txn;
      spare = Spare.create no_txn;
      finished = Tid_bits.create ();
      waits = Deadlock.create ();
      shard = 0;
      next_tid = first_tid;
      metrics;
      ops = Op_table.create ();
      c_begins = Metrics.counter metrics "tm_txn_begins_total";
      c_committed = Metrics.counter metrics "tm_txn_committed_total";
      c_aborted = Metrics.counter metrics "tm_txn_aborted_total";
      c_executed = Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "executed") ];
      c_blocked = Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "blocked") ];
      c_no_response =
        Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "no_response") ];
      trace = None;
      ticks = 0;
      wait_ticks = Hashtbl.create 16;
    }
  in
  List.iter (add_object t) objs;
  t

let objects t = List.rev t.objs_rev

(* [running] and [find_object] run on every invocation, so they catch
   [Not_found] rather than allocate an option. *)
let find_object t name =
  match Names.find t.by_name name with
  | o -> o
  | exception Not_found -> invalid_arg ("Database.find_object: unknown object " ^ name)

let metrics t = t.metrics
let next_tid t = t.next_tid
let set_trace t tr = t.trace <- Some tr
let trace t = t.trace

let share_waits t g ~shard = t.waits <- g; t.shard <- shard

let tracing t = Option.is_some t.trace

(* Event sites whose kind carries a payload test {!tracing} first, so an
   untraced run never builds the kind. *)
let emit_trace t ~tid kind =
  match t.trace with None -> () | Some tr -> Trace.emit tr ~tid kind

let start t tid =
  let txn = Spare.pop t.spare in
  let txn = if txn == no_txn then fresh_txn () else txn in
  Tid_table.replace t.live tid txn

let begin_txn t =
  let tid = Tid.of_int t.next_tid in
  t.next_tid <- t.next_tid + 1;
  start t tid;
  Metrics.Counter.incr t.c_begins;
  emit_trace t ~tid Trace.Begin;
  tid

let adopt_txn t tid =
  (* Register an externally allocated transaction id as running here —
     the sharded engine allocates tids globally and lets each shard's
     database adopt the transaction on first touch.  The local allocator
     is bumped above the adopted id so a locally begun transaction can
     never collide with a global one. *)
  let n = Tid.to_int tid in
  if n < 0 then invalid_arg "Database.adopt_txn: negative tid";
  if Tid_table.mem t.live tid || Tid_bits.mem t.finished tid then
    invalid_arg (Fmt.str "Database.adopt_txn: %a already known" Tid.pp tid);
  t.next_tid <- max t.next_tid (n + 1);
  start t tid;
  Metrics.Counter.incr t.c_begins;
  emit_trace t ~tid Trace.Begin

(* The entry of a running transaction. *)
let running t tid =
  match Tid_table.find t.live tid with
  | txn -> txn
  | exception Not_found ->
      if Tid_bits.mem t.finished tid then
        invalid_arg (Fmt.str "Database: transaction %a already finished" Tid.pp tid)
      else invalid_arg (Fmt.str "Database: unknown transaction %a" Tid.pp tid)

let rec touched_from txn o i =
  i < txn.ntouched && (txn.touched.(i) == o || touched_from txn o (i + 1))

(* [o] among [txn]'s touched objects, or added after them. *)
let touch txn o =
  if not (touched_from txn o 0) then begin
    let n = txn.ntouched in
    if n = Array.length txn.touched then txn.touched <- Spare.grow txn.touched o;
    txn.touched.(n) <- o;
    txn.ntouched <- n + 1
  end

(* A transaction executing after an earlier block has been woken: record
   how long (in attempt ticks) it waited, per object. *)
let note_woken t txn =
  if txn.blocked_since >= 0 then begin
    let obj = txn.blocked_on and waited = t.ticks - txn.blocked_since in
    txn.blocked_since <- -1;
    let h =
      match Hashtbl.find t.wait_ticks obj with
      | h -> h
      | exception Not_found ->
          let h = Metrics.histogram t.metrics "tm_lock_wait_ticks" ~labels:[ ("obj", obj) ] in
          Hashtbl.add t.wait_ticks obj h;
          h
    in
    Metrics.Histogram.observe_int h waited
  end

let invoke ?choose t tid ~obj inv =
  let txn = running t tid in
  let o = find_object t obj in
  t.ticks <- t.ticks + 1;
  if tracing t then emit_trace t ~tid (Trace.Invoke { obj; inv });
  let outcome = Atomic_object.invoke ?choose o tid inv in
  (match outcome with
  | Atomic_object.Executed op ->
      Deadlock.clear t.waits tid ~at:t.shard;
      Metrics.Counter.incr t.c_executed;
      note_woken t txn;
      if tracing t then emit_trace t ~tid (Trace.Executed { op });
      touch txn o
  | Atomic_object.Blocked holders ->
      Metrics.Counter.incr t.c_blocked;
      if txn.blocked_since < 0 then begin
        txn.blocked_on <- obj;
        txn.blocked_since <- t.ticks
      end;
      if tracing t then emit_trace t ~tid (Trace.Blocked { obj; inv; holders });
      Deadlock.set_waiting t.waits tid ~on:holders ~at:t.shard
  | Atomic_object.No_response ->
      Metrics.Counter.incr t.c_no_response;
      if tracing t then emit_trace t ~tid (Trace.No_response { obj; inv }));
  outcome

(* [release], [validate_from] and [try_commit]'s optimistic test walk
   the touched objects by index, oldest first, with no name lookup. *)
let release t tid ~committed txn =
  for i = 0 to txn.ntouched - 1 do
    let o = txn.touched.(i) in
    if committed then Atomic_object.commit o tid else Atomic_object.abort o tid;
    if tracing t then emit_trace t ~tid (Trace.Lock_release { obj = Atomic_object.name o })
  done

(* [txn], reset, onto the spare stack.  Its [touched] array stays, for
   the next transaction to fill. *)
let retire t txn =
  txn.ntouched <- 0;
  txn.blocked_on <- "";
  txn.blocked_since <- -1;
  Spare.push t.spare txn

let finish t tid ~committed =
  let txn = running t tid in
  release t tid ~committed txn;
  Tid_table.remove t.live tid;
  retire t txn;
  Tid_bits.add t.finished tid;
  Deadlock.clear t.waits tid ~at:t.shard

let commit t tid =
  finish t tid ~committed:true;
  Metrics.Counter.incr t.c_committed;
  emit_trace t ~tid Trace.Commit

let abort t tid =
  finish t tid ~committed:false;
  Metrics.Counter.incr t.c_aborted;
  emit_trace t ~tid Trace.Abort

(* Only touched objects can fail: a locking object always passes, and an
   optimistic one holds no start point for a transaction that executed
   nothing there.  The first failure, oldest first, is the answer. *)
let rec validate_from tid txn i =
  if i = txn.ntouched then Ok ()
  else
    let o = txn.touched.(i) in
    match Atomic_object.validate o tid with
    | Ok () -> validate_from tid txn (i + 1)
    | Error (mine, theirs) -> Error (Atomic_object.name o, mine, theirs)

let validate t tid =
  match Tid_table.find t.live tid with
  | txn -> validate_from tid txn 0
  | exception Not_found -> Ok ()

let rec optimistic_from txn i =
  i < txn.ntouched
  && (Atomic_object.policy txn.touched.(i) = Atomic_object.Optimistic
     || optimistic_from txn (i + 1))

let try_commit t tid =
  let txn = running t tid in
  (* Two-phase: validate at every touched object, then commit at all of
     them; a single validation failure aborts everywhere. *)
  let validated = tracing t && optimistic_from txn 0 in
  if validated then emit_trace t ~tid Trace.Validating;
  let result = validate_from tid txn 0 in
  if validated then emit_trace t ~tid (Trace.Validated { ok = Result.is_ok result });
  (match result with Ok () -> commit t tid | Error _ -> abort t tid);
  result

let deadlock t = Deadlock.find_cycle t.waits
let committed_count t = Metrics.Counter.get t.c_committed
let aborted_count t = Metrics.Counter.get t.c_aborted
