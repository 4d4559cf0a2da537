open Tm_core
module Metrics = Tm_obs.Metrics

type policy =
  | Locking
  | Optimistic
  | Escrow

(* Escrow bookkeeping of a bounded counter: the sums of uncommitted
   increments and decrements, and what each transaction holds.  [pins]
   marks a transaction that observed the value (a read, or a [no]): no
   other transaction may change it until that one ends.  The committed
   value is the recovery manager's. *)
type holding = {
  mutable incr : int;
  mutable decr : int;
  mutable pins : bool;
}

type escrow = {
  capacity : int;
  mutable total_incr : int;
  mutable total_decr : int;
  mutable pinning : int;  (* holders whose [pins] is set *)
  holdings : (Tid.t, holding) Hashtbl.t;
}

(* What a transaction that holds nothing is read as; never stored, so
   never mutated. *)
let no_holding = { incr = 0; decr = 0; pins = false }

(* Only a locking object has a lock table.  An optimistic object keeps
   its conflict relation, which it validates with, and each
   transaction's start: the length of the manager's committed log when
   the transaction first touched the object.  An escrow object decides
   from its interval and needs neither. *)
type mode =
  | Locking of Lock_table.t
  | Optimistic of { conflict : Conflict.t; starts : (Tid.t, int) Hashtbl.t }
  | Escrow of escrow

type t = {
  name : string;
  spec : Spec.t;
  recovery : Recovery.t;
  (* The attached registry and the {obj,op} counters resolved in it so
     far, keyed by metric name and operation name. *)
  mutable reg : Metrics.t option;
  mutable events : Metrics.Handles.t;
  (* The database's table, through which every operation is built. *)
  mutable ops : Op_table.t;
  mode : mode;
}

type outcome =
  | Executed of Op.t
  | Blocked of Tid.t list
  | No_response

let pp_outcome ppf = function
  | Executed op -> Fmt.pf ppf "executed %a" Op.pp op
  | Blocked tids -> Fmt.pf ppf "blocked on %a" Fmt.(list ~sep:(any ",") Tid.pp) tids
  | No_response -> Fmt.string ppf "no legal response"

let make ?inverse ~mode ~spec ~recovery () =
  {
    name = Spec.name spec;
    spec;
    recovery = Recovery.create ?inverse recovery spec;
    reg = None;
    events = Metrics.Handles.empty;
    ops = Op_table.detached;
    mode;
  }

let create ?inverse ~spec ~conflict ~recovery () =
  make ?inverse ~mode:(Locking (Lock_table.create conflict)) ~spec ~recovery ()

(* Optimistic execution must not publish uncommitted effects, so it is
   tied to deferred-update recovery (the single current state of
   update-in-place publishes by construction). *)
let create_optimistic ~spec ~conflict =
  make ~mode:(Optimistic { conflict; starts = Hashtbl.create 16 }) ~spec ~recovery:Recovery.DU ()

let read = Op.invocation "read"

(* The spec's one answer to [inv] in its initial state, if it has one. *)
let initially spec inv =
  match Spec.responses spec [] inv with [ r ] -> r | _ -> Spec.no_response

(* Escrow decides grants from the interval, not from conflicts, and its
   granted operations are the transaction's intentions in a
   deferred-update manager, whose state holds the value.  The spec must
   bound the value by [capacity]: from its initial value, [incr] of the
   room left answers [ok] and of one more [no]. *)
let create_escrow ~spec ~capacity =
  let refuse why =
    invalid_arg (Fmt.str "Atomic_object.create_escrow: %s: %s" (Spec.name spec) why)
  in
  let incr i r = Value.equal (initially spec (Op.invocation ~args:[ Value.int i ] "incr")) r in
  (match initially spec read with
  | Value.Int v when v < 0 || v > capacity ->
      refuse (Fmt.str "initial value %d outside [0, %d]" v capacity)
  | Value.Int v ->
      let room = capacity - v in
      if (room > 0 && not (incr room Value.ok)) || not (incr (room + 1) Value.no) then
        refuse (Fmt.str "the spec does not bound the value by capacity %d" capacity)
  | _ -> refuse "read does not answer one integer");
  let escrow =
    { capacity; total_incr = 0; total_decr = 0; pinning = 0; holdings = Hashtbl.create 16 }
  in
  make ~mode:(Escrow escrow) ~spec ~recovery:Recovery.DU ()

let name t = t.name
let spec t = t.spec

let policy t : policy =
  match t.mode with Locking _ -> Locking | Optimistic _ -> Optimistic | Escrow _ -> Escrow

let attach_metrics t reg =
  (match t.reg with
  | Some r when r == reg -> ()
  | _ ->
      t.reg <- Some reg;
      t.events <- Metrics.Handles.empty);
  (match t.mode with
  | Locking locks -> Lock_table.attach_metrics locks ~obj:t.name reg
  | Optimistic _ | Escrow _ -> ());
  Recovery.attach_metrics t.recovery reg

let share_ops t ops = t.ops <- ops

(* The operation [inv] answered by [res] here, shared with every equal
   one through the database's table. *)
let op t inv res = Op_table.find t.ops t.name inv res

(* Per-operation counters run only on contention/failure paths (blocks,
   stalls, validation failures) — never on a plain executed invocation —
   and search the registry only on a series' first event. *)
let count_event t metric inv_name =
  match t.reg with
  | None -> ()
  | Some reg ->
      let c = Metrics.Handles.find t.events metric inv_name in
      let c =
        if c != Metrics.Counter.unresolved then c
        else begin
          let c = Metrics.counter reg metric ~labels:[ ("obj", t.name); ("op", inv_name) ] in
          t.events <- Metrics.Handles.add t.events metric inv_name c;
          c
        end
      in
      Metrics.Counter.incr c

let block t inv holders =
  count_event t "tm_object_blocked_total" inv.Op.name;
  Blocked holders

(* A chooser's pick must be one of the [offered] responses — any other
   value could bypass the lock table. *)
let reject_pick t res offered =
  invalid_arg
    (Fmt.str "Atomic_object.invoke: %s: the chooser returned %a, not one of [%a]" t.name Value.pp
       res
       Fmt.(list ~sep:(any "; ") Value.pp)
       offered)

(* The operation to execute: the first of the [offered] responses (in
   the specification's response order), or the chooser's pick. *)
let choose_op t choose inv offered =
  match choose with
  | None -> op t inv (List.hd offered)
  | Some pick ->
      let res = pick offered in
      if not (List.exists (Value.equal res) offered) then reject_pick t res offered;
      op t inv res

(* The chooser's pick among the [enabled] operations (newest first),
   offered their responses in the specification's order. *)
let choose_enabled t pick enabled =
  let enabled = List.rev enabled in
  let offered = List.map (fun (op : Op.t) -> op.res) enabled in
  let res = pick offered in
  match List.find (fun (op : Op.t) -> Value.equal op.res res) enabled with
  | op -> op
  | exception Not_found -> reject_pick t res offered

(* [invoke_locking]'s mark for "no operation enabled yet", compared by
   [==]; it never executes. *)
let none_enabled = { Op.obj = ""; inv = Op.invocation ""; res = Value.unit }

(* [a] and [b] merged; both are strictly increasing, and so is the result. *)
let rec merge a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = Tid.compare x y in
      if c < 0 then x :: merge xs b else if c > 0 then y :: merge a ys else x :: merge xs ys

(* Result-dependent locking: test every legal response in order (each
   conflict is counted), keeping the first enabled operation, which
   executes unless a chooser picks another — for a chooser, every
   enabled one too, newest first — and, while none is enabled, the
   merged holders that block the rest.  Only if every response is
   blocked does the transaction wait. *)
let rec invoke_locking choose t locks tid inv first enabled blocked = function
  | res :: rest -> (
      let op = op t inv res in
      match Lock_table.blockers locks ~requested:op ~tid with
      | [] ->
          let first = if first == none_enabled then op else first in
          let enabled = match choose with None -> enabled | Some _ -> op :: enabled in
          invoke_locking choose t locks tid inv first enabled blocked rest
      | holders ->
          let blocked = if first == none_enabled then merge holders blocked else blocked in
          invoke_locking choose t locks tid inv first enabled blocked rest)
  | [] ->
      if first == none_enabled then block t inv blocked
      else begin
        let op = match choose with None -> first | Some pick -> choose_enabled t pick enabled in
        Recovery.record t.recovery tid op;
        Lock_table.add locks tid op;
        Executed op
      end

(* Locking with one legal response: its operation is tested directly,
   with no candidate list, and blocks on every holder it conflicts with
   (what the list walk answers for one response). *)
let invoke_one t locks tid inv res =
  let op = op t inv res in
  match Lock_table.blockers locks ~requested:op ~tid with
  | [] ->
      Recovery.record t.recovery tid op;
      Lock_table.add locks tid op;
      Executed op
  | holders -> block t inv holders

let invoke_optimistic t starts tid op =
  (* No locks taken, nothing ever blocks; conflicts are paid at commit
     time (backward validation).  Remember where the committed log stood
     when the transaction first touched this object. *)
  if not (Hashtbl.mem starts tid) then
    Hashtbl.add starts tid (Op_log.length (Recovery.committed_log t.recovery));
  Recovery.record t.recovery tid op;
  Executed op

(* The escrow grant rule: a response is granted only if it is legal in
   every value the counter can reach, whichever other holders commit:
   the value [tid]'s own view reads, widened by the other holders'
   escrowed updates.  An update changes the value, so it also waits for
   another holder's pin.  When no other transaction holds anything the
   interval is a point and one response always holds; otherwise the
   caller waits for the other holders. *)
let invoke_escrow choose t e tid (inv : Op.invocation) =
  let own = match Hashtbl.find e.holdings tid with h -> h | exception Not_found -> no_holding in
  let mine =
    match Recovery.response t.recovery tid read with
    | Value.Int v -> v
    | _ -> invalid_arg (Fmt.str "Atomic_object.invoke: %s: read answers no integer" t.name)
  in
  let low = mine + own.decr - e.total_decr and high = mine - own.incr + e.total_incr in
  (* Another holder observed the value. *)
  let pinned = e.pinning > (if own.pins then 1 else 0) in
  (* The response and the update it escrows: > 0 an increment, < 0 a
     decrement, 0 an observation that pins the value. *)
  let answer =
    match inv.name, inv.args with
    | "incr", [ Value.Int i ] when i > 0 ->
        if low + i > e.capacity then Some (Value.no, 0)
        else if high + i <= e.capacity && not pinned then Some (Value.ok, i)
        else None
    | "decr", [ Value.Int i ] when i > 0 ->
        if high < i then Some (Value.no, 0)
        else if low >= i && not pinned then Some (Value.ok, -i)
        else None
    | "read", [] -> if low = high then Some (Value.Int low, 0) else None
    | _ ->
        invalid_arg
          (Fmt.str "Atomic_object.invoke: %s: not an escrow invocation: %a" t.name
             Op.pp_invocation inv)
  in
  match answer with
  | None ->
      let others =
        Hashtbl.fold (fun h _ l -> if Tid.equal h tid then l else h :: l) e.holdings []
      in
      block t inv (List.sort Tid.compare others)
  | Some (res, update) ->
      let op = choose_op t choose inv [ res ] in
      Recovery.record t.recovery tid op;
      let h =
        if own != no_holding then own
        else begin
          let h = { incr = 0; decr = 0; pins = false } in
          Hashtbl.add e.holdings tid h;
          h
        end
      in
      if update > 0 then begin
        h.incr <- h.incr + update;
        e.total_incr <- e.total_incr + update
      end
      else if update < 0 then begin
        h.decr <- h.decr - update;
        e.total_decr <- e.total_decr - update
      end
      else if not h.pins then begin
        h.pins <- true;
        e.pinning <- e.pinning + 1
      end;
      Executed op

(* The legal responses as a list, for a chooser or several responses:
   [res] is {!Recovery.response}'s answer, not [Spec.no_response]. *)
let candidates t tid inv res =
  if res == Spec.several_responses then Recovery.responses t.recovery tid inv else [ res ]

(* [Recovery.response]'s answer to [inv], counted when there is none. *)
let response t tid inv =
  let res = Recovery.response t.recovery tid inv in
  if res == Spec.no_response then count_event t "tm_object_no_response_total" inv.Op.name;
  res

(* The candidate list is built only for several responses or a
   chooser; one response without a chooser is executed or tested
   directly. *)
let invoke ?choose t tid inv =
  match t.mode with
  | Escrow e -> invoke_escrow choose t e tid inv
  | Locking locks ->
      let res = response t tid inv in
      if res == Spec.no_response then No_response
      else if res != Spec.several_responses && Option.is_none choose then
        invoke_one t locks tid inv res
      else invoke_locking choose t locks tid inv none_enabled [] [] (candidates t tid inv res)
  | Optimistic { starts; _ } ->
      let res = response t tid inv in
      if res == Spec.no_response then No_response
      else if res != Spec.several_responses && Option.is_none choose then
        invoke_optimistic t starts tid (op t inv res)
      else invoke_optimistic t starts tid (choose_op t choose inv (candidates t tid inv res))

(* The oldest of [mine] (newest first) that conflicts with an operation
   committed at position [start] or later, and the oldest such
   operation: the log is walked in place, from [start]. *)
let rec first_conflict conflict committed start = function
  | [] -> None
  | op :: older -> (
      match first_conflict conflict committed start older with
      | Some _ as found -> found
      | None -> (
          match
            Op_log.find_from committed start (fun c ->
                Conflict.conflicts conflict ~requested:op ~held:c)
          with
          | Some c -> Some (op, c)
          | None -> None))

let validate t tid =
  match t.mode with
  | Locking _ | Escrow _ -> Ok ()
  | Optimistic { conflict; starts } -> (
      match Hashtbl.find starts tid with
      | exception Not_found -> Ok ()  (* executed nothing here *)
      | start -> (
          match
            first_conflict conflict (Recovery.committed_log t.recovery)
              start (Recovery.intentions t.recovery tid)
          with
          | Some ((mine_op, _) as p) ->
              count_event t "tm_validation_failures_total" mine_op.Op.inv.Op.name;
              Error p
          | None -> Ok ()))

(* [tid]'s escrow returns to the pool, whether it commits or aborts:
   the manager's commit moves the committed value. *)
let release_escrow e tid =
  match Hashtbl.find e.holdings tid with
  | exception Not_found -> ()
  | h ->
      Hashtbl.remove e.holdings tid;
      e.total_incr <- e.total_incr - h.incr;
      e.total_decr <- e.total_decr - h.decr;
      if h.pins then e.pinning <- e.pinning - 1

let forget t tid =
  match t.mode with
  | Locking locks -> Lock_table.release locks tid
  | Escrow e -> release_escrow e tid
  | Optimistic { starts; _ } -> Hashtbl.remove starts tid

let commit t tid =
  forget t tid;
  Recovery.commit t.recovery tid

let abort t tid =
  forget t tid;
  Recovery.abort t.recovery tid

let committed_ops t = Recovery.committed_ops t.recovery

let holds t =
  match t.mode with Locking locks -> Lock_table.holds locks | Optimistic _ | Escrow _ -> []

(* The manager checks freshness in O(1) and takes the log over; every
   policy reads its committed state from the manager, so nothing else
   is restored. *)
let restore_log t log = Recovery.restore t.recovery log

let restore t ops = restore_log t (Op_log.of_list ops)
