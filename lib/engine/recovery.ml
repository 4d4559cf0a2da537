open Tm_core
module Metrics = Tm_obs.Metrics

type kind =
  | UIP
  | DU

let pp_kind ppf = function
  | UIP -> Fmt.string ppf "update-in-place"
  | DU -> Fmt.string ppf "deferred-update"

(* Failures on the recovery path (replaying a log into a fresh manager)
   are typed, not [Invalid_argument]: recovery callers — the crash
   harness, the durable database — must be able to report a violation
   with its object rather than pattern-match exception strings. *)
type error = {
  obj : string;
  reason : string;
}

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.obj e.reason

(* The handles a manager counts into once attached to a registry, each
   {!Metrics.Counter.unresolved} until its series' first event.  A
   detached manager holds no handle words. *)
type handles =
  | Detached
  | Attached of {
      reg : Metrics.t;
      mutable committed : Metrics.counter;
      mutable undone_inverse : Metrics.counter;
      mutable undone_replay : Metrics.counter;
      mutable discarded : Metrics.counter;
    }

(* The transactions live at a manager, newest first, each with an entry
   from its first [record] until it ends.  A UIP entry holds the
   transaction's operations here, newest first; a DU entry also holds
   the state-set its intentions reach from the base of version [stamp].
   UIP keeps no view per transaction, so its entry (4 words) has no
   room for one. *)
type live =
  | No_live
  | Live of { tid : Tid.t; mutable mine : Op.t list; mutable next : live }

type 's txn =
  | No_txn
  | Txn of {
      tid : Tid.t;
      mutable ops : Op.t list;
      mutable view : 's list;
      mutable stamp : int;
      mutable next : 's txn;
    }

let rec find_live tid = function
  | No_live -> No_live
  | Live e as x -> if Tid.equal e.tid tid then x else find_live tid e.next

let rec find_txn tid = function
  | No_txn -> No_txn
  | Txn e as x -> if Tid.equal e.tid tid then x else find_txn tid e.next

(* [l] without [x]; only the link that skipped it is written. *)
let rec unlink_live x = function
  | No_live -> No_live
  | Live e as l ->
      if l == x then e.next
      else begin
        let next = unlink_live x e.next in
        if next != e.next then e.next <- next;
        l
      end

let rec unlink_txn x = function
  | No_txn -> No_txn
  | Txn e as l ->
      if l == x then e.next
      else begin
        let next = unlink_txn x e.next in
        if next != e.next then e.next <- next;
        l
      end

(* One operation of the UIP live suffix: a 4-word cell naming its
   transaction's entry, linked to the next newer one.  Commit empties
   the entry's [mine], which is how the suffix tells a finished
   transaction (an aborted one's suffix entries are unlinked). *)
type entries =
  | End
  | Entry of { x : live; op : Op.t; mutable next : entries }

(* An update-in-place manager.  The live suffix holds the entries of
   non-aborted transactions in execution order, from the first operation
   of the oldest transaction still live here: a chain linked oldest
   first, from [head] to [tail].  Every operation before it is committed
   and so belongs to every future UIP view: no abort can remove it.
   That prefix is folded into [base], and [current] is always [base]
   stepped through the suffix. *)
type 's uip = {
  m : (module Spec.S with type state = 's);
  obj : string;
  inverse : Op.t -> Op.t list option;  (* [no_inverse] when the type has none *)
  mutable base : 's list;
  mutable current : 's list;
  mutable head : entries;
  mutable tail : entries;
  mutable live : live;
  mutable log : Op_log.t;  (* committed *)
  mutable handles : handles;
}

(* A deferred-update manager: the committed base and its version, which
   every commit and restore bumps.  Each live transaction keeps its
   view, base + its own intentions, exactly [DU(H,A)]: an invocation
   steps it, and only a view stamped with an older base is derived again
   from the base. *)
type 's du = {
  m : (module Spec.S with type state = 's);
  obj : string;
  mutable base : 's list;
  mutable version : int;
  mutable txns : 's txn;
  mutable log : Op_log.t;  (* committed *)
  mutable handles : handles;
}

(* A manager is data over its spec's state type: the spec module once,
   then what the paper's state-set needs and the live transactions. *)
type t =
  | Uip : 's uip -> t
  | Du : 's du -> t

let kind = function Uip _ -> UIP | Du _ -> DU
let obj = function Uip u -> u.obj | Du d -> d.obj
let handles = function Uip u -> u.handles | Du d -> d.handles

let unresolved = Metrics.Counter.unresolved

let attach_metrics t reg =
  match handles t with
  | Attached a when a.reg == reg -> ()
  | Detached | Attached _ -> (
      let h =
        Attached { reg; committed = unresolved; undone_inverse = unresolved;
                   undone_replay = unresolved; discarded = unresolved }
      in
      match t with Uip u -> u.handles <- h | Du d -> d.handles <- h)

(* Per-object undo/redo accounting; every call is on a commit/abort path,
   never per recorded operation.  Each handle is searched for in the
   registry only on its series' first event. *)
let count_committed t n =
  match handles t with
  | Detached -> ()
  | Attached a ->
      if a.committed == unresolved then
        a.committed <-
          Metrics.counter a.reg "tm_recovery_committed_ops_total" ~labels:[ ("obj", obj t) ];
      Metrics.Counter.add a.committed n

let count_undone_inverse t n =
  match handles t with
  | Detached -> ()
  | Attached a ->
      if a.undone_inverse == unresolved then
        a.undone_inverse <-
          Metrics.counter a.reg "tm_recovery_undone_ops_total"
            ~labels:[ ("obj", obj t); ("mode", "inverse") ];
      Metrics.Counter.add a.undone_inverse n

let count_undone_replay t n =
  match handles t with
  | Detached -> ()
  | Attached a ->
      if a.undone_replay == unresolved then
        a.undone_replay <-
          Metrics.counter a.reg "tm_recovery_undone_ops_total"
            ~labels:[ ("obj", obj t); ("mode", "replay") ];
      Metrics.Counter.add a.undone_replay n

let count_discarded t n =
  match handles t with
  | Detached -> ()
  | Attached a ->
      if a.discarded == unresolved then
        a.discarded <-
          Metrics.counter a.reg "tm_recovery_discarded_ops_total" ~labels:[ ("obj", obj t) ];
      Metrics.Counter.add a.discarded n

(* [states] stepped through [op], which must be legal there. *)
let stepped what m states op =
  match Spec.step_states m states op with
  | [] -> invalid_arg (Fmt.str "Recovery.record(%s): illegal operation %a" what Op.pp op)
  | next -> next

(* A fresh manager's check of a replayed committed log: the state-set it
   reaches from the initial state, stepped through the log in place. *)
let replayed (type s) what obj (module S : Spec.S with type state = s) log =
  match Spec.after_fold (module S) Op_log.fold_oldest [ S.initial ] log with
  | [] -> Error { obj; reason = Fmt.str "restore(%s): replayed sequence not legal" what }
  | next -> Ok next

let not_fresh what obj = Error { obj; reason = Fmt.str "restore(%s): manager not fresh" what }

(* ------------------------------------------------------------------ *)
(* Update in place.                                                    *)

let no_inverse (_ : Op.t) : Op.t list option = None

let finished = function Live { mine = _ :: _; _ } -> false | No_live | Live _ -> true

(* [f] folded over the suffix's operations, oldest first. *)
let rec fold_entries f acc = function End -> acc | Entry e -> fold_entries f (f acc e.op) e.next

(* Fold the leading entries of finished transactions into the base.
   Aborts unlink their entries first, so every such entry is committed. *)
let rec fold (u : _ uip) =
  match u.live with
  | No_live ->
      u.base <- u.current;
      u.head <- End;
      u.tail <- End
  | Live _ -> (
      match u.head with
      | Entry e when finished e.x ->
          u.base <- Spec.step_states u.m u.base e.op;
          u.head <- e.next;
          if e.next == End then u.tail <- End;
          fold u
      | End | Entry _ -> ())

let record_uip tid op (u : _ uip) =
  u.current <- stepped "UIP" u.m u.current op;
  let x =
    match find_live tid u.live with
    | Live e as x ->
        e.mine <- op :: e.mine;
        x
    | No_live ->
        let x = Live { tid; mine = [ op ]; next = u.live } in
        u.live <- x;
        x
  in
  let e = Entry { x; op; next = End } in
  (match u.tail with End -> u.head <- e | Entry t -> t.next <- e);
  u.tail <- e

let commit_uip t tid (u : _ uip) =
  (match find_live tid u.live with
  | No_live -> count_committed t 0
  | Live e as x ->
      count_committed t (List.length e.mine);
      u.log <- Op_log.push_rev u.log e.mine;
      e.mine <- [];
      u.live <- unlink_live x u.live);
  fold u

(* Unlink the next [left] entries of [x] from the suffix, in place,
   walking on from [prev] (the head when [End]). *)
let rec unlink_entries (u : _ uip) x left prev =
  if left > 0 then
    match (match prev with End -> u.head | Entry p -> p.next) with
    | End -> ()
    | Entry e as cur ->
        if e.x == x then begin
          (match prev with End -> u.head <- e.next | Entry p -> p.next <- e.next);
          if u.tail == cur then u.tail <- prev;
          unlink_entries u x (left - 1) prev
        end
        else unlink_entries u x left cur

(* [st] stepped through [ops]; [] as soon as one is not legal. *)
let rec steps m st = function
  | [] -> st
  | op :: rest -> ( match Spec.step_states m st op with [] -> [] | st -> steps m st rest)

(* Undo by compensation: step the current state through the inverses of
   the transaction's operations, newest first, at the current end of the
   log.  Only used when the type registers inverses (abelian updates);
   [[]] sends abort to the replay path, the general, always-correct
   form, and the two are checked equivalent by property tests. *)
let rec compensate m inverse st = function
  | [] -> st
  | op :: rest -> (
      match inverse op with
      | None -> []
      | Some undo -> ( match steps m st undo with [] -> [] | st -> compensate m inverse st rest))

let abort_uip t tid (u : _ uip) =
  let x = find_live tid u.live in
  let mine = match x with No_live -> [] | Live e -> e.mine in
  u.live <- unlink_live x u.live;
  let n = List.length mine in
  unlink_entries u x n End;
  let undone =
    if u.inverse == no_inverse then [] else compensate u.m u.inverse u.current mine
  in
  (* Fall back to replay if an operation has no inverse or a
     compensating operation is not legal here (cannot happen for
     well-chosen inverses, but safety wins). *)
  (match undone with
  | [] ->
      count_undone_replay t n;
      u.current <- Spec.after_fold u.m fold_entries u.base u.head
  | _ ->
      count_undone_inverse t n;
      u.current <- undone);
  fold u

(* Install an already-committed log into a fresh manager: replayed work
   belongs to no live transaction, so its state goes straight into the
   base and the log itself becomes the committed log (no per-transaction
   bookkeeping, no tid, no copy). *)
let restore_uip log (u : _ uip) =
  match u.live with
  | No_live when Op_log.length u.log = 0 -> (
      match replayed "UIP" u.obj u.m log with
      | Ok next ->
          u.base <- next;
          u.current <- next;
          u.log <- log;
          Ok ()
      | Error _ as e -> e)
  | No_live | Live _ -> not_fresh "UIP" u.obj

(* ------------------------------------------------------------------ *)
(* Deferred update.                                                    *)

(* [f] folded over [ops], a newest-first list, oldest first: one frame
   per operation and no reversed copy. *)
let rec fold_rev f acc = function [] -> acc | op :: older -> f (fold_rev f acc older) op

(* The view of a live transaction (the base for one with no intentions
   here), derived again only if a commit moved the base since. *)
let view (d : _ du) = function
  | No_txn -> d.base
  | Txn e ->
      if e.stamp <> d.version then begin
        e.view <- Spec.after_fold d.m fold_rev d.base e.ops;
        e.stamp <- d.version
      end;
      e.view

let record_du tid op (d : _ du) =
  match find_txn tid d.txns with
  | Txn e as x ->
      e.view <- stepped "DU" d.m (view d x) op;
      e.ops <- op :: e.ops
  | No_txn ->
      let view = stepped "DU" d.m d.base op in
      d.txns <- Txn { tid; ops = [ op ]; view; stamp = d.version; next = d.txns }

let commit_du t tid (d : _ du) =
  match find_txn tid d.txns with
  | No_txn -> count_committed t 0
  | Txn e as x ->
      (* A view on the current base is the new base; a stale one is
         derived again, and must still apply. *)
      (match view d x with
      | [] ->
          invalid_arg
            (Fmt.str
               "Recovery.commit(DU): intentions list of %a no longer applies \
                (conflict relation too weak)"
               Tid.pp tid)
      | next -> d.base <- next);
      d.version <- d.version + 1;
      count_committed t (List.length e.ops);
      d.log <- Op_log.push_rev d.log e.ops;
      d.txns <- unlink_txn x d.txns

let abort_du t tid (d : _ du) =
  match find_txn tid d.txns with
  | No_txn -> count_discarded t 0
  | Txn e as x ->
      count_discarded t (List.length e.ops);
      d.txns <- unlink_txn x d.txns

let restore_du log (d : _ du) =
  match d.txns with
  | No_txn when Op_log.length d.log = 0 -> (
      match replayed "DU" d.obj d.m log with
      | Ok next ->
          d.base <- next;
          d.version <- d.version + 1;
          d.log <- log;
          Ok ()
      | Error _ as e -> e)
  | No_txn | Txn _ -> not_fresh "DU" d.obj

(* ------------------------------------------------------------------ *)
(* The manager.                                                        *)

let create ?inverse kind (Spec.Packed { name; m = (module S) as m }) =
  match kind with
  | UIP ->
      let base = [ S.initial ] and inverse = Option.value inverse ~default:no_inverse in
      Uip { m; obj = name; inverse; base; current = base; head = End; tail = End;
            live = No_live; log = Op_log.empty; handles = Detached }
  | DU ->
      Du { m; obj = name; base = [ S.initial ]; version = 0; txns = No_txn;
           log = Op_log.empty; handles = Detached }

(* Distinct legal responses to [inv] from the transaction's state-set,
   each of which keeps the overall sequence legal by construction. *)
let responses t tid inv =
  match t with
  | Uip u -> Spec.state_responses u.m u.current inv
  | Du d -> Spec.state_responses d.m (view d (find_txn tid d.txns)) inv

let response t tid inv =
  match t with
  | Uip u -> Spec.state_response u.m u.current inv
  | Du d -> Spec.state_response d.m (view d (find_txn tid d.txns)) inv

let record t tid op = match t with Uip u -> record_uip tid op u | Du d -> record_du tid op d
let commit t tid = match t with Uip u -> commit_uip t tid u | Du d -> commit_du t tid d
let abort t tid = match t with Uip u -> abort_uip t tid u | Du d -> abort_du t tid d
let restore t log = match t with Uip u -> restore_uip log u | Du d -> restore_du log d
let committed_log = function Uip u -> u.log | Du d -> d.log
let committed_ops t = Op_log.to_list (committed_log t)

let intentions t tid =
  match t with
  | Uip u -> ( match find_live tid u.live with Live e -> e.mine | No_live -> [])
  | Du d -> ( match find_txn tid d.txns with Txn e -> e.ops | No_txn -> [])
