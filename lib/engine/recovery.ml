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

(* The spec's state type is abstract; each manager is a record of closures
   built in a scope where the module is unpacked.  [commit] and [abort]
   take the manager itself so they can count into its handles. *)
type t = {
  kind : kind;
  obj : string;
  responses : Tid.t -> Op.invocation -> Value.t list;
  record : Tid.t -> Op.t -> unit;
  commit : t -> Tid.t -> unit;
  abort : t -> Tid.t -> unit;
  restore : Op.t list -> (unit, error) result;
  committed_ops : unit -> Op.t list;
  (* The attached registry and one handle per series the manager counts
     into, each {!Metrics.Counter.unresolved} until its first event. *)
  mutable reg : Metrics.t option;
  mutable committed : Metrics.counter;
  mutable undone_inverse : Metrics.counter;
  mutable undone_replay : Metrics.counter;
  mutable discarded : Metrics.counter;
}

(* Every accessor takes its full arity.  Callers may see only the
   interface (dev builds compile with [-opaque]), so a [responses t]
   that returned the closure would make every call
   [Recovery.responses t tid inv] build a partial application. *)
let kind t = t.kind
let responses t tid inv = t.responses tid inv
let record t tid op = t.record tid op
let commit t tid = t.commit t tid
let abort t tid = t.abort t tid
let restore t ops = t.restore ops
let committed_ops t = t.committed_ops ()

let unresolved = Metrics.Counter.unresolved

let attach_metrics t reg =
  match t.reg with
  | Some r when r == reg -> ()
  | _ ->
      t.reg <- Some reg;
      t.committed <- unresolved;
      t.undone_inverse <- unresolved;
      t.undone_replay <- unresolved;
      t.discarded <- unresolved

(* Per-object undo/redo accounting; every call is on a commit/abort path,
   never per recorded operation.  Each handle is searched for in the
   registry only on its series' first event. *)
let count_committed t n =
  match t.reg with
  | None -> ()
  | Some reg ->
      if t.committed == unresolved then
        t.committed <- Metrics.counter reg "tm_recovery_committed_ops_total" ~labels:[ ("obj", t.obj) ];
      Metrics.Counter.incr ~by:n t.committed

let count_undone_inverse t n =
  match t.reg with
  | None -> ()
  | Some reg ->
      if t.undone_inverse == unresolved then
        t.undone_inverse <-
          Metrics.counter reg "tm_recovery_undone_ops_total"
            ~labels:[ ("obj", t.obj); ("mode", "inverse") ];
      Metrics.Counter.incr ~by:n t.undone_inverse

let count_undone_replay t n =
  match t.reg with
  | None -> ()
  | Some reg ->
      if t.undone_replay == unresolved then
        t.undone_replay <-
          Metrics.counter reg "tm_recovery_undone_ops_total"
            ~labels:[ ("obj", t.obj); ("mode", "replay") ];
      Metrics.Counter.incr ~by:n t.undone_replay

let count_discarded t n =
  match t.reg with
  | None -> ()
  | Some reg ->
      if t.discarded == unresolved then
        t.discarded <- Metrics.counter reg "tm_recovery_discarded_ops_total" ~labels:[ ("obj", t.obj) ];
      Metrics.Counter.incr ~by:n t.discarded

(* Distinct legal responses to [inv] from a state-set, each of which keeps
   the overall sequence legal by construction. *)
let candidate_responses (type s) (module S : Spec.S with type state = s) states inv =
  let vs =
    match states with
    | [ st ] -> List.map fst (S.respond st inv)
    | _ -> List.concat_map (fun st -> List.map fst (S.respond st inv)) states
  in
  match vs with
  | [] | [ _ ] -> vs  (* sorted already; skip [sort_uniq]'s closures *)
  | _ -> List.sort_uniq Value.compare vs

(* A stretch of the UIP live suffix: one 4-word cell per executed
   operation, not a pair in a list cell (6 words). *)
type entries =
  | End
  | Entry of Tid.t * Op.t * entries

let rec rev_entries acc = function
  | End -> acc
  | Entry (tid, op, rest) -> rev_entries (Entry (tid, op, acc)) rest

(* [l] without the next [!left] entries of [tid], counting them off in
   [left]: the tail after the last one dropped is shared, not copied. *)
let rec drop tid left l =
  if !left = 0 then l
  else
    match l with
    | End -> End
    | Entry (t, op, rest) ->
        if Tid.equal t tid then begin
          decr left;
          drop tid left rest
        end
        else Entry (t, op, drop tid left rest)

(* State-sets are sorted, duplicate-free lists ({!Spec.step_states}), so
   a manager holds no functor instance of its own: it costs what its
   states and operations cost, whatever the number of objects of its
   type. *)
let create_uip ?inverse (Spec.Packed (module S) as spec) : t =
  let step = Spec.step_states (module S) and after = Spec.after_states (module S) in
  let obj = Spec.name spec in
  (* The live suffix: the entries of non-aborted transactions in
     execution order, from the first operation of the oldest transaction
     still live here.  It is a two-list queue, [front] oldest first and
     [back] newest first.  Every operation before it is committed and so
     belongs to every future UIP view: no abort can remove it.  That
     prefix is folded into [base], and [current] is always [base] stepped
     through the suffix. *)
  let base = ref [ S.initial ] in
  let current = ref !base in
  let front = ref End and back = ref End in
  let per_txn : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = match Hashtbl.find per_txn tid with ops -> ops | exception Not_found -> [] in
  let rec step_through st = function
    | End -> st
    | Entry (_, op, rest) -> step_through (step st op) rest
  in
  (* Fold the leading entries of finished transactions into [base].  Aborts
     drop their entries first, so every such entry is committed. *)
  let rec fold () =
    if Hashtbl.length per_txn = 0 then begin
      base := !current;
      front := End;
      back := End
    end
    else
      match !front, !back with
      | Entry (tid, op, rest), _ when not (Hashtbl.mem per_txn tid) ->
          base := step !base op;
          front := rest;
          fold ()
      | End, (Entry _ as back') ->
          front := rev_entries End back';
          back := End;
          fold ()
      | _ -> ()
  in
  let responses _tid inv = candidate_responses (module S) !current inv in
  let record tid op =
    let next = step !current op in
    if next = [] then
      invalid_arg (Fmt.str "Recovery.record(UIP): illegal operation %a" Op.pp op);
    current := next;
    back := Entry (tid, op, !back);
    Hashtbl.replace per_txn tid (op :: txn_ops tid)
  in
  let commit t tid =
    let mine = txn_ops tid in
    count_committed t (List.length mine);
    committed_log := mine @ !committed_log;
    Hashtbl.remove per_txn tid;
    fold ()
  in
  (* Undo by compensation: step the current state through the inverses
     of the transaction's operations, newest first, at the current end of
     the log.  Only used when the type registers inverses (abelian
     updates); [[]] sends abort to the replay path below, the general,
     always-correct form, and the two are checked equivalent by property
     tests. *)
  let rec compensate inverse st = function
    | [] -> st
    | op :: rest -> (
        match inverse op with
        | None -> []
        | Some undo -> (
            match List.fold_left step st undo with [] -> [] | st -> compensate inverse st rest))
  in
  let abort t tid =
    let mine = txn_ops tid in
    Hashtbl.remove per_txn tid;
    let n = List.length mine in
    let left = ref n in
    back := drop tid left !back;
    front := drop tid left !front;
    let undone = match inverse with None -> [] | Some inverse -> compensate inverse !current mine in
    (* Fall back to replay if an operation has no inverse or a
       compensating operation is not legal here (cannot happen for
       well-chosen inverses, but safety wins). *)
    if undone = [] then begin
      count_undone_replay t n;
      current := step_through (step_through !base !front) (rev_entries End !back)
    end
    else begin
      count_undone_inverse t n;
      current := undone
    end;
    fold ()
  in
  (* Install an already-committed sequence into a fresh manager: replayed
     work belongs to no live transaction, so it goes straight into the
     base and committed log (no per-transaction bookkeeping, no tid). *)
  let restore ops =
    if !committed_log <> [] || Hashtbl.length per_txn > 0 then
      Error { obj; reason = "restore(UIP): manager not fresh" }
    else begin
      let next = after [ S.initial ] ops in
      if ops <> [] && next = [] then
        Error { obj; reason = "restore(UIP): replayed sequence not legal" }
      else begin
        base := next;
        current := next;
        committed_log := List.rev ops;
        Ok ()
      end
    end
  in
  let committed_ops () = List.rev !committed_log in
  { kind = UIP; obj; responses; record; commit; abort; restore; committed_ops;
    reg = None; committed = unresolved; undone_inverse = unresolved;
    undone_replay = unresolved; discarded = unresolved }

(* A live transaction's part of a DU manager: its intentions, newest
   first, and the state-set they reach from the base of version
   [stamp]. *)
type 's txn = {
  mutable ops : Op.t list;
  mutable view : 's list;
  mutable stamp : int;
}

(* [states] stepped through [op], which must be legal there.  Top-level,
   so a DU manager holds no closure for it. *)
let stepped step states op =
  match step states op with
  | [] -> invalid_arg (Fmt.str "Recovery.record(DU): illegal operation %a" Op.pp op)
  | next -> next

let create_du (Spec.Packed (module S) as spec) : t =
  let step = Spec.step_states (module S) and after = Spec.after_states (module S) in
  let obj = Spec.name spec in
  (* The committed base and its version, which every commit and restore
     bumps.  Each live transaction keeps its view, base + its own
     intentions, exactly [DU(H,A)]: an invocation steps it, and only a
     view stamped with an older base is derived again from the base. *)
  let base = ref [ S.initial ] and version = ref 0 in
  let txns : (Tid.t, S.state txn) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let view e =
    if e.stamp <> !version then begin
      e.view <- after !base (List.rev e.ops);
      e.stamp <- !version
    end;
    e.view
  in
  (* Lookups run on every invocation, so they catch [Not_found] rather
     than allocate an option. *)
  let responses tid inv =
    candidate_responses (module S)
      (match Hashtbl.find txns tid with e -> view e | exception Not_found -> !base)
      inv
  in
  let record tid op =
    match Hashtbl.find txns tid with
    | e ->
        e.view <- stepped step (view e) op;
        e.ops <- op :: e.ops
    | exception Not_found ->
        Hashtbl.add txns tid { ops = [ op ]; view = stepped step !base op; stamp = !version }
  in
  let commit t tid =
    match Hashtbl.find txns tid with
    | exception Not_found -> count_committed t 0
    | e ->
        (* A view on the current base is the new base; a stale one is
           derived again, and must still apply. *)
        let next = view e in
        if next = [] then
          invalid_arg
            (Fmt.str
               "Recovery.commit(DU): intentions list of %a no longer applies \
                (conflict relation too weak)"
               Tid.pp tid);
        base := next;
        incr version;
        count_committed t (List.length e.ops);
        committed_log := e.ops @ !committed_log;
        Hashtbl.remove txns tid
  in
  let abort t tid =
    count_discarded t
      (match Hashtbl.find txns tid with e -> List.length e.ops | exception Not_found -> 0);
    Hashtbl.remove txns tid
  in
  let restore ops =
    if !committed_log <> [] || Hashtbl.length txns > 0 then
      Error { obj; reason = "restore(DU): manager not fresh" }
    else begin
      let next = after [ S.initial ] ops in
      if ops <> [] && next = [] then
        Error { obj; reason = "restore(DU): replayed sequence not legal" }
      else begin
        base := next;
        incr version;
        committed_log := List.rev ops;
        Ok ()
      end
    end
  in
  let committed_ops () = List.rev !committed_log in
  { kind = DU; obj; responses; record; commit; abort; restore; committed_ops;
    reg = None; committed = unresolved; undone_inverse = unresolved;
    undone_replay = unresolved; discarded = unresolved }

let create ?inverse kind spec =
  match kind with
  | UIP -> create_uip ?inverse spec
  | DU -> create_du spec
