open Tm_core
module Metrics = Tm_obs.Metrics

type kind =
  | UIP
  | DU

let pp_kind ppf = function
  | UIP -> Fmt.string ppf "update-in-place"
  | DU -> Fmt.string ppf "deferred-update"

let kind_of_string = function
  | "uip" | "UIP" -> Some UIP
  | "du" | "DU" -> Some DU
  | _ -> None

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

let kind t = t.kind
let responses t = t.responses
let record t = t.record
let commit t tid = t.commit t tid
let abort t tid = t.abort t tid
let restore t = t.restore
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
  match List.concat_map (fun st -> List.map fst (S.respond st inv)) states with
  | ([] | [ _ ]) as vs -> vs  (* sorted already; skip [sort_uniq]'s closures *)
  | vs -> List.sort_uniq Value.compare vs

(* State-sets are sorted, duplicate-free lists ({!Spec.step_states}), so
   a manager holds no functor instance of its own: it costs what its
   states and operations cost, whatever the number of objects of its
   type. *)
let create_uip ?inverse (Spec.Packed (module S) as spec) : t =
  let step = Spec.step_states (module S) and after = Spec.after_states (module S) in
  let obj = Spec.name spec in
  (* The live suffix: [(tid, op)] entries of non-aborted transactions in
     execution order, from the first operation of the oldest transaction
     still live here.  It is a two-list queue, [front] oldest first and
     [back] newest first.  Every operation before it is committed and so
     belongs to every future UIP view: no abort can remove it.  That
     prefix is folded into [base], and [current] is always [base] stepped
     through the suffix. *)
  let base = ref [ S.initial ] in
  let current = ref !base in
  let front = ref [] and back = ref [] in
  let per_txn : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = Option.value (Hashtbl.find_opt per_txn tid) ~default:[] in
  let step_entry st (_, op) = step st op in
  (* Fold the leading entries of finished transactions into [base].  Aborts
     drop their entries first, so every such entry is committed. *)
  let rec fold () =
    if Hashtbl.length per_txn = 0 then begin
      base := !current;
      front := [];
      back := []
    end
    else
      match !front with
      | ((tid, _) as e) :: rest when not (Hashtbl.mem per_txn tid) ->
          base := step_entry !base e;
          front := rest;
          fold ()
      | [] when !back <> [] ->
          front := List.rev !back;
          back := [];
          fold ()
      | _ -> ()
  in
  let responses _tid inv = candidate_responses (module S) !current inv in
  let record tid op =
    let next = step !current op in
    if next = [] then
      invalid_arg (Fmt.str "Recovery.record(UIP): illegal operation %a" Op.pp op);
    current := next;
    back := (tid, op) :: !back;
    Hashtbl.replace per_txn tid (op :: txn_ops tid)
  in
  let commit t tid =
    let mine = txn_ops tid in
    count_committed t (List.length mine);
    committed_log := mine @ !committed_log;
    Hashtbl.remove per_txn tid;
    fold ()
  in
  (* Undo by compensation: apply the inverses of the transaction's
     operations, newest first, at the current end of the log.  Only used
     when the type registers inverses (abelian updates); the replay path
     below is the general, always-correct form, and the two are checked
     equivalent by property tests. *)
  let compensation mine =
    match inverse with
    | None -> None
    | Some inverse ->
        List.fold_left
          (fun acc op ->
            match acc, inverse op with
            | Some done_, Some undo -> Some (done_ @ undo)
            | _, _ -> None)
          (Some []) mine
  in
  let abort t tid =
    let mine = txn_ops tid in
    Hashtbl.remove per_txn tid;
    let survives (t, _) = not (Tid.equal t tid) in
    front := List.filter survives !front;
    back := List.filter survives !back;
    let replayed () =
      List.fold_left step_entry (List.fold_left step_entry !base !front) (List.rev !back)
    in
    (match compensation mine with
    | None ->
        count_undone_replay t (List.length mine);
        current := replayed ()
    | Some undo ->
        let next = after !current undo in
        (* Fall back to replay if a compensating operation is not legal
           here (cannot happen for well-chosen inverses, but safety wins). *)
        if next = [] then begin
          count_undone_replay t (List.length mine);
          current := replayed ()
        end
        else begin
          count_undone_inverse t (List.length mine);
          current := next
        end);
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

let create_du (Spec.Packed (module S) as spec) : t =
  let step = Spec.step_states (module S) and after = Spec.after_states (module S) in
  let obj = Spec.name spec in
  let base = ref [ S.initial ] in
  let intentions : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = Option.value (Hashtbl.find_opt intentions tid) ~default:[] in
  (* A transaction's view is base (committed, in commit order) plus its own
     intentions — recomputed per call because the base advances whenever
     any other transaction commits. *)
  let view tid = after !base (List.rev (txn_ops tid)) in
  let responses tid inv = candidate_responses (module S) (view tid) inv in
  let record tid op =
    if step (view tid) op = [] then
      invalid_arg (Fmt.str "Recovery.record(DU): illegal operation %a" Op.pp op);
    Hashtbl.replace intentions tid (op :: txn_ops tid)
  in
  let commit t tid =
    let ops = List.rev (txn_ops tid) in
    let next = after !base ops in
    if ops <> [] && next = [] then
      invalid_arg
        (Fmt.str
           "Recovery.commit(DU): intentions list of %a no longer applies \
            (conflict relation too weak)"
           Tid.pp tid);
    base := next;
    count_committed t (List.length ops);
    committed_log := txn_ops tid @ !committed_log;
    Hashtbl.remove intentions tid
  in
  let abort t tid =
    count_discarded t (List.length (txn_ops tid));
    Hashtbl.remove intentions tid
  in
  let restore ops =
    if !committed_log <> [] || Hashtbl.length intentions > 0 then
      Error { obj; reason = "restore(DU): manager not fresh" }
    else begin
      let next = after [ S.initial ] ops in
      if ops <> [] && next = [] then
        Error { obj; reason = "restore(DU): replayed sequence not legal" }
      else begin
        base := next;
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
