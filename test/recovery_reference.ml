(* The recovery managers as they were when each one kept its state-sets
   as a [Set] ([Explore_reference.Make], the explorer of that time): the
   oracle of the state-set refinement properties in test_engine.ml,
   which check that the sorted-list state-sets of [Recovery] answer
   exactly the same.
   Metrics are left out, and a spec's responses are read through
   [Spec_reference.pairs]; everything else is unchanged. *)

open Tm_core

type t = {
  responses : Tid.t -> Op.invocation -> Value.t list;
  record : Tid.t -> Op.t -> unit;
  commit : Tid.t -> unit;
  abort : Tid.t -> unit;
  restore : Op.t list -> (unit, string) result;
  committed_ops : unit -> Op.t list;
}

let candidate_responses (type s) (module S : Spec.S with type state = s) states inv =
  List.concat_map (fun st -> List.map fst (Spec_reference.pairs (module S) st inv)) states
  |> List.sort_uniq Value.compare

let create_uip ?inverse (Spec.Packed { m = (module S); _ }) =
  let module E = Explore_reference.Make (S) in
  let base = ref E.initial_set in
  let current = ref E.initial_set in
  let front = ref [] and back = ref [] in
  let per_txn : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = Option.value (Hashtbl.find_opt per_txn tid) ~default:[] in
  let step_entry st (_, op) = E.step st op in
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
  let responses _tid inv = candidate_responses (module S) (E.States.elements !current) inv in
  let record tid op =
    let next = E.step !current op in
    if E.States.is_empty next then
      invalid_arg (Fmt.str "Recovery.record(UIP): illegal operation %a" Op.pp op);
    current := next;
    back := (tid, op) :: !back;
    Hashtbl.replace per_txn tid (op :: txn_ops tid)
  in
  let commit tid =
    committed_log := txn_ops tid @ !committed_log;
    Hashtbl.remove per_txn tid;
    fold ()
  in
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
  let abort tid =
    let mine = txn_ops tid in
    Hashtbl.remove per_txn tid;
    let survives (t, _) = not (Tid.equal t tid) in
    front := List.filter survives !front;
    back := List.filter survives !back;
    let replayed () =
      List.fold_left step_entry (List.fold_left step_entry !base !front) (List.rev !back)
    in
    (current :=
       match compensation mine with
       | None -> replayed ()
       | Some undo ->
           let next = E.after !current undo in
           if E.States.is_empty next then replayed () else next);
    fold ()
  in
  let restore ops =
    if !committed_log <> [] || Hashtbl.length per_txn > 0 then
      Error "restore(UIP): manager not fresh"
    else begin
      let next = E.after E.initial_set ops in
      if ops <> [] && E.States.is_empty next then
        Error "restore(UIP): replayed sequence not legal"
      else begin
        base := next;
        current := next;
        committed_log := List.rev ops;
        Ok ()
      end
    end
  in
  let committed_ops () = List.rev !committed_log in
  { responses; record; commit; abort; restore; committed_ops }

let create_du (Spec.Packed { m = (module S); _ }) =
  let module E = Explore_reference.Make (S) in
  let base = ref E.initial_set in
  let intentions : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = Option.value (Hashtbl.find_opt intentions tid) ~default:[] in
  let view tid = E.after !base (List.rev (txn_ops tid)) in
  let responses tid inv = candidate_responses (module S) (E.States.elements (view tid)) inv in
  let record tid op =
    if E.States.is_empty (E.step (view tid) op) then
      invalid_arg (Fmt.str "Recovery.record(DU): illegal operation %a" Op.pp op);
    Hashtbl.replace intentions tid (op :: txn_ops tid)
  in
  let commit tid =
    let ops = List.rev (txn_ops tid) in
    let next = E.after !base ops in
    if ops <> [] && E.States.is_empty next then
      invalid_arg
        (Fmt.str
           "Recovery.commit(DU): intentions list of %a no longer applies \
            (conflict relation too weak)"
           Tid.pp tid);
    base := next;
    committed_log := txn_ops tid @ !committed_log;
    Hashtbl.remove intentions tid
  in
  let abort tid = Hashtbl.remove intentions tid in
  let restore ops =
    if !committed_log <> [] || Hashtbl.length intentions > 0 then
      Error "restore(DU): manager not fresh"
    else begin
      let next = E.after E.initial_set ops in
      if ops <> [] && E.States.is_empty next then
        Error "restore(DU): replayed sequence not legal"
      else begin
        base := next;
        committed_log := List.rev ops;
        Ok ()
      end
    end
  in
  let committed_ops () = List.rev !committed_log in
  { responses; record; commit; abort; restore; committed_ops }
