(* The update-in-place recovery manager before its committed prefix was
   folded into a base state-set: it keeps every operation of every
   non-aborted transaction, and an abort that cannot compensate replays
   that whole log from the initial state.  The oracle of the refinement
   property in test_engine.ml. *)

open Tm_core

type t = {
  responses : Op.invocation -> Value.t list;
  record : Tid.t -> Op.t -> unit;
  commit : Tid.t -> unit;
  abort : Tid.t -> unit;
  restore : Op.t list -> unit;
  committed_ops : unit -> Op.t list;
}

let create ?inverse (Spec.Packed { m = (module S); _ }) =
  let module E = Explore_reference.Make (S) in
  let current = ref E.initial_set in
  (* The restored operations, and after them (tid, op) of every
     non-aborted operation executed since, newest first.  An abort
     removes its own transaction's by tid: equal operations of other
     transactions may be one shared value. *)
  let restored = ref [] in
  let log = ref [] in
  let per_txn : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed_log = ref [] (* newest first *) in
  let txn_ops tid = Option.value (Hashtbl.find_opt per_txn tid) ~default:[] in
  let responses inv =
    E.States.elements !current
    |> List.concat_map (fun st -> List.map fst (Spec_reference.pairs (module S) st inv))
    |> List.sort_uniq Value.compare
  in
  let record tid op =
    current := E.step !current op;
    log := (tid, op) :: !log;
    Hashtbl.replace per_txn tid (op :: txn_ops tid)
  in
  let commit tid =
    committed_log := txn_ops tid @ !committed_log;
    Hashtbl.remove per_txn tid
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
    log := List.filter (fun (t, _) -> not (Tid.equal t tid)) !log;
    let replayed () = E.after E.initial_set (!restored @ List.rev_map snd !log) in
    current :=
      match compensation mine with
      | None -> replayed ()
      | Some undo ->
          let next = E.after !current undo in
          if E.States.is_empty next then replayed () else next
  in
  let restore ops =
    current := E.after E.initial_set ops;
    restored := ops;
    log := [];
    committed_log := List.rev ops
  in
  let committed_ops () = List.rev !committed_log in
  { responses; record; commit; abort; restore; committed_ops }
