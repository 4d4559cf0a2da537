open Tm_core
module Metrics = Tm_obs.Metrics

type t = {
  conflict : Conflict.t;
  (* Per-holder index: the operations each transaction holds, newest
     first, each stamped with a global insertion sequence so {!holds}
     can still present the table oldest-first across holders.  Keying by
     tid makes [release] O(1) (one bucket removal) and lets [blockers]
     skip the requester's own holds wholesale, instead of the former
     O(total holds) list scans. *)
  held : (Tid.t, (int * Op.t) list) Hashtbl.t;
  mutable next_seq : int;
  (* The attached registry, the object name its series are labelled
     with, and the conflict-pair counters resolved so far (one per
     operation-name pair that has blocked, so at most |ops|^2). *)
  mutable reg : Metrics.t option;
  mutable obj : string;
  mutable pairs : Metrics.Handles.t;
}

let create conflict =
  {
    conflict;
    held = Hashtbl.create 16;
    next_seq = 0;
    reg = None;
    obj = "";
    pairs = Metrics.Handles.empty;
  }

(* Handles belong to the registry they were resolved in: a different
   registry starts with none.  Re-attaching to the same one keeps them. *)
let attach_metrics t ~obj reg =
  match t.reg with
  | Some r when r == reg && String.equal t.obj obj -> ()
  | _ ->
      t.reg <- Some reg;
      t.obj <- obj;
      t.pairs <- Metrics.Handles.empty

(* Conflict-pair accounting lives here (not in the caller) because only
   the lock table sees which held operation blocked the request.  It runs
   on the contention path only — an uncontended request touches no
   metric — and searches the registry only on a pair's first conflict. *)
let note_conflict t ~requested ~held =
  match t.reg with
  | None -> ()
  | Some reg ->
      let requested = requested.Op.inv.Op.name and held = held.Op.inv.Op.name in
      let c = Metrics.Handles.find t.pairs requested held in
      let c =
        if c != Metrics.Counter.unresolved then c
        else begin
          let c =
            Metrics.counter reg "tm_lock_conflicts_total"
              ~labels:[ ("obj", t.obj); ("requested", requested); ("held", held) ]
          in
          t.pairs <- Metrics.Handles.add t.pairs requested held c;
          c
        end
      in
      Metrics.Counter.incr c

(* Whether any of [ops] conflicts with [requested], counting every
   conflicting pair (no short-circuit). *)
let rec conflicting t requested found = function
  | [] -> found
  | (_, op) :: rest ->
      if Conflict.conflicts t.conflict ~requested ~held:op then begin
        note_conflict t ~requested ~held:op;
        conflicting t requested true rest
      end
      else conflicting t requested found rest

(* [holder] into the strictly increasing [sorted], which does not hold it
   (each holder is one key of the table). *)
let rec insert holder = function
  | h :: rest when Tid.compare h holder < 0 -> h :: insert holder rest
  | sorted -> holder :: sorted

(* Each holder is inserted into the answer in order as it is found, so
   the answer needs no sort, and the table is still walked in its own
   order: the order of first conflicts decides the order in which the
   conflict-pair series are registered. *)
let blockers t ~requested ~tid =
  Hashtbl.fold
    (fun holder ops acc ->
      if (not (Tid.equal holder tid)) && conflicting t requested false ops then insert holder acc
      else acc)
    t.held []

let add t tid op =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.held tid
    ((seq, op) :: Option.value (Hashtbl.find_opt t.held tid) ~default:[])

let release t tid = Hashtbl.remove t.held tid

let holds t =
  Hashtbl.fold
    (fun tid ops acc -> List.rev_append (List.rev_map (fun (s, op) -> (s, tid, op)) ops) acc)
    t.held []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (_, tid, op) -> (tid, op))
let conflict t = t.conflict
