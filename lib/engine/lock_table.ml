open Tm_core
module Metrics = Tm_obs.Metrics

(* One transaction's holds at the object, newest first.  A hold is one
   3-word cell, not a pair in a list cell (6 words). *)
type holds =
  | Nil
  | Hold of Op.t * holds

(* The transactions holding an operation here, newest holder first: one
   4-word entry each, linked in place, so neither a new holder nor a
   release builds a list cell. *)
type holders =
  | No_holder
  | Holder of { tid : Tid.t; mutable ops : holds; mutable next : holders }

type t = {
  conflict : Conflict.t;
  (* An object has a handful of holders at a time, so a chain walked by
     first-order loops beats a table: [blockers] skips the requester's
     holds wholesale, and no walk allocates a closure. *)
  mutable holders : holders;
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
    holders = No_holder;
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
  | Nil -> found
  | Hold (op, rest) ->
      if Conflict.conflicts t.conflict ~requested ~held:op then begin
        note_conflict t ~requested ~held:op;
        conflicting t requested true rest
      end
      else conflicting t requested found rest

(* [holder] into the strictly increasing [sorted], which does not hold it
   (each transaction has at most one entry in the holders). *)
let rec insert holder = function
  | h :: rest when Tid.compare h holder < 0 -> h :: insert holder rest
  | sorted -> holder :: sorted

(* Each holder is inserted into the answer in order as it is found, so
   the answer needs no sort, and the holders are still walked in their
   own order: the order of first conflicts decides the order in which the
   conflict-pair series are registered. *)
let rec blocking t requested tid acc = function
  | No_holder -> acc
  | Holder h ->
      let acc =
        if (not (Tid.equal h.tid tid)) && conflicting t requested false h.ops then
          insert h.tid acc
        else acc
      in
      blocking t requested tid acc h.next

let blockers t ~requested ~tid = blocking t requested tid [] t.holders

(* Whether [tid] holds here; if so, [op] joins its holds. *)
let rec push tid op = function
  | No_holder -> false
  | Holder h ->
      if Tid.equal h.tid tid then begin
        h.ops <- Hold (op, h.ops);
        true
      end
      else push tid op h.next

let add t tid op =
  if not (push tid op t.holders) then
    t.holders <- Holder { tid; ops = Hold (op, Nil); next = t.holders }

(* Unlink [tid]'s entry, which follows [prev] (the first when
   [No_holder]), in place; nothing if [tid] holds nothing here. *)
let rec unlink t tid prev =
  match (match prev with No_holder -> t.holders | Holder p -> p.next) with
  | No_holder -> ()
  | Holder h as cur ->
      if Tid.equal h.tid tid then
        match prev with No_holder -> t.holders <- h.next | Holder p -> p.next <- h.next
      else unlink t tid cur

let release t tid = unlink t tid No_holder

(* [tid]'s holds [ops] (newest first), oldest first, before [acc]. *)
let rec held tid acc = function Nil -> acc | Hold (op, older) -> held tid ((tid, op) :: acc) older

let holds t =
  let rec all = function No_holder -> [] | Holder h -> held h.tid (all h.next) h.ops in
  all t.holders
