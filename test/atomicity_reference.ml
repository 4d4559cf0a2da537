(* The dynamic-atomicity checkers as they were before [Atomicity] walked
   downsets: every linear extension of [precedes] ([Orders]), and for the
   online variant every commit set, each tried with
   [Atomicity.serializable_in].  Exponential, so only for the small
   histories of the agreement properties in test_atomicity.ml. *)

open Tm_core

let dynamic_atomic env h =
  let perm = History.permanent h in
  let ts = Tid.Set.elements (History.transactions perm) in
  let orders = Orders.linear_extensions ts (History.precedes h) in
  match List.find_opt (fun o -> not (Atomicity.serializable_in env perm o)) orders with
  | None -> Atomicity.Ok
  | Some o -> Atomicity.Counterexample o

let online_dynamic_atomic env h =
  let committed = Tid.Set.elements (History.committed h) in
  let check_cs sub =
    let hcs = History.project_tids h (Tid.Set.of_list (committed @ sub)) in
    let ts = Tid.Set.elements (History.transactions hcs) in
    let orders = Orders.linear_extensions ts (History.precedes hcs) in
    List.find_opt (fun o -> not (Atomicity.serializable_in env hcs o)) orders
  in
  match List.find_map check_cs (Orders.subsets (Tid.Set.elements (History.active h))) with
  | None -> Atomicity.Ok
  | Some o -> Atomicity.Counterexample o
