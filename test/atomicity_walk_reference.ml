(* The dynamic-atomicity checkers as they were before [Atomicity] read
   [precedes] as an interval order: the downsets of the transitive
   closure (Warshall) of an n x n [precedes] matrix, as n-bit arrays,
   walked a level at a time per object.  Polynomial in the number of
   mutually concurrent transactions but quadratic in all of them, so
   only for the medium-sized histories of the agreement properties in
   test_atomicity.ml. *)

open Tm_core

(* Sets of transaction indices, as bit arrays. *)
let mem s i = s.(i / Sys.int_size) land (1 lsl (i mod Sys.int_size)) <> 0
let add s i = s.(i / Sys.int_size) <- s.(i / Sys.int_size) lor (1 lsl (i mod Sys.int_size))
let union a b = Array.iteri (fun w x -> a.(w) <- a.(w) lor x) b
let subset a b = Array.for_all2 (fun x y -> x land lnot y = 0) a b

module Downsets = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )

  (* [Hashtbl.hash] mixes the fold's high bits into the low bits a table indexes by. *)
  let hash a = Hashtbl.hash (Array.fold_left (fun h w -> (h * 65599) + w) 0 a)
end)

(* [walk spec ~pred ~ops xs] walks the downsets of [pred] over an
   object's transactions [xs] a level at a time, keeping per downset the
   distinct state-sets its serializations reach and one path to each.  It
   answers the first path whose last transaction leaves no state (a
   shortest illegal serialization), or [None]: then every consistent
   order is legal, since a spec is prefix-closed. *)
let walk (Spec.Packed { m = (module S); _ }) ~pred ~ops xs =
  let exception Illegal of int list in
  let step next d i (sts, path) =
    match Spec.after_states (module S) sts ops.(i) with
    | [] -> raise (Illegal (List.rev (i :: path)))
    | sts' ->
        let d' = Array.copy d in
        add d' i;
        let known = Option.value (Downsets.find_opt next d') ~default:[] in
        if not (List.exists (fun (k, _) -> List.equal S.equal_state k sts') known) then
          Downsets.replace next d' ((sts', i :: path) :: known)
  in
  let rec level cur =
    if Downsets.length cur > 0 then begin
      let next = Downsets.create (Downsets.length cur) in
      Downsets.iter
        (fun d entries ->
          List.iter
            (fun i ->
              if (not (mem d i)) && subset pred.(i) d then List.iter (step next d i) entries)
            xs)
        cur;
      level next
    end
  in
  let first = Downsets.create 1 in
  Downsets.add first (Array.map (fun _ -> 0) pred.(0)) [ ([ S.initial ], []) ];
  match level first with () -> None | exception Illegal path -> Some path

(* Every total order of [committed ∪ active] consistent with [precedes h]
   must have each of its prefixes serialize, one object at a time
   (Theorem 2).  At object X only X's transactions matter, and an order of
   them consistent with the transitive closure of [precedes] extends to a
   consistent order of all, so the walk runs over X's transactions alone.
   An active transaction never commits, so it precedes nothing: the
   prefixes of the orders of every commit set are the paths of one walk. *)
let check env h ~committed ~active =
  let ts = Array.of_list (Tid.Set.elements (Tid.Set.union committed active)) in
  let all = List.init (Array.length ts) Fun.id in
  let bits f =
    let s = Array.make ((Array.length ts + Sys.int_size - 1) / Sys.int_size) 0 in
    List.iter (fun i -> if f i then add s i) all;
    s
  in
  let precedes = History.precedes h in
  let pred = Array.map (fun b -> bits (fun i -> precedes ts.(i) b)) ts in
  (* Close [pred] transitively (Warshall). *)
  List.iter (fun k -> Array.iter (fun p -> if mem p k then union p pred.(k)) pred) all;
  (* A consistent order of the committed transactions and those on
     [path], in which the members of [s] begin with [path]: adding that
     constraint to [pred] keeps it acyclic. *)
  let complete s path =
    let keep = bits (fun i -> Tid.Set.mem ts.(i) committed || List.mem i path) in
    let placed = bits (fun _ -> false) in
    let rec place acc =
      let next = List.find_opt (fun j -> not (mem placed j)) path in
      let ready i =
        mem keep i && (not (mem placed i)) && subset pred.(i) placed
        && ((not (mem s i)) || next = None || next = Some i)
      in
      match List.find_opt ready all with
      | Some i ->
          add placed i;
          place (ts.(i) :: acc)
      | None -> List.rev acc
    in
    place []
  in
  let check_object x =
    let hx = History.project_obj h x in
    let ops = Array.map (fun t -> History.opseq (History.project_tid hx t)) ts in
    let s = bits (fun i -> ops.(i) <> []) in
    let xs = List.filter (mem s) all in
    let pred = Array.map (Array.map2 ( land ) s) pred in
    if xs = [] then None
    else Option.map (complete s) (walk (env x) ~pred ~ops xs)
  in
  (* No order is consistent with a cyclic [precedes]. *)
  if List.exists (fun i -> mem pred.(i) i) all then Atomicity.Ok
  else
    match List.find_map check_object (History.objects h) with
    | None -> Atomicity.Ok
    | Some order -> Atomicity.Counterexample order

let dynamic_atomic env h = check env h ~committed:(History.committed h) ~active:Tid.Set.empty

let online_dynamic_atomic env h =
  check env h ~committed:(History.committed h) ~active:(History.active h)
