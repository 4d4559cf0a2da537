(* The ten shipped specs' [respond]s as they were before a spec folded
   over its responses: each builds the list of every legal (response,
   next-state) pair, in the order the fold must visit them.  With the
   list forms of [apply] (the states one fixed response reaches),
   [Spec.step_states] and [Spec.responses] over them, the oracle of the
   fold properties in test_spec.ml. *)

open Tm_core
open Tm_adt

(* A spec's fold, read back as the list of pairs it visits, in order. *)
let pairs (type s) (module S : Spec.S with type state = s) st inv =
  List.rev (S.respond st inv (fun () r st' acc -> (r, st') :: acc) () [])

let bank s (inv : Op.invocation) =
  match inv.name, inv.args with
  | "deposit", [ Value.Int i ] when i > 0 -> [ (Value.ok, s + i) ]
  | "withdraw", [ Value.Int i ] when i > 0 ->
      if s >= i then [ (Value.ok, s - i) ] else [ (Value.no, s) ]
  | "balance", [] -> [ (Value.Int s, s) ]
  | _ -> []

let counter n (inv : Op.invocation) =
  let capacity = Bounded_counter.capacity in
  match inv.name, inv.args with
  | "incr", [ Value.Int i ] when i > 0 ->
      if n + i <= capacity then [ (Value.ok, n + i) ] else [ (Value.no, n) ]
  | "decr", [ Value.Int i ] when i > 0 ->
      if n >= i then [ (Value.ok, n - i) ] else [ (Value.no, n) ]
  | "read", [] -> [ (Value.Int n, n) ]
  | _ -> []

let register v (inv : Op.invocation) =
  match inv.name, inv.args with
  | "write", [ Value.Int x ] -> [ (Value.ok, x) ]
  | "read", [] -> [ (Value.Int v, v) ]
  | _ -> []

let int_set s (inv : Op.invocation) =
  let module Set = Int_set.Int_set in
  match inv.name, inv.args with
  | "insert", [ Value.Int x ] -> [ (Value.ok, Set.add x s) ]
  | "remove", [ Value.Int x ] -> [ (Value.ok, Set.remove x s) ]
  | "member", [ Value.Int x ] -> [ (Value.bool (Set.mem x s), s) ]
  | "size", [] -> [ (Value.int (Set.cardinal s), s) ]
  | _ -> []

let encode_opt = function Some x -> Value.list [ Value.int x ] | None -> Value.list []

let kv_store s (inv : Op.invocation) =
  let module Map = Kv_store.Str_map in
  match inv.name, inv.args with
  | "put", [ Value.Str k; Value.Int x ] -> [ (Value.ok, Map.add k x s) ]
  | "del", [ Value.Str k ] -> [ (Value.ok, Map.remove k s) ]
  | "get", [ Value.Str k ] -> [ (encode_opt (Map.find_opt k s), s) ]
  | _ -> []

let ordered_map s (inv : Op.invocation) =
  let module Map = Ordered_map.Int_map in
  let count_range lo hi s =
    Map.fold (fun k _ acc -> if k >= lo && k <= hi then acc + 1 else acc) s 0
  in
  match inv.name, inv.args with
  | "put", [ Value.Int k; Value.Int v ] -> [ (Value.ok, Map.add k v s) ]
  | "del", [ Value.Int k ] -> [ (Value.ok, Map.remove k s) ]
  | "get", [ Value.Int k ] -> [ (encode_opt (Map.find_opt k s), s) ]
  | "count", [ Value.Int lo; Value.Int hi ] -> [ (Value.int (count_range lo hi s), s) ]
  | _ -> []

let rec ms_remove x = function
  | [] -> None
  | y :: rest ->
      if x = y then Some rest
      else if y > x then None
      else Option.map (fun r -> y :: r) (ms_remove x rest)

let semiqueue s (inv : Op.invocation) =
  match inv.name, inv.args with
  | "enq", [ Value.Int x ] -> [ (Value.ok, List.sort Int.compare (x :: s)) ]
  | "deq", [] ->
      List.sort_uniq Int.compare s
      |> List.filter_map (fun x -> Option.map (fun s' -> (Value.int x, s')) (ms_remove x s))
  | _ -> []

let fifo_queue s (inv : Op.invocation) =
  match inv.name, inv.args, s with
  | "enq", [ Value.Int x ], _ -> [ (Value.ok, s @ [ x ]) ]
  | "deq", [], front :: rest -> [ (Value.int front, rest) ]
  | "deq", [], [] -> []
  | _ -> []

let stack s (inv : Op.invocation) =
  match inv.name, inv.args, s with
  | "push", [ Value.Int x ], _ -> [ (Value.ok, x :: s) ]
  | "pop", [], top :: rest -> [ (Value.int top, rest) ]
  | "pop", [], [] -> []
  | _ -> []

let append_log s (inv : Op.invocation) =
  match inv.name, inv.args, s with
  | "append", [ Value.Int x ], _ -> [ (Value.ok, x :: s) ]
  | "last", [], latest :: _ -> [ (Value.int latest, s) ]
  | "last", [], [] -> []
  | "len", [], _ -> [ (Value.int (List.length s), s) ]
  | _ -> []

(* A shipped spec beside its reference [respond]. *)
type t =
  | Ref : {
      m : (module Spec.S with type state = 's);
      respond : 's -> Op.invocation -> (Value.t * 's) list;
    }
      -> t

let all =
  [
    Ref { m = (module Bank_account.S); respond = bank };
    Ref { m = (module Bounded_counter.S); respond = counter };
    Ref { m = (module Register.S); respond = register };
    Ref { m = (module Int_set.S); respond = int_set };
    Ref { m = (module Kv_store.S); respond = kv_store };
    Ref { m = (module Ordered_map.S); respond = ordered_map };
    Ref { m = (module Semiqueue.S); respond = semiqueue };
    Ref { m = (module Fifo_queue.S); respond = fifo_queue };
    Ref { m = (module Stack.S); respond = stack };
    Ref { m = (module Append_log.S); respond = append_log };
  ]

let name (Ref { m = (module S); _ }) = S.name

(* The states a spec's fold reaches from [st] by [op], its response
   fixed: the fold's side of the property that holds it to [apply]. *)
let fold_apply (type s) (module S : Spec.S with type state = s) (st : s) (op : Op.t) =
  S.respond st op.inv (fun () r st' acc -> if Value.equal r op.res then st' :: acc else acc) () []

(* [apply], [Spec.step_states] and the response set of [Spec.responses]
   as they were over the lists. *)
let apply respond st (op : Op.t) =
  List.fold_left
    (fun acc (r, st') -> if Value.equal r op.res then st' :: acc else acc)
    [] (respond st op.inv)

let step_states compare respond states op =
  List.sort_uniq compare (List.concat_map (fun st -> apply respond st op) states)

let responses respond states inv =
  List.concat_map (fun st -> List.map fst (respond st inv)) states
  |> List.sort_uniq Value.compare
