open Tm_core

type state = int list

let obj = "FQ"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = []
  let equal_state = List.equal Int.equal
  let compare_state = List.compare Int.compare
  let pp_state ppf s = Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma int) s

  let respond s (inv : Op.invocation) k c acc =
    match inv.name, inv.args, s with
    | "enq", [ Value.Int x ], _ -> k c Value.ok (s @ [ x ]) acc
    | "deq", [], front :: rest -> k c (Value.int front) rest acc
    | "deq", [], [] -> acc
    | _ -> acc

  (* The derived conflict relations are sound only for operations over
     this alphabet (a value never reachable in an explored context would
     make its conflicts vacuously empty), so it must cover every item
     value client workloads use. *)
  let item_values = [ 1; 2; 3 ]

  let generators =
    List.map (fun x -> Op.make ~obj ~args:[ Value.int x ] "enq" Value.ok) item_values
    @ List.map (fun x -> Op.make ~obj "deq" (Value.int x)) item_values
end

let spec = Spec.pack (module S)
let enq x = Op.make ~obj ~args:[ Value.int x ] "enq" Value.ok
let deq x = Op.make ~obj "deq" (Value.int x)

type klass =
  | Enq of int
  | Deq of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "enq", [ Value.Int x ], _ -> Enq x
  | "deq", [], Value.Int u -> Deq u
  | _ -> invalid_arg ("Fifo_queue: not a queue operation: " ^ Op.to_string op)

(* Derivations (s = queue, front first):
   - enq/enq: the arrival order of distinct values is observable by
     draining; equal values enqueue to the same sequence.
   - enq(x)/deq→u: co-legal contexts are non-empty with front u, where
     the two orders agree (the enq cannot change the front) — FC; the enq
     also pushes back over the deq unconditionally, while the deq pushes
     back over the enq except when u = x, where "enq then deq" is legal
     from the *empty* queue but "deq first" is not.
   - deq→u/deq→v: distinct fronts are never co-legal (vacuously FC) but
     "v then u" cannot be reordered to "u then v" — the opposite of FC;
     equal values need the front pair (u,u) either way — RBC but not FC. *)
let forward_commutes p q =
  match classify p, classify q with
  | Enq x, Enq y -> x = y
  | Enq _, Deq _ | Deq _, Enq _ -> true
  | Deq u, Deq v -> u <> v

let right_commutes_backward p q =
  match classify p, classify q with
  | Enq x, Enq y -> x = y
  | Enq _, Deq _ -> true
  | Deq u, Enq x -> u <> x
  | Deq u, Deq v -> u = v

let nfc_conflict =
  Conflict.make ~name:"FQ-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"FQ-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))
let rw_conflict = Conflict.read_write ~name:"FQ-RW" ~is_read:(fun _ -> false)
let classes = [ ("enq", [ enq 1; enq 2 ]); ("deq", [ deq 1; deq 2 ]) ]
