open Tm_core

type state = int list

let obj = "STK"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = []
  let equal_state = List.equal Int.equal
  let compare_state = List.compare Int.compare
  let pp_state ppf s = Fmt.pf ppf "<%a]" Fmt.(list ~sep:comma int) s

  let respond s (inv : Op.invocation) k c acc =
    match inv.name, inv.args, s with
    | "push", [ Value.Int x ], _ -> k c Value.ok (x :: s) acc
    | "pop", [], top :: rest -> k c (Value.int top) rest acc
    | "pop", [], [] -> acc
    | _ -> acc

  (* Must cover every item value client workloads use — see
     Fifo_queue.S.generators. *)
  let item_values = [ 1; 2; 3 ]

  let generators =
    List.map (fun x -> Op.make ~obj ~args:[ Value.int x ] "push" Value.ok) item_values
    @ List.map (fun x -> Op.make ~obj "pop" (Value.int x)) item_values
end

let spec = Spec.pack (module S)
let push x = Op.make ~obj ~args:[ Value.int x ] "push" Value.ok
let pop x = Op.make ~obj "pop" (Value.int x)

type klass =
  | Push of int
  | Pop of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "push", [ Value.Int x ], _ -> Push x
  | "pop", [], Value.Int u -> Pop u
  | _ -> invalid_arg ("Stack: not a stack operation: " ^ Op.to_string op)

(* Derivations (s = stack, top first):
   - push/push: distinct values are order-observable; equal values are
     not.
   - push(x)/pop→u: push-then-pop cancels, so the pair commutes forward
     exactly when u = x (then pop-then-push also rebuilds the same
     stack); push pushes back over a pop→x it could have fed (u = x),
     while pop pushes back over a push of a *different* value only
     vacuously (pop right after push must return the pushed value).
   - pop→u/pop→v: distinct results are never co-legal (vacuous FC) but
     cannot be reordered backward; equal results need (u,u) on top either
     way — RBC but not FC. *)
let forward_commutes p q =
  match classify p, classify q with
  | Push x, Push y -> x = y
  | Push x, Pop u | Pop u, Push x -> u = x
  | Pop u, Pop v -> u <> v

let right_commutes_backward p q =
  match classify p, classify q with
  | Push x, Push y -> x = y
  | Push x, Pop u -> u = x
  | Pop u, Push x -> u <> x
  | Pop u, Pop v -> u = v

let nfc_conflict =
  Conflict.make ~name:"STK-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"STK-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))
let rw_conflict = Conflict.read_write ~name:"STK-RW" ~is_read:(fun _ -> false)
let classes = [ ("push", [ push 1; push 2 ]); ("pop", [ pop 1; pop 2 ]) ]
