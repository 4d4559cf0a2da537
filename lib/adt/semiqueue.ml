open Tm_core

type state = int list

let obj = "SQ"

(* Multisets as sorted lists. *)
let ms_add x s = List.sort Int.compare (x :: s)

(* A [deq] from the multiset [seen] reversed onto [rest] answers each
   distinct item [x] of [rest], leaving the multiset less one [x]. *)
let rec deq_each k c acc seen = function
  | [] -> acc
  | x :: rest ->
      let acc =
        match seen with
        | y :: _ when y = x -> acc
        | _ -> k c (Value.int x) (List.rev_append seen rest) acc
      in
      deq_each k c acc (x :: seen) rest

module S = struct
  type nonrec state = state

  let name = obj
  let initial = []
  let equal_state = List.equal Int.equal
  let compare_state = List.compare Int.compare
  let pp_state ppf s = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) s

  let respond s (inv : Op.invocation) k c acc =
    match inv.name, inv.args with
    | "enq", [ Value.Int x ] -> k c Value.ok (ms_add x s) acc
    | "deq", [] -> deq_each k c acc [] s
    | _ -> acc

  (* Two item values suffice: the relations depend only on whether the two
     dequeued items are equal and on multiplicities 0/1/2, all reachable
     within depth 4. *)
  let generators =
    [
      Op.make ~obj ~args:[ Value.int 1 ] "enq" Value.ok;
      Op.make ~obj ~args:[ Value.int 2 ] "enq" Value.ok;
      Op.make ~obj "deq" (Value.int 1);
      Op.make ~obj "deq" (Value.int 2);
    ]
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
  | "deq", [], Value.Int x -> Deq x
  | _ -> invalid_arg ("Semiqueue: not a semiqueue operation: " ^ Op.to_string op)

(* Derivations over the multiset state s:
   - enq/enq: multiset union is order-independent.
   - enq(x)/deq→u: the dequeued item is present either way and the final
     multiset is s + x − u in both orders, so they commute forward; but
     when u = x, [deq→x] cannot be pushed {e before} an [enq(x)] from a
     context where x is absent, so deq does not right-commute-backward
     with an enq of the same item (an enq pushes back over anything).
   - deq→u/deq→v: both orders need {u,v} ⊆ s as a multiset, i.e.
     multiplicity 2 when u = v — the requirement is order-symmetric, so
     RBC holds both ways; FC fails for u = v (each deq legal alone at
     multiplicity 1) and holds for u ≠ v. *)
let forward_commutes p q =
  match classify p, classify q with
  | Enq _, Enq _ | Enq _, Deq _ | Deq _, Enq _ -> true
  | Deq u, Deq v -> u <> v

let right_commutes_backward p q =
  match classify p, classify q with
  | Enq _, Enq _ | Enq _, Deq _ -> true
  | Deq u, Enq x -> u <> x
  | Deq _, Deq _ -> true

let nfc_conflict =
  Conflict.make ~name:"SQ-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"SQ-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict = Conflict.read_write ~name:"SQ-RW" ~is_read:(fun _ -> false)

let classes =
  [ ("enq", [ enq 1; enq 2 ]); ("deq", [ deq 1; deq 2 ]) ]
