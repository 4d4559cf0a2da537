open Tm_core
module Int_set = Set.Make (Int)

type state = Int_set.t

let obj = "SET"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = Int_set.empty
  let equal_state = Int_set.equal
  let compare_state = Int_set.compare
  let pp_state ppf s = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (Int_set.elements s)

  let respond s (inv : Op.invocation) k c acc =
    match inv.name, inv.args with
    | "insert", [ Value.Int x ] -> k c Value.ok (Int_set.add x s) acc
    | "remove", [ Value.Int x ] -> k c Value.ok (Int_set.remove x s) acc
    | "member", [ Value.Int x ] -> k c (Value.bool (Int_set.mem x s)) s acc
    | "size", [] -> k c (Value.int (Int_set.cardinal s)) s acc
    | _ -> acc

  (* Three elements so that for every generator element x and every size
     n <= 2 there is a reachable context of cardinality n avoiding x —
     the contexts that separate insert/remove from size. *)
  let elements = [ 1; 2; 3 ]

  let generators =
    List.concat
      [
        List.map (fun x -> Op.make ~obj ~args:[ Value.int x ] "insert" Value.ok) elements;
        List.map (fun x -> Op.make ~obj ~args:[ Value.int x ] "remove" Value.ok) elements;
        List.concat_map
          (fun x ->
            [
              Op.make ~obj ~args:[ Value.int x ] "member" (Value.bool true);
              Op.make ~obj ~args:[ Value.int x ] "member" (Value.bool false);
            ])
          elements;
        List.map (fun n -> Op.make ~obj "size" (Value.int n)) [ 0; 1; 2 ];
      ]
end

let spec = Spec.pack (module S)
let insert x = Op.make ~obj ~args:[ Value.int x ] "insert" Value.ok
let remove x = Op.make ~obj ~args:[ Value.int x ] "remove" Value.ok
let member x b = Op.make ~obj ~args:[ Value.int x ] "member" (Value.bool b)
let size n = Op.make ~obj "size" (Value.int n)

type klass =
  | Insert of int
  | Remove of int
  | Member of int * bool
  | Size of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "insert", [ Value.Int x ], _ -> Insert x
  | "remove", [ Value.Int x ], _ -> Remove x
  | "member", [ Value.Int x ], Value.Bool b -> Member (x, b)
  | "size", [], Value.Int n -> Size n
  | _ -> invalid_arg ("Int_set: not a set operation: " ^ Op.to_string op)

(* Derivations (s = state):
   - insert/insert and remove/remove: idempotent and order-independent in
     every sense.
   - insert(x)/remove(x): the final state depends on the order.
   - updates on distinct elements, and reads against reads, always
     commute.
   - insert(x)/member(x)→b: co-legal contexts have (x ∈ s) = b; when
     b = true the insert is a no-op, when b = false the member answer
     flips after the insert.  Remove is dual with b negated.
   - size→n pins the cardinality: inserts may grow it (contexts with
     x ∉ s exist for every n in range) and removes may shrink it except
     at n = 0, where remove is necessarily a no-op. *)
let forward_commutes p q =
  match classify p, classify q with
  | Insert _, Insert _ | Remove _, Remove _ -> true
  | Insert x, Remove y | Remove y, Insert x -> x <> y
  | Insert x, Member (y, b) | Member (y, b), Insert x -> x <> y || b
  | Remove x, Member (y, b) | Member (y, b), Remove x -> x <> y || not b
  | Insert _, Size _ | Size _, Insert _ -> false
  | Remove _, Size n | Size n, Remove _ -> n = 0
  | Member _, Member _ | Member _, Size _ | Size _, Member _ | Size _, Size _ -> true

let right_commutes_backward p q =
  match classify p, classify q with
  | Insert _, Insert _ | Remove _, Remove _ -> true
  | Insert x, Remove y | Remove x, Insert y -> x <> y
  | Insert x, Member (y, b) -> x <> y || b
  | Member (y, b), Insert x -> x <> y || not b
  | Remove x, Member (y, b) -> x <> y || not b
  | Member (y, b), Remove x -> x <> y || b
  | Insert _, Size _ -> false
  | Size n, Insert _ -> n = 0
  | Remove _, Size n -> n = 0
  | Size _, Remove _ -> false
  | Member _, Member _ | Member _, Size _ | Size _, Member _ | Size _, Size _ -> true

let nfc_conflict =
  Conflict.make ~name:"SET-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"SET-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"SET-RW" ~is_read:(fun op ->
      match classify op with
      | Member _ | Size _ -> true
      | Insert _ | Remove _ -> false)

let classes =
  [
    ("insert", List.map insert S.elements);
    ("remove", List.map remove S.elements);
    ("member/t", List.map (fun x -> member x true) S.elements);
    ("member/f", List.map (fun x -> member x false) S.elements);
    ("size", [ size 0; size 1; size 2 ]);
  ]
