open Tm_core
module Str_map = Map.Make (String)

type state = int Str_map.t

let obj = "KV"

let encode_opt = function
  | Some x -> Value.list [ Value.int x ]
  | None -> Value.list []

module S = struct
  type nonrec state = state

  let name = obj
  let initial = Str_map.empty
  let equal_state = Str_map.equal Int.equal
  let compare_state = Str_map.compare Int.compare

  let pp_state ppf s =
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
      (Str_map.bindings s)

  let respond s (inv : Op.invocation) f c acc =
    match inv.name, inv.args with
    | "put", [ Value.Str k; Value.Int x ] -> f c Value.ok (Str_map.add k x s) acc
    | "del", [ Value.Str k ] -> f c Value.ok (Str_map.remove k s) acc
    | "get", [ Value.Str k ] -> f c (encode_opt (Str_map.find_opt k s)) s acc
    | _ -> acc

  (* Two keys and two values: the relations depend only on key
     (in)equality, value (in)equality and presence, all exercised. *)
  let generators =
    List.concat_map
      (fun k ->
        [
          Op.make ~obj ~args:[ Value.str k; Value.int 1 ] "put" Value.ok;
          Op.make ~obj ~args:[ Value.str k; Value.int 2 ] "put" Value.ok;
          Op.make ~obj ~args:[ Value.str k ] "del" Value.ok;
          Op.make ~obj ~args:[ Value.str k ] "get" (encode_opt (Some 1));
          Op.make ~obj ~args:[ Value.str k ] "get" (encode_opt (Some 2));
          Op.make ~obj ~args:[ Value.str k ] "get" (encode_opt None);
        ])
      [ "j"; "k" ]
end

let spec = Spec.pack (module S)
let put k x = Op.make ~obj ~args:[ Value.str k; Value.int x ] "put" Value.ok
let del k = Op.make ~obj ~args:[ Value.str k ] "del" Value.ok
let get k r = Op.make ~obj ~args:[ Value.str k ] "get" (encode_opt r)

type klass =
  | Put of string * int
  | Del of string
  | Get of string * int option

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "put", [ Value.Str k; Value.Int x ], _ -> Put (k, x)
  | "del", [ Value.Str k ], _ -> Del k
  | "get", [ Value.Str k ], Value.List [ Value.Int x ] -> Get (k, Some x)
  | "get", [ Value.Str k ], Value.List [] -> Get (k, None)
  | _ -> invalid_arg ("Kv_store: not a store operation: " ^ Op.to_string op)

let key = function Put (k, _) | Del k | Get (k, _) -> k

(* Same-key derivations (distinct keys always commute):
   - put/put: register writes — commute iff the values agree.
   - put/del: the final binding depends on the order, in every notion.
   - del/del: idempotent.
   - put(x)/get→r: the get answers [x] after the put, so FC iff
     r = Some x; put pushes back over the get iff r = Some x, and the get
     pushes back over the put iff r ≠ Some x (vacuous: the get cannot
     directly follow that put).
   - del/get→r: del forces the answer None, with the same pattern at
     r = None.
   - get/get: distinct answers are never co-legal. *)
let same_key_fc p q =
  match p, q with
  | Put (_, x), Put (_, y) -> x = y
  | Put _, Del _ | Del _, Put _ -> false
  | Del _, Del _ -> true
  | Put (_, x), Get (_, r) | Get (_, r), Put (_, x) -> r = Some x
  | Del _, Get (_, r) | Get (_, r), Del _ -> r = None
  | Get _, Get _ -> true

let same_key_rbc p q =
  match p, q with
  | Put (_, x), Put (_, y) -> x = y
  | Put _, Del _ | Del _, Put _ -> false
  | Del _, Del _ -> true
  | Put (_, x), Get (_, r) -> r = Some x
  | Get (_, r), Put (_, x) -> r <> Some x
  | Del _, Get (_, r) -> r = None
  | Get (_, r), Del _ -> r <> None
  | Get _, Get _ -> true

let forward_commutes p q =
  let p = classify p and q = classify q in
  (not (String.equal (key p) (key q))) || same_key_fc p q

let right_commutes_backward p q =
  let p = classify p and q = classify q in
  (not (String.equal (key p) (key q))) || same_key_rbc p q

let nfc_conflict =
  Conflict.make ~name:"KV-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"KV-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"KV-RW" ~is_read:(fun op ->
      match classify op with Get _ -> true | Put _ | Del _ -> false)

let classes =
  [
    ("put", [ put "j" 1; put "j" 2; put "k" 1 ]);
    ("del", [ del "j"; del "k" ]);
    ("get/some", [ get "j" (Some 1); get "j" (Some 2); get "k" (Some 1) ]);
    ("get/none", [ get "j" None; get "k" None ]);
  ]
