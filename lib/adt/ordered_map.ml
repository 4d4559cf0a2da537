open Tm_core
module Int_map = Map.Make (Int)

type state = int Int_map.t

let obj = "OM"

let encode_opt = function
  | Some x -> Value.list [ Value.int x ]
  | None -> Value.list []

let count_range lo hi s =
  Int_map.fold (fun k _ acc -> if k >= lo && k <= hi then acc + 1 else acc) s 0

module S = struct
  type nonrec state = state

  let name = obj
  let initial = Int_map.empty
  let equal_state = Int_map.equal Int.equal
  let compare_state = Int_map.compare Int.compare

  let pp_state ppf s =
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:comma (pair ~sep:(any "=") int int))
      (Int_map.bindings s)

  let respond s (inv : Op.invocation) f c acc =
    match inv.name, inv.args with
    | "put", [ Value.Int k; Value.Int v ] -> f c Value.ok (Int_map.add k v s) acc
    | "del", [ Value.Int k ] -> f c Value.ok (Int_map.remove k s) acc
    | "get", [ Value.Int k ] -> f c (encode_opt (Int_map.find_opt k s)) s acc
    | "count", [ Value.Int lo; Value.Int hi ] -> f c (Value.int (count_range lo hi s)) s acc
    | _ -> acc

  (* Three keys and two interval shapes: every relevant configuration —
     key inside/outside the interval, interval partially and completely
     filled — is reachable within depth 4. *)
  let keys = [ 1; 2; 3 ]

  let generators =
    List.concat
      [
        List.concat_map
          (fun k ->
            [
              Op.make ~obj ~args:[ Value.int k; Value.int 1 ] "put" Value.ok;
              Op.make ~obj ~args:[ Value.int k; Value.int 2 ] "put" Value.ok;
              Op.make ~obj ~args:[ Value.int k ] "del" Value.ok;
              (* a get observer for *every* storable value, else states
                 differing only in that value are indistinguishable and
                 the derived relations under-approximate *)
              Op.make ~obj ~args:[ Value.int k ] "get" (encode_opt (Some 1));
              Op.make ~obj ~args:[ Value.int k ] "get" (encode_opt (Some 2));
              Op.make ~obj ~args:[ Value.int k ] "get" (encode_opt None);
            ])
          keys;
        List.concat_map
          (fun (lo, hi) ->
            List.map
              (fun n -> Op.make ~obj ~args:[ Value.int lo; Value.int hi ] "count" (Value.int n))
              [ 0; 1; 2 ])
          [ (1, 2); (2, 3) ];
      ]
end

let spec = Spec.pack (module S)
let put k v = Op.make ~obj ~args:[ Value.int k; Value.int v ] "put" Value.ok
let del k = Op.make ~obj ~args:[ Value.int k ] "del" Value.ok
let get k r = Op.make ~obj ~args:[ Value.int k ] "get" (encode_opt r)
let count lo hi n = Op.make ~obj ~args:[ Value.int lo; Value.int hi ] "count" (Value.int n)

type klass =
  | Put of int * int
  | Del of int
  | Get of int * int option
  | Count of int * int * int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "put", [ Value.Int k; Value.Int v ], _ -> Put (k, v)
  | "del", [ Value.Int k ], _ -> Del k
  | "get", [ Value.Int k ], Value.List [ Value.Int v ] -> Get (k, Some v)
  | "get", [ Value.Int k ], Value.List [] -> Get (k, None)
  | "count", [ Value.Int lo; Value.Int hi ], Value.Int n -> Count (lo, hi, n)
  | _ -> invalid_arg ("Ordered_map: not an ordered-map operation: " ^ Op.to_string op)

let in_range k lo hi = k >= lo && k <= hi
let range_size lo hi = max 0 (hi - lo + 1)

(* Key-local derivations match Kv_store; the interesting cases are the
   updates against count(lo,hi)→n (write size = hi-lo+1):
   - key outside the interval: always commute.
   - put inside: a co-legal context where k is absent grows the count —
     exists unless the count already pins the interval full (n = size),
     in which case k is necessarily present and the put is a value
     overwrite that the count cannot see.
   - del inside: dual, with the empty count (n = 0) as the vacuous case.
   - RBC refinements: pushing the update before the count keeps the count
     legal only when the key's presence was forced the right way;
     pushing the count back over the update fails on the contexts where
     the update changed the count — each with its own full/empty vacuity
     (derived in the .mli's terms; validated by the decision
     procedures). *)
let same_key_fc p q =
  match p, q with
  | Put (_, x), Put (_, y) -> x = y
  | Put _, Del _ | Del _, Put _ -> false
  | Del _, Del _ -> true
  | Put (_, x), Get (_, r) | Get (_, r), Put (_, x) -> r = Some x
  | Del _, Get (_, r) | Get (_, r), Del _ -> r = None
  | Get _, Get _ -> true
  | (Put _ | Del _ | Get _ | Count _), _ -> assert false

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
  | (Put _ | Del _ | Get _ | Count _), _ -> assert false

let key = function Put (k, _) | Del k | Get (k, _) -> Some k | Count _ -> None

let forward_commutes p q =
  let p = classify p and q = classify q in
  match p, q with
  | Count _, Count _ | Count _, Get _ | Get _, Count _ -> true
  | Put (k, _), Count (lo, hi, n) | Count (lo, hi, n), Put (k, _) ->
      (not (in_range k lo hi)) || n = range_size lo hi
  | Del k, Count (lo, hi, n) | Count (lo, hi, n), Del k ->
      (not (in_range k lo hi)) || n = 0
  | (Put _ | Del _ | Get _), (Put _ | Del _ | Get _) -> (
      match key p, key q with
      | Some kp, Some kq -> kp <> kq || same_key_fc p q
      | _, _ -> assert false)

let right_commutes_backward p q =
  let p = classify p and q = classify q in
  match p, q with
  | Count _, Count _ | Count _, Get _ | Get _, Count _ -> true
  | Put (k, _), Count (lo, hi, n) -> (not (in_range k lo hi)) || n = range_size lo hi
  | Count (lo, hi, n), Put (k, _) -> (not (in_range k lo hi)) || n = 0
  | Del k, Count (lo, hi, n) -> (not (in_range k lo hi)) || n = 0
  | Count (lo, hi, n), Del k -> (not (in_range k lo hi)) || n = range_size lo hi
  | (Put _ | Del _ | Get _), (Put _ | Del _ | Get _) -> (
      match key p, key q with
      | Some kp, Some kq -> kp <> kq || same_key_rbc p q
      | _, _ -> assert false)

let nfc_conflict =
  Conflict.make ~name:"OM-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"OM-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"OM-RW" ~is_read:(fun op ->
      match classify op with
      | Get _ | Count _ -> true
      | Put _ | Del _ -> false)

let classes =
  [
    ("put", [ put 1 1; put 2 1; put 3 2 ]);
    ("del", [ del 1; del 2 ]);
    ("get/some", [ get 1 (Some 1); get 2 (Some 2) ]);
    ("get/none", [ get 1 None; get 3 None ]);
    ("count", [ count 1 2 0; count 1 2 1; count 2 3 2 ]);
  ]
