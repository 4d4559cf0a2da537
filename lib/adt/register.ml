open Tm_core

type state = int

let obj = "REG"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = 0
  let equal_state = Int.equal
  let compare_state = Int.compare
  let pp_state = Fmt.int

  let respond v (inv : Op.invocation) k c acc =
    match inv.name, inv.args with
    | "write", [ Value.Int x ] -> k c Value.ok x acc
    | "read", [] -> k c (Value.Int v) v acc
    | _ -> acc

  let generators =
    List.concat_map
      (fun x ->
        [ Op.make ~obj ~args:[ Value.int x ] "write" Value.ok;
          Op.make ~obj "read" (Value.int x) ])
      [ 0; 1; 2 ]
end

let spec = Spec.pack (module S)
let write x = Op.make ~obj ~args:[ Value.int x ] "write" Value.ok
let read v = Op.make ~obj "read" (Value.int v)

type klass =
  | Write of int
  | Read of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "write", [ Value.Int x ], _ -> Write x
  | "read", [], Value.Int v -> Read v
  | _ -> invalid_arg ("Register: not a register operation: " ^ Op.to_string op)

(* Derivations:
   - write(x)/write(y): final values differ unless x = y.
   - write(x)/read→v: both legal only when the state is v; the read after
     the write returns x, so the pair is FC exactly when x = v.
   - write(x) pushes back over read→v only when x = v (otherwise the read
     is legal before but returns the wrong value after); read→v pushes
     back over write(x) only when x ≠ v (then "read right after the
     write" is impossible and the condition is vacuous).
   - reads always commute with reads (distinct results never co-legal). *)
let forward_commutes p q =
  match classify p, classify q with
  | Write x, Write y -> x = y
  | Write x, Read v | Read v, Write x -> x = v
  | Read _, Read _ -> true

let right_commutes_backward p q =
  match classify p, classify q with
  | Write x, Write y -> x = y
  | Write x, Read v -> x = v
  | Read v, Write x -> x <> v
  | Read _, Read _ -> true

let nfc_conflict =
  Conflict.make ~name:"REG-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"REG-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"REG-RW" ~is_read:(fun op ->
      match classify op with Read _ -> true | Write _ -> false)

let classes =
  [
    ("write", [ write 0; write 1; write 2 ]);
    ("read", [ read 0; read 1; read 2 ]);
  ]
