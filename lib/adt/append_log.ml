open Tm_core

type state = int list
(* Most recent entry first. *)

let obj = "LOG"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = []
  let equal_state = List.equal Int.equal
  let compare_state = List.compare Int.compare
  let pp_state ppf s = Fmt.pf ppf "log<%a>" Fmt.(list ~sep:comma int) (List.rev s)

  let respond s (inv : Op.invocation) k c acc =
    match inv.name, inv.args, s with
    | "append", [ Value.Int x ], _ -> k c Value.ok (x :: s) acc
    | "last", [], latest :: _ -> k c (Value.int latest) s acc
    | "last", [], [] -> acc
    | "len", [], _ -> k c (Value.int (List.length s)) s acc
    | _ -> acc

  let generators =
    [
      Op.make ~obj ~args:[ Value.int 1 ] "append" Value.ok;
      Op.make ~obj ~args:[ Value.int 2 ] "append" Value.ok;
      Op.make ~obj "last" (Value.int 1);
      Op.make ~obj "last" (Value.int 2);
      Op.make ~obj "len" (Value.int 0);
      Op.make ~obj "len" (Value.int 1);
      Op.make ~obj "len" (Value.int 2);
    ]
end

let spec = Spec.pack (module S)
let append x = Op.make ~obj ~args:[ Value.int x ] "append" Value.ok
let last x = Op.make ~obj "last" (Value.int x)
let len n = Op.make ~obj "len" (Value.int n)

type klass =
  | Append of int
  | Last of int
  | Len of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "append", [ Value.Int x ], _ -> Append x
  | "last", [], Value.Int v -> Last v
  | "len", [], Value.Int n -> Len n
  | _ -> invalid_arg ("Append_log: not a log operation: " ^ Op.to_string op)

(* Derivations:
   - append/append: the order is observable (by last, or by len after
     removals — here simply by future lasts), except for equal entries,
     which produce identical sequences.
   - last→v vs append(x): after the append the last entry is x, so they
     relate exactly when v = x — in FC (the pinned answer survives the
     append) and in "append pushes back over last"; "last pushes back
     over append" holds in the complementary case, where "last right
     after the append" is impossible.
   - len→n vs append: the count is off by one in every co-legal context,
     so they never commute forward; len pushes back over an append only
     vacuously (n = 0), an append never pushes back over a len.
   - reads (last, len) always commute with each other. *)
let forward_commutes p q =
  match classify p, classify q with
  | Append x, Append y -> x = y
  | Append x, Last v | Last v, Append x -> v = x
  | Append _, Len _ | Len _, Append _ -> false
  | (Last _ | Len _), (Last _ | Len _) -> true

let right_commutes_backward p q =
  match classify p, classify q with
  | Append x, Append y -> x = y
  | Append x, Last v -> v = x
  | Last v, Append x -> v <> x
  | Append _, Len _ -> false
  | Len n, Append _ -> n = 0
  | (Last _ | Len _), (Last _ | Len _) -> true

let nfc_conflict =
  Conflict.make ~name:"LOG-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"LOG-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"LOG-RW" ~is_read:(fun op ->
      match op.Op.inv.name with "last" | "len" -> true | _ -> false)

let classes =
  [
    ("append", [ append 1; append 2 ]);
    ("last", [ last 1; last 2 ]);
    ("len", [ len 0; len 1; len 2 ]);
  ]
