open Tm_core

type t = { mutable slots : Op.t array; mutable invs : Op.invocation array }

let size = 1024
let inv_size = 64
let create () = { slots = [||]; invs = [||] }
let detached = { slots = [||]; invs = [||] }

(* The empty invocation slot.  It is allocated here and handed to no
   caller, and a lookup takes a slot's invocation only if it is not this
   one, so no lookup matches it, not even one of [Op.invocation ""]. *)
let empty_inv = Op.invocation ""

(* The empty operation slot.  Its object name is allocated here and
   carried by no object, and a lookup matches an operation's object name
   by [==] (every operation of an object carries the object's one name
   string), so no lookup can match it. *)
let empty = { Op.obj = String.make 0 ' '; inv = empty_inv; res = Value.unit }

(* A lookup's cost is mostly its hash, so the hash reads a word at a
   time and mixes once, at the end.  A string is read whole, up to and
   including the word its last byte is in: a string's block ends in
   padding that its length alone decides, so equal strings read equal
   words, and no read leaves the block. *)
external word : string -> int -> int64 = "%caml_string_get64u"

let rec words s i last h =
  let h = (h * 31) + Int64.to_int (word s i) in
  if i < last then words s (i + 8) last h else h

let string_key h s = words s 0 (String.length s land lnot 7) h

let rec value_key h (v : Value.t) =
  match v with
  | Int i -> (h * 31) + i
  | Str s -> string_key h s
  | Unit -> (h * 31) + 1
  | Bool b -> (h * 31) + if b then 3 else 2
  | List l -> values_key ((h * 31) + 5) l

and values_key h = function [] -> h | v :: rest -> values_key (value_key h v) rest

let mix h =
  let h = (h lxor (h lsr 32)) * 0x100000001b3 in
  h lxor (h lsr 29)

(* [Value.equal], its common cases first. *)
let same_value (a : Value.t) (b : Value.t) =
  a == b
  ||
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | _, _ -> Value.equal a b

let rec same_values a b =
  match a, b with
  | [], [] -> true
  | x :: a, y :: b -> same_value x y && same_values a b
  | _, _ -> false

let same_inv (a : Op.invocation) (b : Op.invocation) =
  a == b || ((a.name == b.name || String.equal a.name b.name) && same_values a.args b.args)

let holds (op : Op.t) obj inv res = op.obj == obj && same_inv op.inv inv && same_value op.res res

(* The table's invocation equal to [inv]: the one its slot holds, else
   [inv], which then takes the slot. *)
let shared_inv invs (inv : Op.invocation) =
  let j = mix (values_key (string_key 0 inv.name) inv.args) land (inv_size - 1) in
  let held = Array.unsafe_get invs j in
  if held != empty_inv && same_inv held inv then held
  else begin
    Array.unsafe_set invs j inv;
    inv
  end

(* A key's set is two adjacent slots, its most recently found operation
   first. *)
let find t obj (inv : Op.invocation) res =
  if t == detached then { Op.obj; inv; res }
  else begin
    if Array.length t.slots = 0 then begin
      t.slots <- Array.make size empty;
      t.invs <- Array.make inv_size empty_inv
    end;
    let slots = t.slots in
    let h = value_key (values_key (string_key (string_key 0 obj) inv.name) inv.args) res in
    let i = (mix h land ((size / 2) - 1)) * 2 in
    let first = Array.unsafe_get slots i in
    if holds first obj inv res then first
    else begin
      let second = Array.unsafe_get slots (i + 1) in
      let op =
        if holds second obj inv res then second else { Op.obj; inv = shared_inv t.invs inv; res }
      in
      Array.unsafe_set slots (i + 1) first;
      Array.unsafe_set slots i op;
      op
    end
  end
