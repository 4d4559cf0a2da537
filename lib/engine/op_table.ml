open Tm_core

type t = { mutable slots : Op.t array }

let size = 1024
let create () = { slots = [||] }
let detached = { slots = [||] }

(* The empty slot.  Its object name is allocated here and carried by
   no object, and a lookup matches an operation's object name by [==]
   (every operation of an object carries the object's one name string),
   so no lookup can match it. *)
let empty = { Op.obj = String.make 0 ' '; inv = Op.invocation ""; res = Value.unit }

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

let slot obj (inv : Op.invocation) res =
  let h = value_key (values_key (string_key (string_key 0 obj) inv.name) inv.args) res in
  let h = (h lxor (h lsr 32)) * 0x100000001b3 in
  (h lxor (h lsr 29)) land (size - 1)

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

let find t obj (inv : Op.invocation) res =
  if t == detached then { Op.obj; inv; res }
  else begin
    if Array.length t.slots = 0 then t.slots <- Array.make size empty;
    let slots = t.slots in
    let i = slot obj inv res in
    let op = Array.unsafe_get slots i in
    if
      op.obj == obj
      && (op.inv == inv
         || ((op.inv.name == inv.name || String.equal op.inv.name inv.name)
            && same_values op.inv.args inv.args))
      && same_value op.res res
    then op
    else begin
      let op = { Op.obj; inv; res } in
      Array.unsafe_set slots i op;
      op
    end
  end
