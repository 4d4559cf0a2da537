type t = int

let of_int n =
  if n < 0 then invalid_arg "Tid.of_int: negative id";
  n

let limit = max_int

exception Exhausted

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t

let pp ppf t =
  if t < 26 then Fmt.char ppf (Char.chr (Char.code 'A' + t))
  else Fmt.pf ppf "T%d" t

let to_string t = Fmt.str "%a" pp t
let a = 0
let b = 1
let c = 2
let d = 3
let e = 4

module Set = Set.Make (Int)
module Map = Map.Make (Int)
