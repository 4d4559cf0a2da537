open Tm_core

(* [keys.(i)] is the tid in slot [i], or [empty]; [vals.(i)] its value,
   or [dummy].  Both arrays have [1 lsl bits] slots, and at most half of
   them are taken, so a probe always meets an empty slot. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable bits : int;
  mutable count : int;
  dummy : 'a;
}

let empty = -1 (* no tid is negative *)
let initial_bits = 4

let create ~dummy =
  let n = 1 lsl initial_bits in
  { keys = Array.make n empty; vals = Array.make n dummy; bits = initial_bits; count = 0; dummy }

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant near 2^60 / golden ratio.  Tids issued in sequence, or every
   [k]th of them, spread over the slots. *)
let home t k = (k * 0x9E3779B97F4A7C1) lsr (Sys.int_size - t.bits)

let next t i = (i + 1) land ((1 lsl t.bits) - 1)

(* The slot of [k] from [i] on, or -1. *)
let rec probe t k i =
  let x = Array.unsafe_get t.keys i in
  if x = k then i else if x = empty then -1 else probe t k (next t i)

let index t tid =
  let k = Tid.to_int tid in
  probe t k (home t k)

let mem t tid = index t tid >= 0

let find t tid =
  let i = index t tid in
  if i < 0 then raise_notrace Not_found else Array.unsafe_get t.vals i

(* Put [k] in its slot, from [i] on; whether it was new. *)
let rec insert t k v i =
  let x = Array.unsafe_get t.keys i in
  if x = k || x = empty then begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    x = empty
  end
  else insert t k v (next t i)

let double t =
  let keys = t.keys and vals = t.vals in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) empty;
  t.vals <- Array.make (1 lsl t.bits) t.dummy;
  Array.iteri (fun i k -> if k <> empty then ignore (insert t k vals.(i) (home t k) : bool)) keys

let replace t tid v =
  if 2 * (t.count + 1) > 1 lsl t.bits then double t;
  let k = Tid.to_int tid in
  if insert t k v (home t k) then t.count <- t.count + 1

(* Slot [hole] is to be emptied.  Walk the cluster after it, from [j]:
   an entry whose home is not in [hole + 1 .. j] (cyclically) would be
   cut off from its home by the hole, so it moves into the hole, which
   moves to its slot.  The first empty slot ends the cluster. *)
let rec shift_back t hole j =
  let x = Array.unsafe_get t.keys j in
  if x = empty then begin
    Array.unsafe_set t.keys hole empty;
    Array.unsafe_set t.vals hole t.dummy
  end
  else
    let mask = (1 lsl t.bits) - 1 in
    if (j - home t x) land mask >= (j - hole) land mask then begin
      Array.unsafe_set t.keys hole x;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      shift_back t j (next t j)
    end
    else shift_back t hole (next t j)

let remove t tid =
  let i = index t tid in
  if i >= 0 then begin
    t.count <- t.count - 1;
    shift_back t i (next t i)
  end

let wraps t = t.keys.(0) <> empty && t.keys.(Array.length t.keys - 1) <> empty
