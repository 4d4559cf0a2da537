type 'a t = {
  mutable items : 'a array;  (* the records in [items.(0 .. n - 1)] *)
  mutable n : int;
  dummy : 'a;
}

let create dummy = { items = [||]; n = 0; dummy }
let grow a fill =
  let n = Array.length a in
  let grown = Array.make (max 2 (2 * n)) fill in
  Array.blit a 0 grown 0 n;
  grown

let push s x =
  if s.n = Array.length s.items then s.items <- grow s.items s.dummy;
  s.items.(s.n) <- x;
  s.n <- s.n + 1

let pop s =
  if s.n = 0 then s.dummy
  else begin
    s.n <- s.n - 1;
    s.items.(s.n)
  end
