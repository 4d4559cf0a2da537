open Tm_core

(* The chunks newest first: [chunk] holds the newest operations in its
   first [fill] slots, each chunk in [full] is full, and every chunk
   holds its operations oldest first.  A push writes one slot, or keeps
   the full chunk in [full] and starts a new one twice its size, up to
   [largest] slots: no operation is ever copied.  The empty log is a
   constant constructor and a one-operation log a 2-word block, so an
   object that commits nothing pays no words for its log, and one that
   commits once pays less than a list cell. *)
type t =
  | Empty
  | One of Op.t
  | Log of {
      mutable full : Op.t array list;
      mutable chunk : Op.t array;
      mutable fill : int;
      mutable length : int;
    }

let empty = Empty
let first = 8

(* [Max_young_wosize]: an array of up to 256 words is allocated on the
   minor heap, a larger one straight in the major heap. *)
let largest = 256

(* A new chunk is filled with its first operation, so it holds no dummy. *)
let push t op =
  match t with
  | Empty -> One op
  | One op0 ->
      let chunk = Array.make first op0 in
      chunk.(1) <- op;
      Log { full = []; chunk; fill = 2; length = 2 }
  | Log l ->
      let n = Array.length l.chunk in
      if l.fill < n then begin
        Array.unsafe_set l.chunk l.fill op;
        l.fill <- l.fill + 1
      end
      else begin
        l.full <- l.chunk :: l.full;
        l.chunk <- Array.make (min largest (2 * n)) op;
        l.fill <- 1
      end;
      l.length <- l.length + 1;
      t

let rec push_rev t = function
  | [] -> t
  | op :: older -> push (push_rev t older) op

let length = function Empty -> 0 | One _ -> 1 | Log l -> l.length

let rec fold_chunk f acc a i = if i < 0 then acc else fold_chunk f (f acc a.(i)) a (i - 1)

let rec fold_full f acc = function
  | [] -> acc
  | a :: older -> fold_full f (fold_chunk f acc a (Array.length a - 1)) older

let fold f acc = function
  | Empty -> acc
  | One op -> f acc op
  | Log l -> fold_full f (fold_chunk f acc l.chunk (l.fill - 1)) l.full

let rec fold_chunk_oldest f acc a i n =
  if i >= n then acc else fold_chunk_oldest f (f acc a.(i)) a (i + 1) n

(* [full] is newest first, so its oldest chunk is folded first on the
   way back up: one frame per full chunk. *)
let rec fold_full_oldest f acc = function
  | [] -> acc
  | a :: older -> fold_chunk_oldest f (fold_full_oldest f acc older) a 0 (Array.length a)

let fold_oldest f acc = function
  | Empty -> acc
  | One op -> f acc op
  | Log l -> fold_chunk_oldest f (fold_full_oldest f acc l.full) l.chunk 0 l.fill

let of_list ops = List.fold_left push Empty ops

(* [op] appended to its object's log in [objects]: a push onto a log of
   two or more operations updates it in place, so only the first two of
   an object write the table. *)
let push_by_object objects (op : Op.t) =
  match Hashtbl.find objects op.obj with
  | log ->
      let pushed = push log op in
      if pushed != log then Hashtbl.replace objects op.obj pushed;
      objects
  | exception Not_found ->
      Hashtbl.add objects op.obj (One op);
      objects

let by_object t = fold_oldest push_by_object (Hashtbl.create 64) t

let cons acc op = op :: acc
let to_list t = fold cons [] t

let rec scan p a i n = if i >= n then None else if p a.(i) then Some a.(i) else scan p a (i + 1) n

(* [a], whose first [used] slots end at position [stop], with [older]
   before it: the older chunks are searched first, and only the ones
   that reach past [start]. *)
let rec find_chunks p start stop used a older =
  let lo = stop - used in
  let found =
    match older with
    | b :: rest when start < lo -> find_chunks p start lo (Array.length b) b rest
    | _ -> None
  in
  match found with Some _ -> found | None -> scan p a (max 0 (start - lo)) used

let find_from t start p =
  match t with
  | Empty -> None
  | One op -> if start <= 0 && p op then Some op else None
  | Log l -> find_chunks p start l.length l.fill l.chunk l.full
