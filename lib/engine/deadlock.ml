open Tm_core

type t = {
  edges : (Tid.t, Tid.t list) Hashtbl.t;
  (* The last search's answer, valid while [changed] is false: a blocked
     retry re-registers the edges it already had, and then the search
     does not run again. *)
  mutable last : Tid.t list option;
  mutable changed : bool;
  (* The walks' scratch, kept from search to search: the current path,
     oldest first, in [path.(0 .. depth - 1)], and the nodes visited so
     far in [seen.(0 .. nseen - 1)].  Both start empty (a database that
     never blocks never searches) and grow by doubling, never shrinking,
     so a search allocates only the cycle it returns (and the closure
     [Hashtbl.iter] builds for the walk that finds it). *)
  mutable path : Tid.t array;
  mutable depth : int;
  mutable seen : Tid.t array;
  mutable nseen : int;
  (* Where the back edge the last walk found closes its cycle: the
     cycle is [path.(hit .. depth - 1)]. *)
  mutable hit : int;
  (* The table's keys, the transactions with outgoing edges, in
     [sources.(0 .. nsources - 1)] in no particular order: added when
     [set_waiting] adds a key, removed when [clear] removes one.
     [clear] walks them, not the table, so it builds no closure and may
     rebuild lists as it goes.  [marked.(i)] says whether
     [sources.(i)]'s edges were set or changed since the last search;
     it moves with its source, and so does [at.(i)], the shard it last
     blocked at.  All start empty and grow by doubling. *)
  mutable sources : Tid.t array;
  mutable marked : bool array;
  mutable at : int array;
  mutable nsources : int;
  lock : Mutex.t;  (* held by every operation, which takes no other lock *)
  (* [Hashtbl.iter]'s argument for the search, closed over [t] once at
     creation. *)
  visit_source : Tid.t -> Tid.t list -> unit;
}

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> Tid.compare a b < 0 && strictly_increasing rest
  | [] | [ _ ] -> true

let rec same a b =
  match a, b with
  | [], [] -> true
  | x :: xs, y :: ys -> Tid.equal x y && same xs ys
  | _ -> false

(* [Mutex.protect]'s raise path without its closure. *)
let release t e = Mutex.unlock t.lock; raise e

(* The position of [tid] in [t.sources], which holds it. *)
let rec index t tid i = if Tid.equal t.sources.(i) tid then i else index t tid (i + 1)

let set t tid on at =
  let on = if strictly_increasing on then on else List.sort_uniq Tid.compare on in
  match Hashtbl.find t.edges tid with
  | old ->
      let i = index t tid 0 in
      t.at.(i) <- at;
      if not (same old on) then begin
        Hashtbl.replace t.edges tid on;
        t.changed <- true;
        t.marked.(i) <- true
      end
  | exception Not_found ->
      Hashtbl.replace t.edges tid on;
      t.changed <- true;
      if t.nsources = Array.length t.sources then begin
        t.sources <- Spare.grow t.sources tid;
        t.marked <- Spare.grow t.marked false;
        t.at <- Spare.grow t.at 0
      end;
      t.sources.(t.nsources) <- tid;
      t.marked.(t.nsources) <- true;
      t.at.(t.nsources) <- at;
      t.nsources <- t.nsources + 1

let set_waiting t tid ~on ~at =
  Mutex.lock t.lock;
  match set t tid on at with () -> Mutex.unlock t.lock | exception e -> release t e

let rec mentions tid = function [] -> false | d :: rest -> Tid.equal d tid || mentions tid rest

(* [l] without [tid], which an edge list (strictly increasing) holds at
   most once; the cells after it are shared. *)
let rec without tid = function
  | [] -> []
  | d :: rest -> if Tid.equal d tid then rest else d :: without tid rest

let drop t tid at =
  if t.nsources > 0 then begin
    if Hashtbl.mem t.edges tid then begin
      (* The last source takes [tid]'s slot, its mark and its tag. *)
      let i = index t tid 0 and last = t.nsources - 1 in
      t.sources.(i) <- t.sources.(last);
      t.marked.(i) <- t.marked.(last);
      t.at.(i) <- t.at.(last);
      t.nsources <- last;
      Hashtbl.remove t.edges tid;
      t.changed <- true
    end;
    (* Replacing an existing key keeps its place in the table, so the
       search's visit order does not move. *)
    for i = 0 to t.nsources - 1 do
      let src = t.sources.(i) in
      let dsts = Hashtbl.find t.edges src in
      if t.at.(i) = at && mentions tid dsts then begin
        Hashtbl.replace t.edges src (without tid dsts);
        t.changed <- true
      end
    done
  end

let clear t tid ~at =
  Mutex.lock t.lock;
  match drop t tid at with () -> Mutex.unlock t.lock | exception e -> release t e

let out_edges t tid = match Hashtbl.find t.edges tid with on -> on | exception Not_found -> []

let waiting t tid =
  Mutex.lock t.lock;
  match out_edges t tid with on -> Mutex.unlock t.lock; on | exception e -> release t e

(* The position of [tid] in [t.path.(0 .. i)], or -1. *)
let rec path_index t tid i =
  if i < 0 then -1 else if Tid.equal t.path.(i) tid then i else path_index t tid (i - 1)

(* Whether [tid] is in [t.seen.(i .. nseen - 1)]. *)
let rec seen_from t tid i = i < t.nseen && (Tid.equal t.seen.(i) tid || seen_from t tid (i + 1))

(* [t.path.(i .. j)] as a list, prepended to [acc]. *)
let rec path_from t i j acc = if j < i then acc else path_from t i (j - 1) (t.path.(j) :: acc)

(* Depth-first search with an explicit path; the first back edge found
   closes the cycle, the path from the edge's target on.  True once a
   cycle is found, with [t.hit] at its start and the path left as it
   is. *)
let rec visit t tid =
  let i = path_index t tid (t.depth - 1) in
  if i >= 0 then begin
    t.hit <- i;
    true
  end
  else if seen_from t tid 0 then false
  else begin
    if t.nseen = Array.length t.seen then t.seen <- Spare.grow t.seen tid;
    t.seen.(t.nseen) <- tid;
    t.nseen <- t.nseen + 1;
    if t.depth = Array.length t.path then t.path <- Spare.grow t.path tid;
    t.path.(t.depth) <- tid;
    t.depth <- t.depth + 1;
    visit_all t (out_edges t tid) || begin
      t.depth <- t.depth - 1;
      false
    end
  end

and visit_all t = function [] -> false | tid :: rest -> visit t tid || visit_all t rest

let create () =
  let rec t =
    {
      edges = Hashtbl.create 16;
      last = None;
      changed = false;
      path = [||];
      depth = 0;
      seen = [||];
      nseen = 0;
      hit = 0;
      sources = [||];
      marked = [||];
      at = [||];
      nsources = 0;
      lock = Mutex.create ();
      visit_source =
        (fun tid _ ->
          if Option.is_none t.last && visit t tid then
            t.last <- Some (path_from t t.hit (t.depth - 1) []));
    }
  in
  t

(* Whether a walk from [t.sources.(i .. nsources - 1)], the marked ones
   unless [all], meets a back edge. *)
let rec cycle_from t ~all i =
  i < t.nsources
  && (((all || t.marked.(i)) && visit t t.sources.(i)) || cycle_from t ~all (i + 1))

(* Between two searches an edge list only loses edges unless its
   source is marked, so after a search that found no cycle every new
   one runs through a marked source.  The walk from the sources decides
   whether there is a cycle; only then does the search in table order
   run, so the cycle it returns is the one a search from scratch
   finds. *)
let search t =
  if t.changed then begin
    let all = Option.is_some t.last in
    t.changed <- false;
    t.last <- None;
    t.depth <- 0;
    t.nseen <- 0;
    if cycle_from t ~all 0 then begin
      t.depth <- 0;
      t.nseen <- 0;
      Hashtbl.iter t.visit_source t.edges
    end;
    Array.fill t.marked 0 t.nsources false
  end;
  t.last

let find_cycle t =
  Mutex.lock t.lock;
  match search t with r -> Mutex.unlock t.lock; r | exception e -> release t e

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Deadlock.victim: empty cycle"
  | first :: rest -> List.fold_left (fun acc tid -> if Tid.compare tid acc > 0 then tid else acc) first rest
