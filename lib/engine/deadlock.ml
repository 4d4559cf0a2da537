open Tm_core

type t = {
  edges : (Tid.t, Tid.t list) Hashtbl.t;
  (* The search's scratch, kept from search to search and emptied at the
     start of each one: {!find_cycle} runs after every blocked invocation,
     so it allocates no table, exception or closure per node. *)
  visited : (Tid.t, unit) Hashtbl.t;
}

let create () = { edges = Hashtbl.create 16; visited = Hashtbl.create 16 }

let set_waiting t tid ~on =
  let on = match on with [] | [ _ ] -> on | _ -> List.sort_uniq Tid.compare on in
  Hashtbl.replace t.edges tid on

let rec mentions tid = function [] -> false | d :: rest -> Tid.equal d tid || mentions tid rest

let clear t tid =
  if Hashtbl.length t.edges > 0 then begin
    Hashtbl.remove t.edges tid;
    (* Mutating a table during Hashtbl.iter over it is unspecified: collect
       the sources whose edge lists mention [tid] first, then update. *)
    let affected =
      Hashtbl.fold
        (fun src dsts acc -> if mentions tid dsts then (src, dsts) :: acc else acc)
        t.edges []
    in
    List.iter
      (fun (src, dsts) ->
        Hashtbl.replace t.edges src (List.filter (fun d -> not (Tid.equal d tid)) dsts))
      affected
  end

let waiting t tid = match Hashtbl.find t.edges tid with on -> on | exception Not_found -> []

exception Found of Tid.t list

(* The position of [tid] in [path], or -1. *)
let rec index_of tid i = function
  | [] -> -1
  | x :: rest -> if Tid.equal x tid then i else index_of tid (i + 1) rest

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Depth-first search with an explicit path, newest first; the first
   back-edge found yields the cycle: the path's first i+1 entries. *)
let rec visit t path tid =
  let i = index_of tid 0 path in
  if i >= 0 then raise (Found (List.rev (take (i + 1) path)))
  else if not (Hashtbl.mem t.visited tid) then begin
    Hashtbl.add t.visited tid ();
    visit_all t (tid :: path) (waiting t tid)
  end

and visit_all t path = function
  | [] -> ()
  | tid :: rest ->
      visit t path tid;
      visit_all t path rest

let find_cycle t =
  if Hashtbl.length t.edges = 0 then None
  else begin
    Hashtbl.clear t.visited;
    match Hashtbl.iter (fun tid _ -> visit t [] tid) t.edges with
    | () -> None
    | exception Found cycle -> Some cycle
  end

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Deadlock.victim: empty cycle"
  | first :: rest -> List.fold_left (fun acc tid -> if Tid.compare tid acc > 0 then tid else acc) first rest
