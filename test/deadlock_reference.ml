(* The waits-for graph as it was when every search built its own
   [visited] table, a local exception and a closure per node: the oracle
   of the deadlock refinement property in test_engine.ml, which checks
   that [Deadlock.find_cycle] finds exactly the same cycle (or none)
   after every step of a random edge sequence.  Unchanged otherwise,
   but for [union], the oracle of the shared sharded graph. *)

open Tm_core

type t = { edges : (Tid.t, Tid.t list) Hashtbl.t }

let create () = { edges = Hashtbl.create 16 }
let set_waiting t tid ~on = Hashtbl.replace t.edges tid (List.sort_uniq Tid.compare on)

let clear t tid =
  Hashtbl.remove t.edges tid;
  let affected =
    Hashtbl.fold
      (fun src dsts acc -> if List.exists (Tid.equal tid) dsts then (src, dsts) :: acc else acc)
      t.edges []
  in
  List.iter
    (fun (src, dsts) ->
      Hashtbl.replace t.edges src (List.filter (fun d -> not (Tid.equal d tid)) dsts))
    affected

let waiting t tid = Option.value (Hashtbl.find_opt t.edges tid) ~default:[]

let find_cycle t =
  let visited = Hashtbl.create 16 in
  let exception Found of Tid.t list in
  let rec dfs path tid =
    match List.find_index (Tid.equal tid) path with
    | Some i ->
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        raise (Found (List.rev (take (i + 1) path)))
    | None ->
        if not (Hashtbl.mem visited tid) then begin
          Hashtbl.add visited tid ();
          List.iter (dfs (tid :: path)) (waiting t tid)
        end
  in
  match Hashtbl.iter (fun tid _ -> dfs [] tid) t.edges with
  | () -> None
  | exception Found cycle -> Some cycle

(* The union of several graphs, each source's edge lists concatenated
   in array order: the graph the sharded engine searched when every
   shard kept a graph of its own and each search rebuilt their union
   (every shard's edges folded into a list, each list prepended to the
   edges the union already held).  The oracle of the shared graph's
   exactness property in test_sharded.ml. *)
let union gs =
  let u = create () in
  Array.iter
    (fun g ->
      List.iter
        (fun (tid, on) -> set_waiting u tid ~on:(on @ waiting u tid))
        (Hashtbl.fold (fun tid on acc -> (tid, on) :: acc) g.edges []))
    gs;
  u
