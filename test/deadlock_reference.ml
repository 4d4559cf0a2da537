(* The waits-for graph as it was when every search built its own
   [visited] table, a local exception and a closure per node: the oracle
   of the deadlock refinement property in test_engine.ml, which checks
   that [Deadlock.find_cycle] finds exactly the same cycle (or none)
   after every step of a random edge sequence.  Unchanged otherwise. *)

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
