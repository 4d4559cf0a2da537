type t = {
  name : string;
  test : requested:Op.t -> held:Op.t -> bool;
}

let make ~name test = { name; test }
let name t = t.name
(* Full arity: the lock table applies it on every conflict test, and a
   partial application would build a closure per call. *)
let conflicts t ~requested ~held = t.test ~requested ~held
let none = make ~name:"none" (fun ~requested:_ ~held:_ -> false)
let all = make ~name:"all" (fun ~requested:_ ~held:_ -> true)

let mem_pair pairs ~requested ~held =
  List.exists (fun (r, h) -> Op.equal r requested && Op.equal h held) pairs

let of_pairs ~name pairs = make ~name (mem_pair pairs)

let without rel pairs =
  make ~name:(rel.name ^ "-minus") (fun ~requested ~held ->
      rel.test ~requested ~held && not (mem_pair pairs ~requested ~held))

let union r1 r2 =
  make
    ~name:(r1.name ^ "\xe2\x88\xaa" ^ r2.name)
    (fun ~requested ~held -> r1.test ~requested ~held || r2.test ~requested ~held)

let symmetric_closure rel =
  make
    ~name:(rel.name ^ "-sym")
    (fun ~requested ~held ->
      rel.test ~requested ~held || rel.test ~requested:held ~held:requested)

let invocation_blind spec rel =
  let gens = Spec.generators spec in
  let variants (op : Op.t) =
    match List.filter (fun (g : Op.t) -> Op.equal_invocation g.inv op.inv) gens with
    | [] -> [ op ]  (* invocation outside the alphabet: use the operation itself *)
    | vs -> vs
  in
  make
    ~name:(rel.name ^ "-inv")
    (fun ~requested ~held ->
      List.exists
        (fun r -> List.exists (fun h -> rel.test ~requested:r ~held:h) (variants held))
        (variants requested))

(* Memoise a relation decided per operation pair.  [decide] is applied
   to the spec on the first query, so the contexts are explored once per
   relation, and only if it is asked at all. *)
let memoize decide =
  let relation = lazy (decide ()) in
  let table = Hashtbl.create 64 in
  fun ~requested ~held ->
    let key = (requested, held) in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = (Lazy.force relation) requested held in
        Hashtbl.add table key v;
        v

let nfc spec params = make ~name:"NFC" (memoize (fun () -> Commutativity.nfc spec params))
let nrbc spec params = make ~name:"NRBC" (memoize (fun () -> Commutativity.nrbc spec params))

let read_write ~name ~is_read =
  make ~name (fun ~requested ~held -> not (is_read requested && is_read held))

let is_symmetric rel ops =
  List.for_all
    (fun p ->
      List.for_all
        (fun q -> rel.test ~requested:p ~held:q = rel.test ~requested:q ~held:p)
        ops)
    ops

let pairs rel ops =
  List.concat_map
    (fun p ->
      List.filter_map (fun q -> if rel.test ~requested:p ~held:q then Some (p, q) else None) ops)
    ops
