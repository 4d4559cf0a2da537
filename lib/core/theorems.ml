type cex = {
  requested : Op.t;
  held : Op.t;
  alpha : Op.t list;
  rho : Op.t list;
  history : History.t;
  failing_order : Tid.t list;
}

let pp_cex ppf c =
  Fmt.pf ppf
    "@[<v>requested %a against held %a@;context \xce\xb1 = [%a], future \xcf\x81 = [%a]@;\
     not serializable in %a:@;%a@]"
    Op.pp c.requested Op.pp c.held
    Fmt.(list ~sep:(any "; ") Op.pp)
    c.alpha
    Fmt.(list ~sep:(any "; ") Op.pp)
    c.rho
    Fmt.(list ~sep:(any "-") Tid.pp)
    c.failing_order History.pp c.history

(* Build the proofs' history shape: A runs [alpha] and commits; [first] is
   executed by B, [second] by C (both respond while the other is active);
   then B and C commit in [commit_order]; finally D runs [rho] and
   commits.  Transactions with nothing to execute are omitted. *)
let build_history ~obj ~alpha ~first ~second ~commits ~rho =
  let h = History.empty in
  let h =
    if alpha = [] then h
    else h |> History.exec_seq Tid.a alpha |> History.commit_at Tid.a obj
  in
  let h = h |> History.exec Tid.b first |> History.exec Tid.c second in
  let h = List.fold_left (fun h t -> History.commit_at t obj h) h commits in
  if rho = [] then h
  else h |> History.exec_seq Tid.d rho |> History.commit_at Tid.d obj

let uip_counterexample spec p =
  let rbc = Commutativity.right_commutes_backward spec p in
  fun ~requested ~held ->
    match rbc requested held with
    | Commutativity.Commutes -> None
    | Commutativity.Refuted { alpha; future; reason = _ } ->
        (* alpha \xc2\xb7 held \xc2\xb7 requested \xc2\xb7 rho \xe2\x88\x88 Spec, but with the two swapped it
           is not: the history serializes as A-B-C-D but not A-C-B-D. *)
        let rho = Option.value future ~default:[] in
        let obj = Spec.name spec in
        let history =
          build_history ~obj ~alpha ~first:held ~second:requested
            ~commits:[ Tid.b; Tid.c ] ~rho
        in
        let failing_order =
          (if alpha = [] then [] else [ Tid.a ])
          @ [ Tid.c; Tid.b ]
          @ if rho = [] then [] else [ Tid.d ]
        in
        Some { requested; held; alpha; rho; history; failing_order }

let du_counterexample spec p =
  let fc = Commutativity.commute_forward_seq spec p in
  fun ~requested ~held ->
    match fc [ held ] [ requested ] with
    | Commutativity.Commutes -> None
    | Commutativity.Refuted { alpha; future; reason = _ } -> (
        let obj = Spec.name spec in
        let prefix_a = if alpha = [] then [] else [ Tid.a ] in
        let case ~commits ~failing ~rho =
          let history =
            build_history ~obj ~alpha ~first:held ~second:requested ~commits ~rho
          in
          let failing_order =
            prefix_a @ failing @ if rho = [] then [] else [ Tid.d ]
          in
          Some { requested; held; alpha; rho; history; failing_order }
        in
        (* The check ran with \xce\xb2 = held, \xce\xb3 = requested. *)
        match future with
        | None ->
            (* Case 1: \xce\xb1\xc2\xb7held\xc2\xb7requested \xe2\x88\x89 Spec; fails in the order B-C. *)
            case ~commits:[ Tid.b; Tid.c ] ~failing:[ Tid.b; Tid.c ] ~rho:[]
        | Some rho ->
            (* Case 2: an equieffectiveness failure.  Commit B and C so that
               the commit order is the order whose extension by \xcf\x81 is legal
               (transaction D's responses must be enabled); the swapped order
               then fails to serialize. *)
            if Spec.legal spec (alpha @ [ held; requested ] @ rho) then
              case ~commits:[ Tid.b; Tid.c ] ~failing:[ Tid.c; Tid.b ] ~rho
            else if Spec.legal spec (alpha @ [ requested; held ] @ rho) then
              case ~commits:[ Tid.c; Tid.b ] ~failing:[ Tid.b; Tid.c ] ~rho
            else None)

let find_missing_pair spec ~required ~given =
  let ops = Spec.generators spec in
  let missing p q =
    Conflict.conflicts required ~requested:p ~held:q
    && not (Conflict.conflicts given ~requested:p ~held:q)
  in
  List.fold_left
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None -> (
          match List.find_opt (fun q -> missing p q) ops with
          | Some q -> Some (p, q)
          | None -> None))
    None ops

let refute make_cex spec p ~required conflict =
  (* Enumerate generator pairs missing from [conflict] until one yields a
     constructible counterexample. *)
  let ops = Spec.generators spec in
  let candidates =
    List.concat_map
      (fun requested ->
        List.filter_map
          (fun held ->
            if
              Conflict.conflicts required ~requested ~held
              && not (Conflict.conflicts conflict ~requested ~held)
            then Some (requested, held)
            else None)
          ops)
      ops
  in
  let make = make_cex spec p in
  List.find_map (fun (requested, held) -> make ~requested ~held) candidates

let uip_refute spec p conflict =
  refute uip_counterexample spec p ~required:(Conflict.nrbc spec p) conflict

let du_refute spec p conflict =
  refute du_counterexample spec p ~required:(Conflict.nfc spec p) conflict

(* All sequences over [ops] of length <= n. *)
let rec words ops n =
  if n = 0 then [ [] ]
  else
    let shorter = words ops (n - 1) in
    [] :: List.concat_map (fun w -> List.map (fun o -> o :: w) ops) shorter
    |> List.sort_uniq (List.compare Op.compare)

let probe_required_pairs spec view ~ops ~txns ~ops_per_txn ~max_events ~limit =
  let env = Atomicity.env_of_list [ spec ] in
  let tids = List.init txns Tid.of_int in
  let obj = Spec.name spec in
  (* Candidate contexts: one representative word per distinct reachable
     state-set (every condition depends on the context only through it),
     plus candidate futures up to length 2. *)
  let contexts =
    let (Spec.Packed { m = (module S); _ }) = spec in
    List.map fst (Explore.reachable (module S) ~depth:3 ~alphabet:ops)
  in
  let futures = words ops 2 in
  (* The proofs' history shape: A runs a context and commits; B executes
     [held]; C executes [requested] concurrently; both commit (in either
     order); D runs a future and commits. *)
  let candidates p q =
    List.concat_map
      (fun alpha ->
        List.concat_map
          (fun rho ->
            List.map
              (fun commits -> build_history ~obj ~alpha ~first:q ~second:p ~commits ~rho)
              [ [ Tid.b; Tid.c ]; [ Tid.c; Tid.b ] ])
          futures)
      contexts
  in
  let required p q =
    let conflict = Conflict.without Conflict.all [ (p, q) ] in
    let i = Impl_model.make ~spec ~view ~conflict in
    let violates h =
      Impl_model.valid i h && not (Atomicity.is_dynamic_atomic env h)
    in
    List.exists violates (candidates p q)
    ||
    (* sweep for shapes outside the proofs' family *)
    let histories = Impl_model.enumerate i ~txns:tids ~ops_per_txn ~max_events ~limit in
    List.exists (fun h -> not (Atomicity.is_online_dynamic_atomic env h)) histories
  in
  List.concat_map
    (fun p -> List.filter_map (fun q -> if required p q then Some (p, q) else None) ops)
    ops
