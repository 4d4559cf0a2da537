type params = {
  alpha_depth : int;
  future_depth : int;
}

let params ?(alpha_depth = 5) ?(future_depth = 5) () = { alpha_depth; future_depth }

let default_params = params ()

type failure = {
  alpha : Op.t list;
  future : Op.t list option;
  reason : string;
}

type verdict =
  | Commutes
  | Refuted of failure

let is_commutes = function Commutes -> true | Refuted _ -> false

let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp)

let pp_verdict ppf = function
  | Commutes -> Fmt.string ppf "commutes"
  | Refuted { alpha; future; reason } ->
      Fmt.pf ppf "refuted (%s) in context [%a]%a" reason pp_ops alpha
        Fmt.(option (fun ppf -> pf ppf " with future [%a]" pp_ops))
        future

let abg = "\xce\xb1\xce\xb2\xce\xb3" and agb = "\xce\xb1\xce\xb3\xce\xb2"

(* In context [alpha]: [u], the state-set of [what], looks like [t],
   that of [like], or the future that tells them apart. *)
let looks_like contained alpha (what, u) (like, t) =
  match contained u t with
  | None -> Commutes
  | Some f -> Refuted { alpha; future = Some f; reason = what ^ " does not look like " ^ like }

(* The condition of each relation in one context [alpha]: [after ops] is
   the state-set that [alpha] followed by [ops] reaches, and [contained]
   the bounded language containment. *)
let forward contained alpha after beta gamma =
  if after beta = [] || after gamma = [] then Commutes
  else
    let sbg = after (beta @ gamma) in
    if sbg = [] then Refuted { alpha; future = None; reason = abg ^ " \xe2\x88\x89 Spec" }
    else
      let sgb = after (gamma @ beta) in
      match looks_like contained alpha (abg, sbg) (agb, sgb) with
      | Commutes -> looks_like contained alpha (agb, sgb) (abg, sbg)
      | refuted -> refuted

let backward contained alpha after beta gamma =
  looks_like contained alpha (agb, after (gamma @ beta)) (abg, after (beta @ gamma))

type direction = Forward | Backward

(* Both relations quantify over all contexts α; the truth of each
   condition depends on α only through the state-set it reaches, so one
   representative word per distinct reachable state-set stands for all.
   Applied to [spec] and [p], a relation explores the contexts once and
   every pair asked after that reuses them. *)
let relation direction (Spec.Packed { m = (module S); _ } as spec) p =
  let alphabet = Spec.generators spec in
  let contexts = Explore.reachable (module S) ~depth:p.alpha_depth ~alphabet in
  let contained = Explore.contained (module S) ~depth:p.future_depth ~alphabet in
  let check = match direction with Forward -> forward contained | Backward -> backward contained in
  fun beta gamma ->
    let rec over = function
      | [] -> Commutes
      | (alpha, sts) :: rest -> (
          let after ops = List.fold_left (Spec.step_states (module S)) sts ops in
          match check alpha after beta gamma with Commutes -> over rest | refuted -> refuted)
    in
    over contexts

let commute_forward_seq spec p = relation Forward spec p

let on_operations direction spec p =
  let r = relation direction spec p in
  fun b g -> r [ b ] [ g ]

let commute_forward spec p = on_operations Forward spec p
let right_commutes_backward spec p = on_operations Backward spec p

let holds direction spec p =
  let r = on_operations direction spec p in
  fun b g -> is_commutes (r b g)

let fails direction spec p =
  let r = on_operations direction spec p in
  fun b g -> not (is_commutes (r b g))

let fc spec p = holds Forward spec p
let nfc spec p = fails Forward spec p
let rbc spec p = holds Backward spec p
let nrbc spec p = fails Backward spec p

type table = {
  labels : string list;
  marks : bool array array;
}

let build_table relate classes =
  let n = List.length classes in
  let classes = Array.of_list classes in
  let marks = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let _, row_ops = classes.(i) and _, col_ops = classes.(j) in
      marks.(i).(j) <-
        List.exists (fun b -> List.exists (fun g -> not (relate b g)) col_ops) row_ops
    done
  done;
  { labels = Array.to_list (Array.map fst classes); marks }

let fc_table spec p classes = build_table (fc spec p) classes
let rbc_table spec p classes = build_table (rbc spec p) classes

let pp_table ppf { labels; marks } =
  let width =
    List.fold_left (fun w l -> max w (String.length l)) 1 labels
  in
  let pad s = Fmt.str "%-*s" width s in
  Fmt.pf ppf "@[<v>%s | %a@;%s-+-%s@;" (pad "") Fmt.(list ~sep:(any " | ") string)
    (List.map pad labels)
    (String.make width '-')
    (String.concat "-+-" (List.map (fun _ -> String.make width '-') labels));
  List.iteri
    (fun i l ->
      let cells =
        List.mapi (fun j _ -> pad (if marks.(i).(j) then "X" else "")) labels
      in
      Fmt.pf ppf "%s | %a@;" (pad l) Fmt.(list ~sep:(any " | ") string) cells)
    labels;
  Fmt.pf ppf "@]"

let table_marks { labels; marks } =
  let labels = Array.of_list labels in
  let acc = ref [] in
  for i = Array.length labels - 1 downto 0 do
    for j = Array.length labels - 1 downto 0 do
      if marks.(i).(j) then acc := (labels.(i), labels.(j)) :: !acc
    done
  done;
  !acc

let equal_table t1 t2 =
  List.equal String.equal t1.labels t2.labels
  && table_marks t1 = table_marks t2

let table_of_marks labels pairs =
  let n = List.length labels in
  let idx l =
    match List.find_index (String.equal l) labels with
    | Some i -> i
    | None -> invalid_arg ("Commutativity.table_of_marks: unknown label " ^ l)
  in
  let marks = Array.make_matrix n n false in
  List.iter (fun (r, c) -> marks.(idx r).(idx c) <- true) pairs;
  { labels; marks }
