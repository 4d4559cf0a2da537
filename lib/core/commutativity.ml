type params = {
  alpha_depth : int;
  future_depth : int;
  alphabet : Op.t list option;
}

let params ?(alpha_depth = 5) ?(future_depth = 5) ?alphabet () =
  { alpha_depth; future_depth; alphabet }

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

(* Both relations quantify over all contexts α; the truth of each condition
   depends on α only through the set of states it can reach, so we iterate
   over one representative word per distinct reachable state-set.  The
   per-context check is passed as a rank-2 record so that the state-set
   type of the locally instantiated explorer does not escape. *)
type 's ctx = {
  after : Op.t list -> 's;  (* step the context's state-set *)
  contained : 's -> 's -> Op.t list option;
  empty : 's -> bool;
  alpha : Op.t list;
}

type checker = { check : 's. 's ctx -> verdict }

let over_contexts (Spec.Packed { m = (module S); _ } as spec) p { check } =
  let module E = Explore.Make (S) in
  let alphabet = match p.alphabet with Some a -> a | None -> Spec.generators spec in
  let contexts = E.reachable ~depth:p.alpha_depth ~alphabet in
  let step acc (alpha, sts) =
    match acc with
    | Refuted _ -> acc
    | Commutes ->
        check
          {
            after = (fun ops -> E.after sts ops);
            contained = (fun u t -> E.contained ~depth:p.future_depth ~alphabet u t);
            empty = E.States.is_empty;
            alpha;
          }
  in
  List.fold_left step Commutes contexts

let commute_forward_seq spec p beta gamma =
  let check (type s) ({ after; contained; empty; alpha } : s ctx) =
    let sb = after beta and sg = after gamma in
    if empty sb || empty sg then Commutes
    else
      let sbg = after (beta @ gamma) in
      if empty sbg then
        Refuted { alpha; future = None; reason = "\xce\xb1\xce\xb2\xce\xb3 \xe2\x88\x89 Spec" }
      else
        let sgb = after (gamma @ beta) in
        match contained sbg sgb with
        | Some f ->
            Refuted
              { alpha; future = Some f; reason = "\xce\xb1\xce\xb2\xce\xb3 does not look like \xce\xb1\xce\xb3\xce\xb2" }
        | None -> (
            match contained sgb sbg with
            | Some f ->
                Refuted
                  { alpha; future = Some f; reason = "\xce\xb1\xce\xb3\xce\xb2 does not look like \xce\xb1\xce\xb2\xce\xb3" }
            | None -> Commutes)
  in
  over_contexts spec p { check }

let right_commutes_backward_seq spec p beta gamma =
  let check (type s) ({ after; contained; empty = _; alpha } : s ctx) =
    match contained (after (gamma @ beta)) (after (beta @ gamma)) with
    | Some f ->
        Refuted
          { alpha; future = Some f; reason = "\xce\xb1\xce\xb3\xce\xb2 does not look like \xce\xb1\xce\xb2\xce\xb3" }
    | None -> Commutes
  in
  over_contexts spec p { check }

let commute_forward spec p b g = commute_forward_seq spec p [ b ] [ g ]
let right_commutes_backward spec p b g = right_commutes_backward_seq spec p [ b ] [ g ]
let fc spec p b g = is_commutes (commute_forward spec p b g)
let nfc spec p b g = not (fc spec p b g)
let rbc spec p b g = is_commutes (right_commutes_backward spec p b g)
let nrbc spec p b g = not (rbc spec p b g)

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
