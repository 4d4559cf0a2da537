type labels = (string * string) list

type t = {
  key : labels;
  cells : ((string * string) * int) list;
}

let conflicts_metric = "tm_lock_conflicts_total"

(* Sum the conflict counters into matrices: the group key is the label
   set minus the two axis labels. *)
let of_metrics reg =
  let tbl : (labels, (string * string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let add () name labels metric =
    match (metric, List.assoc_opt "requested" labels, List.assoc_opt "held" labels) with
    | Metrics.Counter c, Some requested, Some held when name = conflicts_metric ->
        let key =
          List.filter (fun (k, _) -> k <> "requested" && k <> "held") labels
          |> List.sort compare
        in
        let cells =
          match Hashtbl.find_opt tbl key with
          | Some c -> c
          | None ->
              let c = Hashtbl.create 8 in
              Hashtbl.add tbl key c;
              c
        in
        let cell = (requested, held) in
        Hashtbl.replace cells cell
          (Metrics.Counter.get c + Option.value (Hashtbl.find_opt cells cell) ~default:0)
    | _ -> ()
  in
  Metrics.fold reg add ();
  Hashtbl.fold
    (fun key cells acc ->
      let cells =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) cells []
        |> List.sort compare
      in
      { key; cells } :: acc)
    tbl []
  |> List.sort compare

let count t ~requested ~held =
  Option.value (List.assoc_opt (requested, held) t.cells) ~default:0

let total t = List.fold_left (fun acc (_, v) -> acc + v) 0 t.cells

let axes t =
  let dedup_sort l = List.sort_uniq compare l in
  ( dedup_sort (List.map (fun ((r, _), _) -> r) t.cells),
    dedup_sort (List.map (fun ((_, h), _) -> h) t.cells) )

(* ------------------------------------------------------------------ *)
(* Comparison and rendering                                            *)

let comparison ~by maps =
  let tbl : (labels, (string * t) list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun m ->
      match List.assoc_opt by m.key with
      | None -> ()
      | Some v ->
          let shared = List.filter (fun (k, _) -> k <> by) m.key in
          let slot =
            match Hashtbl.find_opt tbl shared with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add tbl shared r;
                order := shared :: !order;
                r
          in
          slot := (v, m) :: !slot)
    maps;
  List.rev !order
  |> List.filter_map (fun shared ->
         match !(Hashtbl.find tbl shared) with
         | [] | [ _ ] -> None
         | variants -> Some (shared, List.sort compare variants))
  |> List.sort compare

let pp_key ppf key =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
    key

let pp ppf t =
  let requested, held = axes t in
  let w =
    List.fold_left (fun acc s -> max acc (String.length s)) 9 (requested @ held)
  in
  Fmt.pf ppf "%a (total %d)@." pp_key t.key (total t);
  Fmt.pf ppf "%*s |" w "req\\held";
  List.iter (fun h -> Fmt.pf ppf " %*s" w h) held;
  Fmt.pf ppf "@.";
  List.iter
    (fun r ->
      Fmt.pf ppf "%*s |" w r;
      List.iter
        (fun h ->
          match count t ~requested:r ~held:h with
          | 0 -> Fmt.pf ppf " %*s" w "."
          | c -> Fmt.pf ppf " %*d" w c)
        held;
      Fmt.pf ppf "@.")
    requested

let pp_comparison ~by ppf maps =
  let rows = comparison ~by maps in
  if rows = [] then Fmt.pf ppf "no comparable %s groups@." by
  else
    List.iter
      (fun (shared, variants) ->
        Fmt.pf ppf "=== %a ===@." pp_key shared;
        List.iter
          (fun (v, m) ->
            Fmt.pf ppf "--- %s=%s ---@." by v;
            pp ppf m)
          variants;
        (* cells hot in one variant and absent in the other are the
           conflicts the recovery method itself induces *)
        match variants with
        | (va, a) :: (vb, b) :: _ ->
            let only_in name m other =
              let extra =
                List.filter (fun (cell, _) -> not (List.mem_assoc cell other.cells)) m.cells
              in
              if extra <> [] then begin
                Fmt.pf ppf "only under %s=%s:" by name;
                List.iter
                  (fun ((r, h), c) -> Fmt.pf ppf " %s/%s:%d" r h c)
                  extra;
                Fmt.pf ppf "@."
              end
            in
            only_in va a b;
            only_in vb b a
        | _ -> ())
      rows
