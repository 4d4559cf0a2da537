type verdict =
  | Holds
  | Refuted of Op.t list

let is_holds = function Holds -> true | Refuted _ -> false

let pp_verdict ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Refuted w -> Fmt.pf ppf "refuted by future [%a]" Fmt.(list ~sep:(any "; ") Op.pp) w

let looks_like (Spec.Packed { m = (module S); _ } as spec) ~depth ?alphabet alpha beta =
  let module E = Explore.Make (S) in
  let alphabet = match alphabet with Some a -> a | None -> Spec.generators spec in
  let u = E.after E.initial_set alpha in
  let t = E.after E.initial_set beta in
  match E.contained ~depth ~alphabet u t with
  | None -> Holds
  | Some gamma -> Refuted gamma

let equieffective spec ~depth ?alphabet alpha beta =
  match looks_like spec ~depth ?alphabet alpha beta with
  | Refuted _ as r -> r
  | Holds -> looks_like spec ~depth ?alphabet beta alpha
