type verdict =
  | Holds
  | Refuted of Op.t list

let is_holds = function Holds -> true | Refuted _ -> false

let pp_verdict ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Refuted w -> Fmt.pf ppf "refuted by future [%a]" Fmt.(list ~sep:(any "; ") Op.pp) w

let looks_like (Spec.Packed { m = (module S); _ } as spec) ~depth alpha beta =
  let after ops = Spec.after_states (module S) [ S.initial ] ops in
  match
    Explore.contained (module S) ~depth ~alphabet:(Spec.generators spec) (after alpha) (after beta)
  with
  | None -> Holds
  | Some gamma -> Refuted gamma

let equieffective spec ~depth alpha beta =
  match looks_like spec ~depth alpha beta with
  | Refuted _ as r -> r
  | Holds -> looks_like spec ~depth beta alpha
