type labels = (string * string) list

(* A label list strictly sorted by key is its own normal form, so the
   usual one-label list is returned as it is, not copied. *)
let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && strictly_sorted rest
  | _ -> true

let normalize labels =
  if strictly_sorted labels then labels
  else List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type counter = { mutable count : int }
type gauge = { mutable value : float }

(* A record of floats only stores its field unboxed, so adding to the
   sum allocates nothing. *)
type total = { mutable total : float }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds; +inf implicit *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  sum : total;
  mutable observations : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type key = {
  metric_name : string;
  metric_labels : labels;
}

(* A family of counters kept in their owners' records (see the
   interface), and the members one registry holds of one of its series,
   [members.(0 .. n - 1)] in the order they enrolled. *)
type 'a series = {
  name : string;
  labels : 'a -> labels;
  read : 'a -> int;
}

type 'a family = {
  id : 'a Type.Id.t;
  series : 'a series array;
}

type 'a enrolled = {
  family : 'a family;
  index : int;
  mutable members : 'a array;
  mutable n : int;
}

type enrolled_any = Enrolled : 'a enrolled -> enrolled_any

type t = {
  tbl : (key, metric) Hashtbl.t;
  mutable owned : enrolled_any array;  (* per family series with members here *)
}

let create () = { tbl = Hashtbl.create 64; owned = [||] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Each kind resolves its series with [Hashtbl.find] and builds the
   metric only on a miss: no closure, and no option around a hit. *)
let key name labels = { metric_name = name; metric_labels = normalize labels }

let type_clash name m want =
  invalid_arg
    (Fmt.str "Metrics: %s already registered as a %s, requested as a %s" name
       (kind_name m) want)

let counter t ?(labels = []) name =
  let key = key name labels in
  match Hashtbl.find t.tbl key with
  | Counter c -> c
  | m -> type_clash name m "counter"
  | exception Not_found ->
      let c = { count = 0 } in
      Hashtbl.add t.tbl key (Counter c);
      c

let gauge t ?(labels = []) name =
  let key = key name labels in
  match Hashtbl.find t.tbl key with
  | Gauge g -> g
  | m -> type_clash name m "gauge"
  | exception Not_found ->
      let g = { value = 0. } in
      Hashtbl.add t.tbl key (Gauge g);
      g

(* Geometric-ish default: fine resolution at the low end (most logical
   durations are a handful of rounds), coarse at the tail. *)
let default_buckets =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 5000. |]

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket list";
  for i = 1 to n - 1 do
    if bounds.(i - 1) >= bounds.(i) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done

let histogram t ?(labels = []) ?(buckets = default_buckets) name =
  check_bounds buckets;
  let key = key name labels in
  match Hashtbl.find t.tbl key with
  | Histogram h ->
      if h.bounds <> buckets then
        invalid_arg (Fmt.str "Metrics: histogram %s re-registered with different buckets" name);
      h
  | m -> type_clash name m "histogram"
  | exception Not_found ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = { total = 0. };
          observations = 0;
        }
      in
      Hashtbl.add t.tbl key (Histogram h);
      h

module Counter = struct
  type t = counter

  let incr c = c.count <- c.count + 1
  let add c n = c.count <- c.count + n
  let get c = c.count
  let unresolved = { count = 0 }
end

module Handles = struct
  type t =
    | Empty
    | Handle of { a : string; b : string; counter : counter; rest : t }

  let empty = Empty

  let rec find t a b =
    match t with
    | Empty -> Counter.unresolved
    | Handle h ->
        if String.equal h.a a && String.equal h.b b then h.counter else find h.rest a b

  let add t a b counter = Handle { a; b; counter; rest = t }
end

let family series = { id = Type.Id.make (); series }

(* [f]'s series [index] in [t], enrolled there on first use. *)
let enrolled (type a) t (f : a family) index : a enrolled =
  let rec find i =
    if i = Array.length t.owned then begin
      let e = { family = f; index; members = [||]; n = 0 } in
      t.owned <- Array.append t.owned [| Enrolled e |];
      e
    end
    else
      let (Enrolled e) = t.owned.(i) in
      match Type.Id.provably_equal e.family.id f.id with
      | Some Type.Equal when e.index = index -> e
      | Some Type.Equal | None -> find (i + 1)
  in
  find 0

let enroll t f index x =
  let e = enrolled t f index in
  if e.n = Array.length e.members then begin
    let members = Array.make (e.n + (e.n / 2) + 1) x in
    Array.blit e.members 0 members 0 e.n;
    e.members <- members
  end;
  e.members.(e.n) <- x;
  e.n <- e.n + 1

module Gauge = struct
  type t = gauge

  let set g v = g.value <- v
  let add g v = g.value <- g.value +. v
  let get g = g.value
end

module Histogram = struct
  type t = histogram

  (* The first bucket from [i] whose bound holds [v].  First-order, and
     [observe_int] passes its int, so neither search boxes a float. *)
  let rec bucket bounds (v : float) i =
    if i >= Array.length bounds || v <= bounds.(i) then i else bucket bounds v (i + 1)

  let rec bucket_int bounds v i =
    if i >= Array.length bounds || float_of_int v <= bounds.(i) then i
    else bucket_int bounds v (i + 1)

  let observe h v =
    let i = bucket h.bounds v 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum.total <- h.sum.total +. v;
    h.observations <- h.observations + 1

  let observe_int h v =
    let i = bucket_int h.bounds v 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum.total <- h.sum.total +. float_of_int v;
    h.observations <- h.observations + 1

  let count h = h.observations
  let sum h = h.sum.total

  (* Quantile estimation by linear interpolation within the bucket that
     holds the q-th observation (the standard Prometheus
     [histogram_quantile] estimator).  The overflow bucket has no upper
     bound; its estimate is clamped to the largest finite bound. *)
  let quantile h q =
    if q < 0. || q > 1. then invalid_arg "Metrics.Histogram.quantile: q outside [0,1]";
    if h.observations = 0 then None
    else begin
      let rank = q *. float_of_int h.observations in
      let n = Array.length h.bounds in
      let rec find i cumulative =
        if i > n then n
        else
          let cumulative = cumulative + h.counts.(i) in
          if float_of_int cumulative >= rank then i else find (i + 1) cumulative
      in
      let i = find 0 0 in
      if i >= n then Some h.bounds.(n - 1)
      else begin
        let lower = if i = 0 then 0. else h.bounds.(i - 1) in
        let upper = h.bounds.(i) in
        let below = ref 0 in
        for j = 0 to i - 1 do
          below := !below + h.counts.(j)
        done;
        let in_bucket = h.counts.(i) in
        if in_bucket = 0 then Some upper
        else
          let frac = (rank -. float_of_int !below) /. float_of_int in_bucket in
          let frac = Float.max 0. (Float.min 1. frac) in
          Some (lower +. ((upper -. lower) *. frac))
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Introspection and aggregation.                                      *)

(* Every series in [t] as its name, normalized labels and metric, in
   exposition order: by name, then labels.  An owned series is a counter
   holding the sum over its members under one label set (a member
   enrolled twice, say re-attached to [t], reads once): what one keyed
   series would have counted. *)
let entries t =
  let sums = Hashtbl.create 64 in
  Array.iter
    (fun (Enrolled e) ->
      let s = e.family.series.(e.index) in
      for i = 0 to e.n - 1 do
        let x = e.members.(i) in
        let key = key s.name (s.labels x) in
        match Hashtbl.find sums key with
        | c -> c.count <- c.count + s.read x
        | exception Not_found -> Hashtbl.add sums key { count = s.read x }
      done)
    t.owned;
  let entry key m acc = (key.metric_name, key.metric_labels, m) :: acc in
  Hashtbl.fold (fun key c acc -> entry key (Counter c) acc) sums []
  |> Hashtbl.fold entry t.tbl
  |> List.sort (fun (a, la, _) (b, lb, _) ->
         let c = String.compare a b in
         if c <> 0 then c else compare la lb)

let fold t f init =
  List.fold_left (fun acc (name, labels, m) -> f acc name labels m) init (entries t)

(* The sum over [t]'s counters named [name], of those labelled [labels]
   if given. *)
let counter_sum t name labels =
  fold t
    (fun acc n l m ->
      match m with
      | Counter c
        when String.equal n name && (match labels with None -> true | Some w -> w = l) ->
          acc + c.count
      | Counter _ | Gauge _ | Histogram _ -> acc)
    0

let counter_value t ?(labels = []) name = counter_sum t name (Some (normalize labels))

(* Sum of a counter family across all label sets. *)
let counter_total t name = counter_sum t name None

let gauge_value t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl (key name labels) with
  | Some (Gauge g) -> Some g.value
  | _ -> None

let merge ?(extra_labels = []) dst src =
  fold src
    (fun () name labels m ->
      let labels = normalize (labels @ extra_labels) in
      match m with
      | Counter c -> Counter.add (counter dst ~labels name) c.count
      | Gauge g -> Gauge.set (gauge dst ~labels name) g.value
      | Histogram h ->
          let into = histogram dst ~labels ~buckets:h.bounds name in
          Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) h.counts;
          into.sum.total <- into.sum.total +. h.sum.total;
          into.observations <- into.observations + h.observations)
    ()

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let pp_float ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.pf ppf "%.0f" v
  else Fmt.pf ppf "%g" v

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_labelset ppf labels =
  if labels <> [] then
    Fmt.pf ppf "{%s}"
      (String.concat ","
         (List.map (fun (k, v) -> Fmt.str "%s=\"%s\"" k (escape_label_value v)) labels))

(* Prometheus text exposition format (version 0.0.4). *)
let pp_prometheus ppf t =
  let last_typed = ref "" in
  List.iter
    (fun (name, labels, m) ->
      if not (String.equal !last_typed name) then begin
        Fmt.pf ppf "# TYPE %s %s@." name (kind_name m);
        last_typed := name
      end;
      match m with
      | Counter c -> Fmt.pf ppf "%s%a %d@." name pp_labelset labels c.count
      | Gauge g -> Fmt.pf ppf "%s%a %a@." name pp_labelset labels pp_float g.value
      | Histogram h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i n ->
              cumulative := !cumulative + n;
              let le =
                if i < Array.length h.bounds then Fmt.str "%a" pp_float h.bounds.(i)
                else "+Inf"
              in
              Fmt.pf ppf "%s_bucket%a %d@." name pp_labelset
                (labels @ [ ("le", le) ])
                !cumulative)
            h.counts;
          Fmt.pf ppf "%s_sum%a %a@." name pp_labelset labels pp_float h.sum.total;
          Fmt.pf ppf "%s_count%a %d@." name pp_labelset labels h.observations)
    (entries t)

let to_prometheus t = Fmt.str "%a" pp_prometheus t

(* Human-oriented summary: one line per metric, histograms as
   count/mean/p50/p90/p99. *)
let pp_summary ppf t =
  List.iter
    (fun (name, labels, m) ->
      let label_str = Fmt.str "%a" pp_labelset labels in
      match m with
      | Counter c -> Fmt.pf ppf "%-46s %12d@." (name ^ label_str) c.count
      | Gauge g -> Fmt.pf ppf "%-46s %12.2f@." (name ^ label_str) g.value
      | Histogram h ->
          let q p = Option.value (Histogram.quantile h p) ~default:0. in
          let mean =
            if h.observations = 0 then 0. else h.sum.total /. float_of_int h.observations
          in
          Fmt.pf ppf "%-46s %12d  mean %.1f  p50 %.1f  p90 %.1f  p99 %.1f@."
            (name ^ label_str) h.observations mean (q 0.5) (q 0.9) (q 0.99))
    (entries t)
