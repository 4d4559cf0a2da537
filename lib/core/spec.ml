module type S = sig
  type state

  val name : string
  val initial : state
  val equal_state : state -> state -> bool
  val compare_state : state -> state -> int
  val pp_state : Format.formatter -> state -> unit
  val respond : state -> Op.invocation -> ('c -> Value.t -> state -> 'a -> 'a) -> 'c -> 'a -> 'a
  val generators : Op.t list
end

(* The object name sits beside the module, so a renamed spec shares the
   type's module and its generator list: renaming costs one block. *)
type t = Packed : { name : string; m : (module S with type state = 's) } -> t

let pack (type s) ((module S : S with type state = s) as m) = Packed { name = S.name; m }

let name (Packed { name; _ }) = name

let generators (Packed { name; m = (module S) }) =
  if String.equal name S.name then S.generators
  else List.map (fun (op : Op.t) -> { op with obj = name }) S.generators

let rename (Packed { m; _ }) name = Packed { name; m }

(* A response's next state onto [acc] if the response is [op]'s.  The
   recovery managers step state-sets on every invocation, so
   [successors] folds this top-level function with [op] as its context:
   it allocates only the result cells. *)
let matching (op : Op.t) r st' acc = if Value.equal r op.res then st' :: acc else acc

(* A state-set is a sorted, duplicate-free list: stepping one through an
   operation keeps it so (dedup via sort). *)
let rec successors respond (op : Op.t) acc = function
  | [] -> acc
  | st :: rest -> successors respond op (respond st op.inv matching op acc) rest

(* [List.sort_uniq] builds its closures before looking at the length, so
   the deterministic case (at most one state) skips it. *)
let dedup_states (type s) (module S : S with type state = s) = function
  | ([] | [ _ ]) as sts -> sts
  | sts -> List.sort_uniq S.compare_state sts

let step_states (type s) (module S : S with type state = s) (states : s list) op =
  dedup_states (module S) (successors S.respond op [] states)

(* A state-set part way through a sequence.  While it holds one state
   ([size] 1, the state in [one]), a step whose operation has exactly one
   successor writes that state in place; a step with several falls back
   to [step_states] ([size] 2, the states in [many]), and a step with
   none leaves it empty for good ([size] 0).  [found] counts the
   successors the current step has found. *)
type 's walk = {
  m : (module S with type state = 's);
  mutable one : 's;
  mutable many : 's list;
  mutable size : int;
  mutable found : int;
}

(* A response's next state: the first one found is written over [w.one]
   (the step keeps the state it left), the rest only counted. *)
let successor (op : Op.t) r st' w =
  if Value.equal r op.res then begin
    if w.found = 0 then w.one <- st';
    w.found <- w.found + 1
  end;
  w

let settle w = function
  | [] -> w.size <- 0
  | [ st ] ->
      w.size <- 1;
      w.one <- st
  | sts ->
      w.size <- 2;
      w.many <- sts

let step (type s) (w : s walk) (op : Op.t) =
  let (module S) = w.m in
  (match w.size with
  | 0 -> ()
  | 1 -> (
      let st = w.one in
      w.found <- 0;
      match (S.respond st op.inv successor op w).found with
      | 0 -> w.size <- 0
      | 1 -> ()
      | _ -> settle w (step_states w.m [ st ] op))
  | _ -> settle w (step_states w.m w.many op));
  w

let after_fold (type s) (module S : S with type state = s) fold (states : s list) ops =
  match dedup_states (module S) states with
  | [] -> []
  | st :: _ as sts -> (
      let w = { m = (module S); one = st; many = sts; size = 0; found = 0 } in
      settle w sts;
      let w = fold step w ops in
      match w.size, sts with
      | 0, _ -> []
      | 1, [ st ] when st == w.one -> sts
      | 1, _ -> [ w.one ]
      | _ -> w.many)

let after_states m states ops = after_fold m List.fold_left states ops

let legal (Packed { m = (module S); _ }) ops = after_states (module S) [ S.initial ] ops <> []

(* The marks of {!state_response}: blocks of this module that no spec
   can answer with, so [==] tells them from every response. *)
let no_response = Value.Str "<no response>"
let several_responses = Value.Str "<several responses>"

(* [acc] joined with the response [r]: the one distinct response so far,
   or a mark. *)
let single () r _ acc =
  if acc == no_response then r
  else if acc == several_responses || Value.equal acc r then acc
  else several_responses

let rec one_response respond inv acc = function
  | [] -> acc
  | st :: rest ->
      let acc = respond st inv single () acc in
      if acc == several_responses then acc else one_response respond inv acc rest

let state_response (type s) (module S : S with type state = s) (states : s list) inv =
  one_response S.respond inv no_response states

let response () r _ acc = r :: acc

let rec all_responses respond inv acc = function
  | [] -> acc
  | st :: rest -> all_responses respond inv (respond st inv response () acc) rest

let state_responses (type s) (module S : S with type state = s) (states : s list) inv =
  let r = one_response S.respond inv no_response states in
  if r == no_response then []
  else if r == several_responses then
    List.sort_uniq Value.compare (all_responses S.respond inv [] states)
  else [ r ]

let responses (Packed { m = (module S); _ }) ops inv =
  state_responses (module S) (after_states (module S) [ S.initial ] ops) inv
