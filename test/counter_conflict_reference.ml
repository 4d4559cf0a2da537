(* The bounded counter's closed-form relations as they were when every
   operand was classified into a boxed [klass]: the oracle of the
   int-coded rewrite in [Tm_adt.Bounded_counter], which test_adts.ml
   checks against these on every generator pair and on random operation
   pairs over random capacities.  Unchanged otherwise, except that the
   capacity is an argument; the derivations are in bounded_counter.ml. *)

open Tm_core

type klass =
  | Incr_ok of int
  | Incr_no of int
  | Decr_ok of int
  | Decr_no of int
  | Read of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "incr", [ Value.Int i ], Value.Str "ok" -> Incr_ok i
  | "incr", [ Value.Int i ], Value.Str "no" -> Incr_no i
  | "decr", [ Value.Int i ], Value.Str "ok" -> Decr_ok i
  | "decr", [ Value.Int i ], Value.Str "no" -> Decr_no i
  | "read", [], Value.Int n -> Read n
  | _ -> invalid_arg ("Bounded_counter: not a counter operation: " ^ Op.to_string op)

let forward_commutes ~capacity p q =
  match classify p, classify q with
  | Incr_ok _, Incr_ok _ | Decr_ok _, Decr_ok _ -> false
  | Incr_ok _, Decr_ok _ | Decr_ok _, Incr_ok _ -> true
  | Incr_ok _, Incr_no _ | Incr_no _, Incr_ok _ -> true
  | Decr_ok _, Decr_no _ | Decr_no _, Decr_ok _ -> true
  | Incr_ok _, Decr_no _ | Decr_no _, Incr_ok _ -> false
  | Incr_no _, Decr_ok _ | Decr_ok _, Incr_no _ -> false
  | Incr_ok i, Read n | Read n, Incr_ok i -> n + i > capacity
  | Decr_ok i, Read n | Read n, Decr_ok i -> n < i
  | Incr_no _, (Incr_no _ | Decr_no _ | Read _) | (Decr_no _ | Read _), Incr_no _ -> true
  | Decr_no _, (Decr_no _ | Read _) | Read _, Decr_no _ -> true
  | Read _, Read _ -> true

let right_commutes_backward ~capacity p q =
  match classify p, classify q with
  | Incr_ok _, Incr_ok _ | Decr_ok _, Decr_ok _ -> true
  | Incr_ok _, Decr_ok _ | Decr_ok _, Incr_ok _ -> false
  | Incr_ok _, Incr_no _ -> true
  | Incr_no _, Incr_ok _ -> false
  | Decr_ok _, Decr_no _ -> true
  | Decr_no _, Decr_ok _ -> false
  | Incr_ok _, Decr_no _ -> false
  | Decr_no _, Incr_ok _ -> true
  | Incr_no _, Decr_ok _ -> true
  | Decr_ok _, Incr_no _ -> false
  | Incr_ok i, Read n -> n + i > capacity
  | Decr_ok i, Read n -> n < i
  | Read n, Incr_ok i -> n < i
  | Read n, Decr_ok i -> n + i > capacity
  | Incr_no _, (Incr_no _ | Decr_no _ | Read _) -> true
  | Decr_no _, (Incr_no _ | Decr_no _ | Read _) -> true
  | Read _, (Incr_no _ | Decr_no _ | Read _) -> true
