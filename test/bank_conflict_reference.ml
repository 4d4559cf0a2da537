(* The bank account's closed-form relations (Figures 6-1 and 6-2) as they
   were when every operand was classified into a boxed [klass]: the oracle
   of the int-coded rewrite in [Tm_adt.Bank_account], which test_adts.ml
   checks against these on random operation pairs with amounts and
   balances far beyond the spec's generator alphabet.  Unchanged
   otherwise; the derivations are in bank_account.ml. *)

open Tm_core

type klass =
  | Deposit of int
  | Withdraw_ok of int
  | Withdraw_no of int
  | Balance of int

let classify (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "deposit", [ Value.Int i ], _ -> Deposit i
  | "withdraw", [ Value.Int i ], Value.Str "ok" -> Withdraw_ok i
  | "withdraw", [ Value.Int i ], Value.Str "no" -> Withdraw_no i
  | "balance", [], Value.Int b -> Balance b
  | _ -> invalid_arg ("Bank_account: not a bank account operation: " ^ Op.to_string op)

let forward_commutes p q =
  match classify p, classify q with
  | Deposit _, Deposit _
  | Deposit _, Withdraw_ok _
  | Withdraw_ok _, Deposit _
  | Withdraw_ok _, Withdraw_no _
  | Withdraw_no _, Withdraw_ok _
  | Withdraw_no _, Withdraw_no _
  | Withdraw_no _, Balance _
  | Balance _, Withdraw_no _
  | Balance _, Balance _ -> true
  | Deposit _, Withdraw_no _
  | Withdraw_no _, Deposit _
  | Deposit _, Balance _
  | Balance _, Deposit _
  | Withdraw_ok _, Withdraw_ok _ -> false
  | Withdraw_ok i, Balance b | Balance b, Withdraw_ok i -> b < i

let right_commutes_backward p q =
  match classify p, classify q with
  | Deposit _, Deposit _
  | Deposit _, Withdraw_ok _
  | Withdraw_ok _, Withdraw_ok _
  | Withdraw_ok _, Withdraw_no _
  | Withdraw_no _, Deposit _
  | Withdraw_no _, Withdraw_no _
  | Withdraw_no _, Balance _
  | Balance _, Withdraw_no _
  | Balance _, Balance _ -> true
  | Deposit _, Withdraw_no _
  | Withdraw_ok _, Deposit _
  | Withdraw_no _, Withdraw_ok _
  | Deposit _, Balance _
  | Balance _, Withdraw_ok _ -> false
  | Withdraw_ok i, Balance b -> b < i
  | Balance b, Deposit i -> b < i
