open Tm_core

type state = int

let obj = "BA"

module S = struct
  type nonrec state = state

  let name = obj
  let initial = 0
  let equal_state = Int.equal
  let compare_state = Int.compare
  let pp_state = Fmt.int

  let respond s (inv : Op.invocation) =
    match inv.name, inv.args with
    | "deposit", [ Value.Int i ] when i > 0 -> [ (Value.ok, s + i) ]
    | "withdraw", [ Value.Int i ] when i > 0 ->
        if s >= i then [ (Value.ok, s - i) ] else [ (Value.no, s) ]
    | "balance", [] -> [ (Value.Int s, s) ]
    | _ -> []

  (* Amounts 1-2 and balances 0-3 exhibit every behaviourally distinct
     situation of the type: what matters to legality is only the order
     relation between the balance and the amounts, and at depth >= 4 the
     explorer reaches balances both below and above every generator
     amount and every pairwise sum. *)
  let generators =
    List.concat
      [
        List.map (fun i -> Op.make ~obj ~args:[ Value.int i ] "deposit" Value.ok) [ 1; 2 ];
        List.map (fun i -> Op.make ~obj ~args:[ Value.int i ] "withdraw" Value.ok) [ 1; 2 ];
        List.map (fun i -> Op.make ~obj ~args:[ Value.int i ] "withdraw" Value.no) [ 1; 2 ];
        List.map (fun b -> Op.make ~obj "balance" (Value.int b)) [ 0; 1; 2; 3 ];
      ]
end

let spec = Spec.pack (module S)

(* The last funded spec built: every caller opens all its accounts at
   one balance, so they share one first-class module instead of each
   carrying its own.  A race at worst builds a spare. *)
let funded = Atomic.make None

let spec_with_initial balance =
  if balance < 0 then invalid_arg "Bank_account.spec_with_initial: negative balance";
  match Atomic.get funded with
  | Some (b, spec) when b = balance -> spec
  | _ ->
      let module Funded = struct
        include S

        let initial = balance
      end in
      let spec = Spec.pack (module Funded) in
      Atomic.set funded (Some (balance, spec));
      spec

let deposit i = Op.make ~obj ~args:[ Value.int i ] "deposit" Value.ok
let withdraw_ok i = Op.make ~obj ~args:[ Value.int i ] "withdraw" Value.ok
let withdraw_no i = Op.make ~obj ~args:[ Value.int i ] "withdraw" Value.no
let balance i = Op.make ~obj "balance" (Value.int i)

(* Operation classification used by the closed forms, as an immediate
   int so that classifying an operand allocates nothing (the closed forms
   run on every conflict test of the lock table): the kind in the low two
   bits — 0 deposit, 1 withdraw→ok, 2 withdraw→no, 3 balance — and the
   amount (or pinned balance) above them.  Amounts and balances are
   assumed to fit in 61 bits. *)
let code (op : Op.t) =
  match op.inv.name, op.inv.args, op.res with
  | "deposit", [ Value.Int i ], _ -> i lsl 2
  | "withdraw", [ Value.Int i ], Value.Str "ok" -> (i lsl 2) lor 1
  | "withdraw", [ Value.Int i ], Value.Str "no" -> (i lsl 2) lor 2
  | "balance", [], Value.Int b -> (b lsl 2) lor 3
  | _ -> invalid_arg ("Bank_account: not a bank account operation: " ^ Op.to_string op)

let kind c = c land 3
let amount c = c asr 2

(* Figure 6-1, derived (s = balance):
   - deposit/deposit, deposit/withdraw-ok: total, add/subtract commute and
     legality is preserved in both orders.
   - deposit/withdraw-no: with balance s = j-1 both are legal, but the
     withdrawal no longer fails after the deposit.
   - deposit/balance→b: the pinned result is wrong after the deposit
     (co-legal at s = b for every b).
   - withdraw-ok(i)/balance→b: co-legal only at s = b >= i; vacuous — and
     hence commuting — when b < i.
   - withdraw-ok(i)/withdraw-ok(j): legal individually whenever
     s >= max(i,j), but the sequence needs s >= i+j.
   - withdraw-no/withdraw-ok: a failed withdrawal leaves the state alone
     and stays failed after a successful one (s-i < s < j).
   - withdraw-no/withdraw-no, balance/balance: read-only / no-ops.

   The paper's class-level Figure 6-1 is the existential image of this
   relation (a class pair is marked when some instance pair conflicts). *)
let forward_commutes p q =
  let p = code p and q = code q in
  match kind p, kind q with
  | 0, (0 | 1) | 1, (0 | 2) | 2, (1 | 2 | 3) | 3, (2 | 3) -> true
  | 1, 3 -> amount q < amount p  (* withdraw-ok(i) / balance→b: b < i *)
  | 3, 1 -> amount p < amount q
  | _ -> false

(* Figure 6-2, derived ([p right-commutes-backward q] = whenever p runs
   just after q it could instead have run just before, unobservably):
   - deposit after withdraw-ok: s-j+i = s+i-j and the deposit only makes
     the withdrawal more legal.
   - deposit after withdraw-no (x): the failed withdrawal may succeed once
     moved after the deposit.
   - withdraw-ok after deposit (x): the withdrawal may not be legal before
     the deposit (j-i <= s < j).
   - withdraw-ok after withdraw-ok: legality of the pair is s >= i+j in
     either order.
   - withdraw-no after withdraw-ok (x): before the successful withdrawal
     the balance is i higher and the failure may become a success.
   - withdraw-no after deposit: s+j < i implies s < i, so it fails before
     the deposit too.
   - withdraw-ok(i) after balance→b: needs s = b >= i; vacuous when b < i,
     otherwise the balance answer would change (x).
   - balance→b after deposit(i) / withdraw-ok(i): pushing the balance
     before the update changes its answer — except vacuously, when the
     pinned result b is impossible right after the update (b < i for
     deposit; never for withdraw-ok, whose prior state b + i is always
     reachable).
   - balance and withdraw-no are state-preserving, so each pushes back
     over the other. *)
let right_commutes_backward p q =
  let p = code p and q = code q in
  match kind p, kind q with
  | 0, (0 | 1) | 1, (1 | 2) | 2, (0 | 2 | 3) | 3, (2 | 3) -> true
  | 1, 3 -> amount q < amount p  (* withdraw-ok(i) after balance→b: b < i *)
  | 3, 0 -> amount p < amount q  (* balance→b after deposit(i): b < i *)
  | _ -> false

(* Deposits and successful withdrawals form an abelian group action on the
   balance, so each has a position-independent compensating operation;
   failed withdrawals and balance reads change nothing. *)
let inverse op =
  let c = code op in
  match kind c with
  | 0 -> Some [ withdraw_ok (amount c) ]
  | 1 -> Some [ deposit (amount c) ]
  | _ -> Some []

let nfc_conflict =
  Conflict.make ~name:"BA-NFC" (fun ~requested ~held ->
      not (forward_commutes requested held))

let nrbc_conflict =
  Conflict.make ~name:"BA-NRBC" (fun ~requested ~held ->
      not (right_commutes_backward requested held))

let rw_conflict =
  Conflict.read_write ~name:"BA-RW" ~is_read:(fun op -> kind (code op) = 3)

let classes =
  [
    ("deposit", [ deposit 1; deposit 2 ]);
    ("withdraw/ok", [ withdraw_ok 1; withdraw_ok 2 ]);
    ("withdraw/no", [ withdraw_no 1; withdraw_no 2 ]);
    ("balance", [ balance 0; balance 1; balance 2 ]);
  ]

let labels = List.map fst classes

let paper_fc_table =
  (* Figure 6-1: X means "do not commute forward". *)
  Commutativity.table_of_marks labels
    [
      ("deposit", "withdraw/no");
      ("deposit", "balance");
      ("withdraw/ok", "withdraw/ok");
      ("withdraw/ok", "balance");
      ("withdraw/no", "deposit");
      ("balance", "deposit");
      ("balance", "withdraw/ok");
    ]

let paper_rbc_table =
  (* Figure 6-2: X means "row does not right commute backward with
     column". *)
  Commutativity.table_of_marks labels
    [
      ("deposit", "withdraw/no");
      ("deposit", "balance");
      ("withdraw/ok", "deposit");
      ("withdraw/ok", "balance");
      ("withdraw/no", "withdraw/ok");
      ("balance", "deposit");
      ("balance", "withdraw/ok");
    ]
