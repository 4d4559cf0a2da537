(** The paper's running example: a bank account (Sections 3.2, 6.2, 6.3).

    State: a non-negative balance.  Operations:
    - [deposit(i) → ok] (any [i > 0]);
    - [withdraw(i) → ok] when the balance is at least [i] (debits it);
    - [withdraw(i) → no] when it is not (leaves it unchanged);
    - [balance → i] returns the current balance.

    The closed-form commutativity relations below are the paper's
    Figures 6-1 and 6-2, derived per operation pair (see the comments in
    the implementation); property tests validate them against the generic
    bounded decision procedures. *)

open Tm_core

type state = int

module S : Spec.S with type state = state

val spec : Spec.t

(** [spec_with_initial b] is the same type with opening balance [b]
    (workloads that must exercise successful withdrawals pre-fund the
    account).  The commutativity relations are initial-state-independent:
    they quantify over reachable contexts.  Calls with the balance of the
    previous call return the same spec, so accounts opened at one balance
    share it. *)
val spec_with_initial : int -> Spec.t

(** {1 Operation constructors} *)

val deposit : int -> Op.t
val withdraw_ok : int -> Op.t
val withdraw_no : int -> Op.t
val balance : int -> Op.t

(** {1 Closed-form relations} *)

(** Figure 6-1.  [forward_commutes p q] — do [p] and [q] commute forward?
    Raises [Invalid_argument] on operations that are not bank-account
    operations. *)
val forward_commutes : Op.t -> Op.t -> bool

(** Figure 6-2.  [right_commutes_backward p q] — does [p] right commute
    backward with [q]?  Not symmetric. *)
val right_commutes_backward : Op.t -> Op.t -> bool

(** [inverse op] — compensating operations for the engine's
    update-in-place undo fast path ({!Tm_core.Spec} is unaffected):
    deposits and successful withdrawals undo each other; failed
    withdrawals and balance reads need nothing. *)
val inverse : Op.t -> Op.t list option

(** {1 Conflict relations for the engine} *)

(** NFC: the minimal conflict relation for deferred-update recovery. *)
val nfc_conflict : Conflict.t

(** NRBC: the minimal conflict relation for update-in-place recovery. *)
val nrbc_conflict : Conflict.t

(** Classical read/write baseline: [balance] is a read; everything else is
    a write. *)
val rw_conflict : Conflict.t

(** {1 Table rendering} *)

(** Operation classes for rendering Figures 6-1/6-2:
    ["deposit"], ["withdraw/ok"], ["withdraw/no"], ["balance"], with small
    representative argument sets. *)
val classes : (string * Op.t list) list

(** The paper's Figure 6-1 as an expected table (marks = pairs that do
    {e not} commute forward). *)
val paper_fc_table : Commutativity.table

(** The paper's Figure 6-2 (marks = row does {e not} right-commute-backward
    with column). *)
val paper_rbc_table : Commutativity.table
