(** Workload generators.

    A transaction {e program} is the list of invocations it will issue
    (object name + invocation); the engine determines each response.
    Generators are seeded and deterministic. *)

open Tm_core

type program = (string * Op.invocation) list

type t = {
  name : string;
  generate : Random.State.t -> program;
      (** one fresh transaction program per call *)
}

(** [zipf rng ~n ~skew] samples an index in [0, n) with Zipfian skew
    ([skew = 0.] is uniform). *)
val zipf : Random.State.t -> n:int -> skew:float -> int

(** [shuffle rng l] — the elements of [l] in a seeded Fisher–Yates
    order. *)
val shuffle : Random.State.t -> 'a list -> 'a array

(** {1 Scenarios}

    Each scenario names the objects it uses; build the matching database
    with {!Experiment} or by hand. *)

(** Hot-spot bank: every transaction does [ops] operations on one account
    object ["BA"], drawn as deposit/withdraw/balance with the given
    weights.  The paper's motivating "hot spot". *)
val bank_hotspot :
  ?ops:int -> ?deposit:int -> ?withdraw:int -> ?balance:int -> unit -> t

(** Multi-account bank: [accounts] objects named ["BA0"…], account picked
    per operation with Zipfian [skew]. *)
val bank_accounts :
  ?ops:int -> ?accounts:int -> ?skew:float -> ?deposit:int -> ?withdraw:int ->
  ?balance:int -> unit -> t

(** Inventory escrow on the bounded counter ["CTR"]: restocks ([incr]) and
    reservations ([decr]) with occasional reads. *)
val inventory : ?ops:int -> ?incr:int -> ?decr:int -> ?read:int -> unit -> t

(** Producer/consumer on a queue object: a transaction either enqueues
    [ops] items (probability [producer_pct]%) or dequeues [ops] items.
    [obj] should be ["SQ"] (semiqueue) or ["FQ"] (FIFO); item values are
    1–3, within the specs' generator alphabets (the derived conflict
    relations are sound over that alphabet). *)
val queue_broker : ?ops:int -> ?producer_pct:int -> obj:string -> unit -> t

(** Money transfers between accounts ["BA0"]…: withdraw from a
    Zipf-chosen source, deposit to another account — the canonical
    multi-object transaction (atomic commitment across objects). *)
val transfer : ?accounts:int -> ?skew:float -> unit -> t

(** Read-heavy register workload on ["REG"] (baseline comparisons). *)
val register_mix : ?ops:int -> ?write_pct:int -> unit -> t

(** Key-value mix on ["KV"] over [keys] keys with Zipfian [skew]. *)
val kv_mix : ?ops:int -> ?keys:int -> ?skew:float -> ?put:int -> ?get:int -> ?del:int -> unit -> t
