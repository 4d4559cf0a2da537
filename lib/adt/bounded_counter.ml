open Tm_core

module type CONFIG = sig
  val capacity : int
  val initial : int
  val name : string
end

module type S_counter = sig
  type state = int

  val capacity : int

  module S : Spec.S with type state = state

  val spec : Spec.t
  val incr_ok : int -> Op.t
  val incr_no : int -> Op.t
  val decr_ok : int -> Op.t
  val decr_no : int -> Op.t
  val read : int -> Op.t
  val forward_commutes : Op.t -> Op.t -> bool
  val right_commutes_backward : Op.t -> Op.t -> bool
  val inverse : Op.t -> Op.t list option
  val nfc_conflict : Conflict.t
  val nrbc_conflict : Conflict.t
  val rw_conflict : Conflict.t
  val classes : (string * Op.t list) list
end

module Make (C : CONFIG) : S_counter = struct
  type state = int

  let capacity = C.capacity
  let obj = C.name

  module S = struct
    type nonrec state = state

    let name = obj
    let initial = C.initial
    let equal_state = Int.equal
    let compare_state = Int.compare
    let pp_state = Fmt.int

    let respond n (inv : Op.invocation) k c acc =
      match inv.name, inv.args with
      | "incr", [ Value.Int i ] when i > 0 ->
          if n + i <= capacity then k c Value.ok (n + i) acc else k c Value.no n acc
      | "decr", [ Value.Int i ] when i > 0 ->
          if n >= i then k c Value.ok (n - i) acc else k c Value.no n acc
      | "read", [] -> k c (Value.Int n) n acc
      | _ -> acc

    (* Amounts 1-2: with a small capacity the explorer reaches every
       state 0..capacity, covering each side of every legality threshold
       (n vs i, n+i vs capacity, and the pairwise-sum variants).  Read
       generators sample the extremes and middle. *)
    let generators =
      let reads =
        List.sort_uniq Int.compare
          [ 0; 1; 2; capacity / 2; capacity - 1; capacity ]
        |> List.filter (fun n -> n >= 0)
      in
      List.concat_map
        (fun i ->
          [
            Op.make ~obj ~args:[ Value.int i ] "incr" Value.ok;
            Op.make ~obj ~args:[ Value.int i ] "incr" Value.no;
            Op.make ~obj ~args:[ Value.int i ] "decr" Value.ok;
            Op.make ~obj ~args:[ Value.int i ] "decr" Value.no;
          ])
        [ 1; 2 ]
      @ List.map (fun n -> Op.make ~obj "read" (Value.int n)) reads
  end

  let spec = Spec.pack (module S)
  let incr_ok i = Op.make ~obj ~args:[ Value.int i ] "incr" Value.ok
  let incr_no i = Op.make ~obj ~args:[ Value.int i ] "incr" Value.no
  let decr_ok i = Op.make ~obj ~args:[ Value.int i ] "decr" Value.ok
  let decr_no i = Op.make ~obj ~args:[ Value.int i ] "decr" Value.no
  let read n = Op.make ~obj "read" (Value.int n)

  (* Operation classification used by the closed forms, as an immediate
     int so that classifying an operand allocates nothing (the closed
     forms run on every conflict test of the lock table): the kind in
     the low three bits — 0 incr→ok, 1 incr→no, 2 decr→ok, 3 decr→no,
     4 read — and the amount (or the value read) above them.  Amounts
     and values are assumed to fit in 60 bits. *)
  let code (op : Op.t) =
    match op.inv.name, op.inv.args, op.res with
    | "incr", [ Value.Int i ], Value.Str "ok" -> i lsl 3
    | "incr", [ Value.Int i ], Value.Str "no" -> (i lsl 3) lor 1
    | "decr", [ Value.Int i ], Value.Str "ok" -> (i lsl 3) lor 2
    | "decr", [ Value.Int i ], Value.Str "no" -> (i lsl 3) lor 3
    | "read", [], Value.Int n -> (n lsl 3) lor 4
    | _ -> invalid_arg ("Bounded_counter: not a counter operation: " ^ Op.to_string op)

  let kind c = c land 7
  let amount c = c asr 3

  (* Derivations (n = state, C = capacity, i/j the two amounts):
     - incr-ok(i)/incr-ok(j): each legal at n <= C-max(i,j); the pair needs
       n+i+j <= C, which fails for n in (C-i-j, C-max] — not FC, but the
       pair's legality is symmetric in the order, so RBC holds both ways.
     - decr-ok/decr-ok: dual.
     - incr-ok/decr-ok: commute forward (net effect and legality agree),
       but moving the incr before the decr can overflow (n+i > C >= n-j+i)
       and moving the decr before the incr can underflow — neither RBC.
     - ok-ops vs the same-direction no-op: FC (the failure stays a failure
       after the other op); the no-op pushes back over nothing that could
       have enabled it, giving the asymmetric RBC entries below.
     - read→n pins the state, so it relates to the ok-updates only on
       contexts where both are legal; outside those (n+i > C for incr,
       n < i for decr) the pair is vacuously commuting. *)
  let forward_commutes p q =
    let p = code p and q = code q in
    match kind p, kind q with
    | 0, 4 -> amount q + amount p > capacity  (* incr-ok(i) / read→n: n+i > C *)
    | 4, 0 -> amount p + amount q > capacity
    | 2, 4 -> amount q < amount p  (* decr-ok(i) / read→n: n < i *)
    | 4, 2 -> amount p < amount q
    | 0, (0 | 3) | 2, (1 | 2) | 1, 2 | 3, 0 -> false
    | _ -> true

  let right_commutes_backward p q =
    let p = code p and q = code q in
    match kind p, kind q with
    (* An ok-update pushes back over read→n only when "read then update"
       is impossible (vacuous); a read→n pushes back over an ok-update
       only when "update then read→n" is impossible — when the state the
       read would have seen before the update is out of range. *)
    | 0, 4 -> amount q + amount p > capacity  (* incr-ok(i) after read→n: n+i > C *)
    | 2, 4 -> amount q < amount p  (* decr-ok(i) after read→n: n < i *)
    | 4, 0 -> amount p < amount q  (* read→n after incr-ok(i): n < i *)
    | 4, 2 -> amount p + amount q > capacity  (* read→n after decr-ok(i): n+i > C *)
    | 0, (2 | 3) | 1, 0 | 2, (0 | 1) | 3, 2 -> false
    | _ -> true

  (* Successful updates form an abelian group action within the bounds;
     compensations are legal at the end of the log whenever the sound
     conflict relations were used (and the engine falls back to replay
     otherwise).  As in {!Bank_account}, the compensations of amounts
     below 64 are built once and shared, and the operation is matched
     in place rather than classified, so undoing a small update
     allocates nothing. *)
  let shared = 64
  let undo_incr = Array.init shared (fun i -> Some [ decr_ok i ])
  let undo_decr = Array.init shared (fun i -> Some [ incr_ok i ])

  let inverse (op : Op.t) =
    match op.inv.name, op.inv.args, op.res with
    | "incr", [ Value.Int i ], Value.Str "ok" ->
        if i >= 0 && i < shared then undo_incr.(i) else Some [ decr_ok i ]
    | "decr", [ Value.Int i ], Value.Str "ok" ->
        if i >= 0 && i < shared then undo_decr.(i) else Some [ incr_ok i ]
    | _ ->
        (* A failed update or a read; [code] rejects the rest. *)
        ignore (code op);
        Some []

  let nfc_conflict =
    Conflict.make
      ~name:(obj ^ "-NFC")
      (fun ~requested ~held -> not (forward_commutes requested held))

  let nrbc_conflict =
    Conflict.make
      ~name:(obj ^ "-NRBC")
      (fun ~requested ~held -> not (right_commutes_backward requested held))

  let rw_conflict =
    Conflict.read_write
      ~name:(obj ^ "-RW")
      ~is_read:(fun op -> kind (code op) = 4)

  let classes =
    [
      ("incr/ok", [ incr_ok 1; incr_ok 2 ]);
      ("incr/no", [ incr_no 1; incr_no 2 ]);
      ("decr/ok", [ decr_ok 1; decr_ok 2 ]);
      ("decr/no", [ decr_no 1; decr_no 2 ]);
      ("read", [ read 0; read 1; read 2 ]);
    ]
end

module Default = Make (struct
  let capacity = 4
  let initial = 0
  let name = "CTR"
end)

include Default
