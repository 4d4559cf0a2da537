open Tm_core

type program = (string * Op.invocation) list

type t = {
  name : string;
  generate : Random.State.t -> program;
}

(* The running sums of the rank weights 1/(k+1)^skew for one
   [(n, skew)], summed left to right: [sums.(k)] weighs ranks 0 to k. *)
type zipf_table = {
  n : int;
  skew : float;
  sums : float array;
}

(* The table of the last [(n, skew)] drawn from.  A draw with other
   parameters swaps in a new one; a table is immutable, so a reader
   racing the swap still sees a whole one. *)
let zipf_last = ref { n = 0; skew = 0.; sums = [||] }

let zipf_table n skew =
  let t = !zipf_last in
  if t.n = n && Float.equal t.skew skew then t
  else begin
    let sums = Array.make n 0. in
    let acc = ref 0. in
    for k = 0 to n - 1 do
      acc := !acc +. (1. /. ((float_of_int k +. 1.) ** skew));
      sums.(k) <- !acc
    done;
    let t = { n; skew; sums } in
    zipf_last := t;
    t
  end

let zipf rng ~n ~skew =
  if n <= 1 then 0
  else if skew <= 0. then Random.State.int rng n
  else begin
    (* Inverse-CDF sampling: the first rank below n - 1 whose running
       sum exceeds the draw, else the last.  The sums never decrease,
       so a binary search finds it. *)
    let sums = (zipf_table n skew).sums in
    let x = Random.State.float rng sums.(n - 1) in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x < sums.(mid) then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)
  end

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Weighted choice among (weight, value) pairs. *)
let weighted rng choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Workload.weighted: no positive weight";
  let x = Random.State.int rng total in
  let rec pick acc = function
    | [] -> invalid_arg "Workload.weighted: unreachable"
    | (w, v) :: rest -> if x < acc + w then v else pick (acc + w) rest
  in
  pick 0 choices

let bank_op rng ~deposit ~withdraw ~balance =
  weighted rng
    [
      (deposit, `Deposit);
      (withdraw, `Withdraw);
      (balance, `Balance);
    ]
  |> function
  | `Deposit -> Op.invocation ~args:[ Value.int (1 + Random.State.int rng 3) ] "deposit"
  | `Withdraw -> Op.invocation ~args:[ Value.int (1 + Random.State.int rng 3) ] "withdraw"
  | `Balance -> Op.invocation "balance"

let bank_hotspot ?(ops = 3) ?(deposit = 45) ?(withdraw = 45) ?(balance = 10) () =
  {
    name = "bank-hotspot";
    generate =
      (fun rng ->
        List.init ops (fun _ -> ("BA", bank_op rng ~deposit ~withdraw ~balance)));
  }

let bank_accounts ?(ops = 4) ?(accounts = 8) ?(skew = 0.8) ?(deposit = 45)
    ?(withdraw = 45) ?(balance = 10) () =
  {
    name = "bank-accounts";
    generate =
      (fun rng ->
        List.init ops (fun _ ->
            let a = zipf rng ~n:accounts ~skew in
            (Fmt.str "BA%d" a, bank_op rng ~deposit ~withdraw ~balance)));
  }

let inventory ?(ops = 3) ?(incr = 30) ?(decr = 50) ?(read = 20) () =
  {
    name = "inventory";
    generate =
      (fun rng ->
        List.init ops (fun _ ->
            let inv =
              match weighted rng [ (incr, `Incr); (decr, `Decr); (read, `Read) ] with
              | `Incr -> Op.invocation ~args:[ Value.int (1 + Random.State.int rng 2) ] "incr"
              | `Decr -> Op.invocation ~args:[ Value.int (1 + Random.State.int rng 2) ] "decr"
              | `Read -> Op.invocation "read"
            in
            ("CTR", inv)));
  }

let queue_broker ?(ops = 2) ?(producer_pct = 60) ~obj () =
  {
    name = Fmt.str "queue-broker(%s)" obj;
    generate =
      (fun rng ->
        if Random.State.int rng 100 < producer_pct then
          List.init ops (fun _ ->
              (obj, Op.invocation ~args:[ Value.int (1 + Random.State.int rng 3) ] "enq"))
        else List.init ops (fun _ -> (obj, Op.invocation "deq")));
  }

let transfer ?(accounts = 4) ?(skew = 0.4) () =
  {
    name = "transfer";
    generate =
      (fun rng ->
        let src = zipf rng ~n:accounts ~skew in
        let dst = (src + 1 + Random.State.int rng (accounts - 1)) mod accounts in
        let amount = 1 + Random.State.int rng 3 in
        [
          (Fmt.str "BA%d" src, Op.invocation ~args:[ Value.int amount ] "withdraw");
          (Fmt.str "BA%d" dst, Op.invocation ~args:[ Value.int amount ] "deposit");
        ]);
  }

let register_mix ?(ops = 3) ?(write_pct = 20) () =
  {
    name = "register-mix";
    generate =
      (fun rng ->
        List.init ops (fun _ ->
            let inv =
              if Random.State.int rng 100 < write_pct then
                Op.invocation ~args:[ Value.int (Random.State.int rng 3) ] "write"
              else Op.invocation "read"
            in
            ("REG", inv)));
  }

let kv_mix ?(ops = 3) ?(keys = 4) ?(skew = 0.8) ?(put = 30) ?(get = 60) ?(del = 10) () =
  {
    name = "kv-mix";
    generate =
      (fun rng ->
        List.init ops (fun _ ->
            let k = Fmt.str "key%d" (zipf rng ~n:keys ~skew) in
            let inv =
              match weighted rng [ (put, `Put); (get, `Get); (del, `Del) ] with
              | `Put ->
                  Op.invocation
                    ~args:[ Value.str k; Value.int (1 + Random.State.int rng 2) ]
                    "put"
              | `Get -> Op.invocation ~args:[ Value.str k ] "get"
              | `Del -> Op.invocation ~args:[ Value.str k ] "del"
            in
            ("KV", inv)));
  }
