open Tm_core

type program = (string * Op.invocation) list

type t = {
  name : string;
  generate : Random.State.t -> program;
}

let zipf rng ~n ~skew =
  if n <= 1 then 0
  else if skew <= 0. then Random.State.int rng n
  else begin
    (* Inverse-CDF sampling over rank weights 1/(k+1)^skew. *)
    let weights = Array.init n (fun k -> 1. /. ((float_of_int k +. 1.) ** skew)) in
    let total = Array.fold_left ( +. ) 0. weights in
    let x = Random.State.float rng total in
    let rec pick k acc =
      if k >= n - 1 then n - 1
      else
        let acc = acc +. weights.(k) in
        if x < acc then k else pick (k + 1) acc
    in
    pick 0 0.
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
