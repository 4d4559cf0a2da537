open Tm_core
module Metrics = Tm_obs.Metrics

exception All_parked of Tid.t list

let () =
  Printexc.register_printer (function
    | All_parked tids ->
        Some
          (Fmt.str "Fiber.All_parked: no fiber can run or wake %a"
             Fmt.(list ~sep:comma Tid.pp) tids)
    | _ -> None)

type resume = unit -> unit

type t = {
  rng : Random.State.t;
  mutable round : int;
  (* Fibers that will run, each with the round it runs in; newest
     first. *)
  mutable ready : (int * resume) list;
  (* Each monitor's parked fibers and the tids they run, newest
     first. *)
  mutable monitors : (Tid.t * resume) list ref list;
  c_rounds : Metrics.counter;
}

type _ Effect.t +=
  | Sleep : int -> unit Effect.t
  | Park : Tid.t * (Tid.t * resume) list ref -> unit Effect.t

let create ~registry rng =
  {
    rng;
    round = 0;
    ready = [];
    monitors = [];
    c_rounds = Metrics.counter registry "tm_sched_rounds_total";
  }

let round t = t.round
let sleep k = Effect.perform (Sleep k)
let yield () = sleep 0

let spawn t f =
  let open Effect.Deep in
  let start () =
    match_with f ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Sleep k ->
                Some
                  (fun (c : (a, unit) continuation) ->
                    t.ready <- (t.round + k + 1, fun () -> continue c ()) :: t.ready)
            | Park (tid, parked) ->
                Some
                  (fun (c : (a, unit) continuation) ->
                    parked := (tid, fun () -> continue c ()) :: !parked)
            | _ -> None);
      }
  in
  t.ready <- (t.round + 1, start) :: t.ready

let runtime t =
  let parked = ref [] in
  t.monitors <- parked :: t.monitors;
  {
    (* One domain, and a fiber switches only in [wait] or outside the
       monitor, so holding it needs no lock. *)
    Tm_engine.Concurrent.enter = ignore;
    leave = ignore;
    wait = (fun tid -> Effect.perform (Park (tid, parked)));
    broadcast =
      (fun () ->
        List.iter (fun (_, k) -> t.ready <- (t.round + 1, k) :: t.ready) (List.rev !parked);
        parked := []);
    (* Capped exponential in rounds, with full seeded jitter. *)
    backoff = (fun attempt -> sleep (1 + Random.State.int t.rng (1 lsl min (attempt - 1) 4)));
  }

let rec run t =
  match t.ready with
  | [] -> (
      match List.concat_map (fun m -> List.rev_map fst !m) t.monitors with
      | [] -> ()
      | tids -> raise (All_parked (List.sort Tid.compare tids)))
  | ready ->
      (* Rounds in which every fiber sleeps pass idle. *)
      let first = List.fold_left (fun acc (r, _) -> min acc r) max_int ready in
      let round = max (t.round + 1) first in
      Metrics.Counter.incr ~by:(round - t.round) t.c_rounds;
      t.round <- round;
      let due, later = List.partition (fun (r, _) -> r <= round) ready in
      t.ready <- later;
      Array.iter (fun (_, k) -> k ()) (Workload.shuffle t.rng (List.rev due));
      run t
