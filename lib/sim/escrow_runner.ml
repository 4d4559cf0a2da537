open Tm_core
module Escrow = Tm_engine.Escrow

type active_txn = {
  tid : Tid.t;
  program : Workload.program;
  mutable remaining : Workload.program;
  retries : int;
}

let run escrow (workload : Workload.t) (cfg : Experiment.config) =
  let rng = Random.State.make [| cfg.seed |] in
  let pending = Queue.create () in
  for _ = 1 to cfg.total_txns do
    Queue.add (workload.generate rng, 0) pending
  done;
  let active : active_txn list ref = ref [] in
  let next_tid = ref 0 in
  let committed = ref 0 and retries = ref 0 and gave_up = ref 0 in
  let executed = ref 0 and refused = ref 0 in
  let admit () =
    while List.length !active < cfg.concurrency && not (Queue.is_empty pending) do
      let program, retries = Queue.pop pending in
      let tid = Tid.of_int !next_tid in
      incr next_tid;
      active := !active @ [ { tid; program; remaining = program; retries } ]
    done
  in
  let remove tid = active := List.filter (fun t -> not (Tid.equal t.tid tid)) !active in
  let progressed = ref false in
  let step t =
    match t.remaining with
    | [] ->
        Escrow.commit escrow t.tid;
        remove t.tid;
        incr committed;
        progressed := true
    | (_obj, inv) :: rest -> (
        match Escrow.invoke escrow t.tid inv with
        | Escrow.Granted _ ->
            t.remaining <- rest;
            incr executed;
            progressed := true
        | Escrow.Refused -> incr refused)
  in
  let abort_and_requeue t =
    Escrow.abort escrow t.tid;
    remove t.tid;
    if t.retries < cfg.max_retries then begin
      incr retries;
      Queue.add (t.program, t.retries + 1) pending
    end
    else incr gave_up
  in
  let rec loop round =
    admit ();
    if !active = [] then round
    else begin
      progressed := false;
      let alive t = List.exists (fun x -> Tid.equal x.tid t.tid) !active in
      Array.iter (fun t -> if alive t then step t) (Workload.shuffle rng !active);
      if (not !progressed) && !active <> [] then begin
        match List.rev !active with
        | youngest :: _ -> abort_and_requeue youngest
        | [] -> ()
      end;
      loop (round + 1)
    end
  in
  let rounds = loop 0 in
  {
    Experiment.committed = !committed;
    deadlock_victims = 0;
    stall_victims = 0;
    validation_aborts = 0;
    retries = !retries;
    gave_up = !gave_up;
    unanswered = 0;
    rounds;
    attempts = !executed + !refused;
    executed = !executed;
    blocked = !refused;
    no_response = 0;
  }

let verify ~capacity ~initial escrow =
  let module Pool = Tm_adt.Bounded_counter.Make (struct
    let capacity = capacity
    let initial = initial
    let name = Escrow.name escrow
  end) in
  Spec.legal Pool.spec (Escrow.committed_ops escrow)
