(* The 2PC analysis as a walk over each shard's records: the oracle the
   replay-state analysis ([Two_phase.analyze], which reads
   [Wal.in_doubt], [Wal.decided], [Wal.phase2] and
   [Wal.commit_evidence]) is compared with.
   The walk is the one the engine ran before the state answered these
   questions, less the abort-evidence set nothing read.

   Two differences are by design, and the inputs the comparison runs on
   hold neither.  The walk reads the whole record list, while the state
   restarts at each checkpoint (no 2PC outcome spans one); and a tid
   prepared again after its local outcome keeps its first position
   here, where the state lists it from the [Prepare] that put it back
   in doubt.  Transaction ids are never reused, so the engine writes
   neither. *)

open Tm_core
module Wal = Tm_engine.Wal
module Two_phase = Tm_engine.Two_phase

type analysis = {
  in_doubt : Tid.t list array;
  commit_evidence : Tid.Set.t;
  decision_evidence : Tid.Set.t;
  phase2_evidence : Tid.Set.t;
}

let analyze_records logs =
  let n = Array.length logs in
  let in_doubt = Array.make n [] in
  let commit_ev = ref Tid.Set.empty in
  let decision_ev = ref Tid.Set.empty in
  let phase2_ev = ref Tid.Set.empty in
  for s = 0 to n - 1 do
    (* [pending]: prepared on this shard, no local outcome record yet.
       [ever]: prepared on this shard at any point — a later [Commit] /
       [Abort] of such a transaction is a surviving phase-2 record and
       therefore global evidence.  A [Commit] of a never-prepared
       transaction is just a local single-shard commit. *)
    let pending = Hashtbl.create 8 in
    let ever = Hashtbl.create 8 in
    List.iter
      (fun r ->
        match r with
        | Wal.Prepare tid ->
            Hashtbl.replace pending tid ();
            Hashtbl.replace ever tid ()
        | Wal.Commit tid ->
            if Hashtbl.mem ever tid then begin
              commit_ev := Tid.Set.add tid !commit_ev;
              phase2_ev := Tid.Set.add tid !phase2_ev
            end;
            Hashtbl.remove pending tid
        | Wal.Abort tid ->
            if Hashtbl.mem ever tid then phase2_ev := Tid.Set.add tid !phase2_ev;
            Hashtbl.remove pending tid
        | Wal.Decision { tid; commit } ->
            decision_ev := Tid.Set.add tid !decision_ev;
            if commit then commit_ev := Tid.Set.add tid !commit_ev
        | Wal.Begin _ | Wal.Operation _ | Wal.Truncate_intent _ | Wal.Checkpoint _ -> ())
      logs.(s);
    (* In-doubt set in first-[Prepare] order. *)
    let listed = Hashtbl.create 8 in
    in_doubt.(s) <-
      List.filter_map
        (function
          | Wal.Prepare tid when Hashtbl.mem pending tid && not (Hashtbl.mem listed tid) ->
              Hashtbl.add listed tid ();
              Some tid
          | _ -> None)
        logs.(s)
  done;
  {
    in_doubt;
    commit_evidence = !commit_ev;
    decision_evidence = !decision_ev;
    phase2_evidence = !phase2_ev;
  }

(* One resolution per in-doubt prepare, by shard then first [Prepare]. *)
let analyze logs : Two_phase.resolution list =
  let a = analyze_records logs in
  List.concat
    (List.init (Array.length a.in_doubt) (fun shard ->
         List.map
           (fun tid ->
             {
               Two_phase.shard;
               tid;
               commit = Tid.Set.mem tid a.commit_evidence;
               evidence =
                 (if Tid.Set.mem tid a.decision_evidence then Two_phase.Decision_record
                  else if Tid.Set.mem tid a.phase2_evidence then Two_phase.Phase2_record
                  else Two_phase.Presumed);
             })
           a.in_doubt.(shard)))

let pp_resolution ppf (r : Two_phase.resolution) =
  Fmt.pf ppf "shard %d %a->%s (%s)" r.shard Tid.pp r.tid
    (if r.commit then "commit" else "abort")
    (Two_phase.evidence_name r.evidence)

(* Fails unless the replay states of [wals] resolve exactly as the walk
   over their records does; returns the number of resolutions. *)
let check label wals =
  let got = Two_phase.analyze wals and want = analyze (Array.map Wal.records wals) in
  if got <> want then
    Alcotest.failf "%s: the replay state resolves [%a], the record walk [%a]" label
      Fmt.(list ~sep:semi pp_resolution)
      got
      Fmt.(list ~sep:semi pp_resolution)
      want;
  List.length want
