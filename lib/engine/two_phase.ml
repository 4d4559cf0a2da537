open Tm_core

type analysis = {
  in_doubt : Tid.t list array;
  commit_evidence : Tid.Set.t;
  abort_evidence : Tid.Set.t;
  decision_evidence : Tid.Set.t;
  phase2_evidence : Tid.Set.t;
}

let analyze logs =
  let n = Array.length logs in
  let in_doubt = Array.make n [] in
  let commit_ev = ref Tid.Set.empty in
  let abort_ev = ref Tid.Set.empty in
  let decision_ev = ref Tid.Set.empty in
  let phase2_ev = ref Tid.Set.empty in
  for s = 0 to n - 1 do
    (* [pending]: prepared on this shard, no local outcome record yet.
       [ever]: prepared on this shard at any point — a later [Commit] /
       [Abort] of such a transaction is a surviving phase-2 record and
       therefore global evidence (participants only log the outcome the
       coordinator decided).  A [Commit] of a {e never-prepared}
       transaction is just a local single-shard commit and says nothing
       about any other shard. *)
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
            if Hashtbl.mem ever tid then begin
              abort_ev := Tid.Set.add tid !abort_ev;
              phase2_ev := Tid.Set.add tid !phase2_ev
            end;
            Hashtbl.remove pending tid
        | Wal.Decision { tid; commit } ->
            decision_ev := Tid.Set.add tid !decision_ev;
            if commit then commit_ev := Tid.Set.add tid !commit_ev
            else abort_ev := Tid.Set.add tid !abort_ev
        | Wal.Begin _ | Wal.Operation _ | Wal.Truncate_intent _ -> ()
        | Wal.Checkpoint _ ->
            (* Checkpoints never intersect 2PC: {!Sharded_database.checkpoint}
               refuses to run while any cross-shard transaction is between
               prepare and completion, so no [Prepare] can be live here. *)
            ())
      logs.(s);
    (* In-doubt set in deterministic first-[Prepare] order, so the
       resolution records recovery appends land in a reproducible order. *)
    let listed = Hashtbl.create 8 in
    in_doubt.(s) <-
      List.filter_map
        (function
          | Wal.Prepare tid
            when Hashtbl.mem pending tid && not (Hashtbl.mem listed tid) ->
              Hashtbl.add listed tid ();
              Some tid
          | _ -> None)
        logs.(s)
  done;
  {
    in_doubt;
    commit_evidence = !commit_ev;
    abort_evidence = !abort_ev;
    decision_evidence = !decision_ev;
    phase2_evidence = !phase2_ev;
  }

type resolution = { tid : Tid.t; commit : bool }

let resolutions a ~shard =
  List.map
    (fun tid -> { tid; commit = Tid.Set.mem tid a.commit_evidence })
    a.in_doubt.(shard)

let pp_resolution ppf { tid; commit } =
  Fmt.pf ppf "%a->%s" Tid.pp tid (if commit then "commit" else "abort")

(* ------------------------------------------------------------------ *)
(* Audit trail                                                         *)

type evidence = Decision_record | Phase2_record | Presumed

let evidence_name = function
  | Decision_record -> "decision"
  | Phase2_record -> "phase2"
  | Presumed -> "presumed"

type resolution_event = {
  ev_shard : int;
  ev_tid : Tid.t;
  ev_commit : bool;
  ev_evidence : evidence;
}

let evidence_of a tid =
  (* A surviving [Decision] frame is the strongest witness; a phase-2
     outcome record proves the decision existed even if the decision
     frame itself was on a lost shard; no witness at all is the
     presumed-abort default. *)
  if Tid.Set.mem tid a.decision_evidence then Decision_record
  else if Tid.Set.mem tid a.phase2_evidence then Phase2_record
  else Presumed

let resolution_events a =
  List.concat
    (List.init (Array.length a.in_doubt) (fun shard ->
         List.map
           (fun tid ->
             {
               ev_shard = shard;
               ev_tid = tid;
               ev_commit = Tid.Set.mem tid a.commit_evidence;
               ev_evidence = evidence_of a tid;
             })
           a.in_doubt.(shard)))
