open Tm_core

type evidence = Decision_record | Phase2_record | Presumed

let evidence_name = function
  | Decision_record -> "decision"
  | Phase2_record -> "phase2"
  | Presumed -> "presumed"

type resolution = { shard : int; tid : Tid.t; commit : bool; evidence : evidence }

(* A surviving [Decision] is the strongest witness; a phase-2 outcome
   record proves the decision existed even if the decision frame itself
   was on a lost shard; no witness at all is the presumed-abort
   default. *)
let resolve wals shard tid =
  let any holds = Array.exists (fun wal -> holds wal tid) wals in
  let evidence =
    if any Wal.decided then Decision_record else if any Wal.phase2 then Phase2_record else Presumed
  in
  { shard; tid; commit = any Wal.commit_evidence; evidence }

let analyze wals =
  List.concat
    (List.init (Array.length wals) (fun s -> List.map (resolve wals s) (Wal.in_doubt wals.(s))))

let pp_resolution ppf { tid; commit; _ } =
  Fmt.pf ppf "%a->%s" Tid.pp tid (if commit then "commit" else "abort")
