(* The WAL fold as it was when [Wal.replay] and [Wal.plan] were two
   separate passes: the oracle that the crash property compares the
   library's [replay], [max_tid], [checkpoint_of] and [plan] against,
   now that all four are views of one fold.  Profiling and the
   per-record comments are left out; the code is otherwise unchanged. *)

open Tm_core
open Tm_engine.Wal

(* One pass shared by [replay], [fuzzy_checkpoint] and [max_tid]: fold the
   log into committed operations (commit order), the per-transaction logs
   of unfinished transactions, and the tid high-water mark.  A checkpoint
   record summarises its whole prefix, so scanning restarts from its
   snapshot (only the high-water mark is carried monotonically through). *)
type scan = {
  mutable committed_rev : Op.t list;
  ops_of : (Tid.t, Op.t list) Hashtbl.t;  (* newest first; unfinished txns *)
  seen : (Tid.t, unit) Hashtbl.t;
  finished : (Tid.t, unit) Hashtbl.t;
  mutable hwm : int;  (* first tid strictly above every tid in the log *)
}

let scan recs =
  let st =
    {
      committed_rev = [];
      ops_of = Hashtbl.create 16;
      seen = Hashtbl.create 16;
      finished = Hashtbl.create 16;
      hwm = 0;
    }
  in
  let note tid = st.hwm <- max st.hwm (Tid.to_int tid + 1) in
  List.iter
    (fun r ->
      match r with
      | Begin tid ->
          note tid;
          Hashtbl.replace st.seen tid ()
      | Operation (tid, op) ->
          note tid;
          Hashtbl.replace st.seen tid ();
          Hashtbl.replace st.ops_of tid
            (op :: Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[])
      | Commit tid ->
          note tid;
          st.committed_rev <-
            Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[] @ st.committed_rev;
          Hashtbl.remove st.ops_of tid;
          Hashtbl.replace st.finished tid ()
      | Abort tid ->
          note tid;
          Hashtbl.remove st.ops_of tid;
          Hashtbl.replace st.finished tid ()
      | Truncate_intent _ -> ()
      | Prepare tid ->
          (* presumed abort: prepared but undecided is a loser *)
          note tid;
          Hashtbl.replace st.seen tid ()
      | Decision { tid; commit = _ } -> note tid
      | Checkpoint cp ->
          st.committed_rev <- List.rev cp.committed;
          Hashtbl.reset st.ops_of;
          Hashtbl.reset st.seen;
          Hashtbl.reset st.finished;
          List.iter
            (fun (tid, ops) ->
              note tid;
              Hashtbl.replace st.seen tid ();
              if ops <> [] then Hashtbl.replace st.ops_of tid (List.rev ops))
            cp.live;
          st.hwm <- max st.hwm cp.next_tid)
    recs;
  st

let replay recs =
  let st = scan recs in
  let losers =
    Hashtbl.fold
      (fun tid () acc -> if Hashtbl.mem st.finished tid then acc else Tid.Set.add tid acc)
      st.seen Tid.Set.empty
  in
  (List.rev st.committed_rev, losers)

let max_tid recs =
  let st = scan recs in
  if st.hwm = 0 then None else Some (Tid.of_int (st.hwm - 1))

let fuzzy_checkpoint ?(next_tid = 0) recs =
  let st = scan recs in
  let live =
    Hashtbl.fold
      (fun tid () acc ->
        if Hashtbl.mem st.finished tid then acc
        else
          (tid, List.rev (Option.value (Hashtbl.find_opt st.ops_of tid) ~default:[]))
          :: acc)
      st.seen []
    |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
  in
  { committed = List.rev st.committed_rev; live; next_tid = max next_tid st.hwm }
