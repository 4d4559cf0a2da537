open Tm_core

type violation = {
  label : string;
  cut : int;
  invariant : string;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "%s (state %d) [%s]: %s" v.label v.cut v.invariant v.detail

type report = {
  states : int;
  atomicity_checked : int;
  cross_txns : int;
  evidence_checked : int;
  tally : (string * int) list;
  violations : violation list;
}

let ok r = r.violations = []

let pp_report ppf r =
  Fmt.pf ppf "%d states (%d atomicity-checked" r.states r.atomicity_checked;
  if r.cross_txns > 0 then
    Fmt.pf ppf ", %d cross-shard txns, %d evidence checks" r.cross_txns
      r.evidence_checked;
  List.iter (fun (what, n) -> Fmt.pf ppf ", %d %s" n what) r.tally;
  if ok r then Fmt.pf ppf "), 0 violations"
  else
    Fmt.pf ppf "), %d VIOLATIONS@,%a" (List.length r.violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

(* ------------------------------------------------------------------ *)
(* Log → history: the history "as replayed" after a crash.             *)

(* Reconstruct the post-crash history a recovered prefix stands for:
   committed transactions' operations in log (execution) order with their
   commit events in commit-record order, and every unfinished transaction
   — a crash loser — explicitly aborted (recovery implicitly aborts it).
   The latest checkpoint's committed base is installed as one synthetic
   committed transaction at the head (it is the initial state of the
   post-checkpoint world); its live snapshot seeds the in-flight
   transactions.  The result feeds the paper's dynamic-atomicity checker:
   the logged interleaving of transactions must serialize in every order
   consistent with commit precedence. *)
let history_of_log recs =
  let base = Tid.of_int (match Wal.max_tid recs with Some m -> Tid.to_int m + 1 | None -> 0) in
  (* Steps newest first. *)
  let exec tid ops = List.rev_map (fun op -> History.Exec (tid, op)) ops in
  let step steps = function
    | Wal.Checkpoint cp ->
        (* The scan restarts at each checkpoint, from its base and its live snapshot. *)
        List.concat_map (fun (tid, ops) -> exec tid ops) (List.rev cp.Wal.live)
        @ (History.Commit base :: exec base cp.Wal.committed)
    | Wal.Operation (tid, op) -> History.Exec (tid, op) :: steps
    | Wal.Commit tid -> History.Commit tid :: steps
    | Wal.Abort tid -> History.Abort tid :: steps
    | Wal.Begin _ | Wal.Truncate_intent _ | Wal.Prepare _ | Wal.Decision _ ->
        (* Prepare/Decision are 2PC coordination records: they change
           no object state and carry no operations, so the replayed
           history sees through them (the transaction's outcome is its
           local Commit/Abort record, appended by the protocol or by
           recovery's in-doubt resolution). *)
        steps
  in
  (* Crash losers: recovery implicitly aborts every unfinished txn. *)
  History.of_steps ~abort_unfinished:true (List.rev (List.fold_left step [] recs))

(* ------------------------------------------------------------------ *)
(* Recordings.                                                         *)

(* Per shard: its stored bytes, the (global tick, end offset) of every
   write (one frame each) and the (global tick, bytes durable) of every
   completed barrier, in order. *)
type recording = {
  bytes : string array;
  writes : (int * int) list array;
  forces : (int * int) list array;
}

let bytes r = r.bytes

let of_drive ~shards:n ~rebuild drive =
  if n < 1 then invalid_arg "Crash.of_drive: shards < 1";
  (* Every write (one appended frame) and every completed force is
     stamped with one global clock under a single lock, so both the true
     cross-shard append order and each shard's durability frontier over
     time are known exactly — the two ingredients every legal crash state
     is made of. *)
  let glock = Mutex.create () and clock = ref 0 in
  let writes = Array.make n [] and forces = Array.make n [] and size = Array.make n 0 in
  let stamp f =
    Mutex.lock glock;
    incr clock;
    f ();
    Mutex.unlock glock
  in
  let stores = Array.init n (fun _ -> Storage.memory ()) in
  let wals =
    Array.mapi
      (fun s store ->
        let on_write ~pos len =
          if pos <> size.(s) then invalid_arg "Crash.of_drive: a recording cannot be rewritten";
          stamp (fun () ->
              size.(s) <- pos + len;
              writes.(s) <- (!clock, size.(s)) :: writes.(s))
        and on_force () = stamp (fun () -> forces.(s) <- (!clock, size.(s)) :: forces.(s)) in
        Disk_wal.wal (Disk_wal.create ~shard:s (Storage.probe ~on_write ~on_force store)))
      stores
  in
  drive (Sharded_database.create ~wals (rebuild ()));
  {
    bytes = Array.map Storage.read_all stores;
    writes = Array.map List.rev writes;
    forces = Array.map List.rev forces;
  }

(* The records of a whole recorded log. *)
let records_of image = (Result.get_ok (Wal.Codec.decode_all image)).Wal.Codec.records

(* Every value, or the first error. *)
let all results =
  match Array.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> Error e
  | None -> Ok (Array.map Result.get_ok results)

(* Shard [s]'s log as the loader restores it from [image], or why not. *)
let load_shard s image =
  match Disk_wal.load ~shard:s (Storage.of_string image) with
  | exception exn -> Error (Fmt.str "shard %d: load raised %s" s (Printexc.to_string exn))
  | Error c -> Error (Fmt.str "shard %d: load refused: %a" s Wal.Codec.pp_corruption c)
  | Ok dw -> Ok dw

let load images = all (Array.mapi load_shard images)

(* ------------------------------------------------------------------ *)
(* Generators.                                                         *)

type state = { label : string; logs : string array }

type generator = {
  reference : Wal.record list array;
  runs : state Seq.t list;
      (* each run only grows: prefix stability holds within it *)
  check : state -> Wal.record list array -> (string * string) list;
      (* the generator's own check of the records a state loads to *)
  expect : Sharded_database.t -> Tid.Set.t -> (string * string) list;
      (* the generator's own check of a recovered state *)
  refused : string;  (* the invariant a state the loader refuses violates *)
  tally : (string * int) list;
  cuts : bool;
      (* every state keeps a prefix of each reference log, so what a
         transaction with commit evidence must retain is known *)
}

let generator ?(check = fun _ _ -> []) ?(expect = fun _ _ -> []) ?(refused = "replay-legality")
    ?(tally = []) ?(cuts = true) reference runs =
  { reference; runs; check; expect; refused; tally; cuts }

let is_prefix ~equal xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> equal x y && go (xs, ys)
  in
  go (xs, ys)

let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp)
let pp_tids = Fmt.(list ~sep:comma Tid.pp)

let commit_tids recs =
  List.filter_map (function Wal.Commit tid -> Some tid | _ -> None) recs

let prefix image len = if len = String.length image then image else String.sub image 0 len

(* Every shard's bytes as they stood before global tick [tau]: up to the
   end of its last write before it. *)
let before r tau =
  Array.mapi
    (fun s ws -> prefix r.bytes.(s) (List.fold_left (fun e (t, e') -> if t < tau then e' else e) 0 ws))
    r.writes

let append_points r =
  let ticks =
    List.sort compare (List.concat_map (List.map fst) (Array.to_list r.writes))
  in
  generator
    (Array.map records_of r.bytes)
    [
      Seq.mapi
        (fun i tau -> { label = Fmt.str "append %d" i; logs = before r tau })
        (List.to_seq (ticks @ [ max_int ]));
    ]

let byte_cuts r =
  let reference = Array.map records_of r.bytes in
  (* Each barrier acknowledges the commits among the frames it made
     durable: [acked s cut] is what the last barrier a cut of shard [s]
     at byte [cut] kept acknowledged. *)
  let commit_ends =
    Array.map2
      (fun recs ws ->
        List.filter_map (function Wal.Commit _, (_, e) -> Some e | _ -> None) (List.combine recs ws))
      reference r.writes
  in
  let acked s cut =
    let durable = List.fold_left (fun d (_, b) -> if b <= cut then max d b else d) 0 r.forces.(s) in
    List.length (List.filter (fun e -> e <= durable) commit_ends.(s))
  in
  (* A crash inside a group-commit batch admits a leading part of it,
     never a subset with holes; and once a barrier acknowledged a commit,
     no later cut may lose it. *)
  let check st logs =
    List.concat
      (List.mapi
         (fun s recs ->
           let all = commit_tids reference.(s) and recovered = commit_tids recs in
           let acked = acked s (String.length st.logs.(s)) in
           (if is_prefix ~equal:Tid.equal recovered all then []
            else
              [
                ( "batch-prefix",
                  Fmt.str "recovered commit order [%a] is not a prefix of [%a]" pp_tids
                    recovered pp_tids all );
              ])
           @
           if List.length recovered >= acked then []
           else
             [
               ( "acked-durability",
                 Fmt.str "recovers %d commits but %d were acknowledged at the last barrier"
                   (List.length recovered) acked );
             ])
         (Array.to_list logs))
  in
  let run s =
    let bytes = r.bytes.(s) in
    Seq.init
      (String.length bytes + 1)
      (fun cut ->
        (* The other shards keep what they wrote before this shard's next
           frame. *)
        let next = List.find_opt (fun (_, e) -> e > cut) r.writes.(s) in
        let logs = before r (Option.fold ~none:max_int ~some:fst next) in
        logs.(s) <- String.sub bytes 0 cut;
        { label = Fmt.str "bytes shard %d byte %d (%d acked)" s cut (acked s cut); logs })
  in
  (* A pure prefix of a well-formed log can only tear the tail — there
     is no later intact frame to resynchronise on — so a load that
     refuses one misclassified it as interior corruption. *)
  generator reference ~check ~refused:"torn-tail"
    ~tally:
      [
        ("barriers", Array.fold_left (fun n fs -> n + List.length fs) 0 r.forces);
        ("acked", Array.fold_left (fun n ends -> n + List.length ends) 0 commit_ends);
      ]
    (List.init (Array.length r.bytes) run)

(* Every distinct forced frontier, as (first tick it holds, bytes each
   shard's last completed force made durable). *)
let frontiers r =
  let latest ticks = Array.fold_left (List.fold_left (fun m (t, _) -> max m t)) 0 ticks in
  let clock = max (latest r.writes) (latest r.forces) in
  let frontier tau =
    Array.map
      (List.fold_left (fun acc (t, b) -> if t < tau then max acc b else acc) 0)
      r.forces
  in
  let rec distinct prev tau acc =
    if tau > clock + 1 then List.rev acc
    else
      let sizes = frontier tau in
      if Some sizes = prev then distinct prev (tau + 1) acc
      else distinct (Some sizes) (tau + 1) ((tau, sizes) :: acc)
  in
  distinct None 0 []

let frontier_image r sizes = Array.mapi (fun s b -> prefix r.bytes.(s) b) sizes

(* At every global tick, every shard retains exactly what its last
   completed force covered — all unforced appends lost everywhere at once.
   This sweeps the 2PC force ordering itself: a decision forced before its
   participants' prepares, or a completion trusted before the decision,
   shows up as surviving evidence with missing operations. *)
let forced_frontiers r =
  generator
    (Array.map records_of r.bytes)
    [
      Seq.map
        (fun (tau, sizes) ->
          {
            label = Fmt.str "forced tick %d [%a]" tau Fmt.(array ~sep:comma int) sizes;
            logs = frontier_image r sizes;
          })
        (List.to_seq (frontiers r));
    ]

(* The last forced frontier that leaves a prepare in doubt with its
   commit decision forced: what 2PC's lazy phase 2 makes routine. *)
let in_doubt r =
  List.fold_left
    (fun found (tau, sizes) ->
      let logs = frontier_image r sizes in
      if
        List.exists
          (fun (r : Two_phase.resolution) -> r.commit && r.evidence = Two_phase.Decision_record)
          (Two_phase.analyze (Array.map Disk_wal.wal (Result.get_ok (load logs))))
      then Some { label = Fmt.str "in-doubt forced tick %d" tau; logs }
      else found)
    None (frontiers r)

let only name = List.filter (fun (op : Op.t) -> String.equal op.Op.obj name)

(* The recovered objects whose committed operations differ from
   [want shard obj], as (shard, object, recovered, wanted). *)
let differing db want =
  List.concat
    (List.mapi
       (fun p sh ->
         List.filter_map
           (fun o ->
             let obj = Atomic_object.name o and got = Atomic_object.committed_ops o in
             let w = want p obj in
             if List.equal Op.equal got w then None else Some (p, obj, got, w))
           (Database.objects (Shard.database sh)))
       (Array.to_list (Sharded_database.shards db)))

let loser_diff invariant ~got ~want =
  if Tid.Set.equal got want then []
  else
    [
      ( invariant,
        Fmt.str "losers {%a}, expected {%a}" pp_tids (Tid.Set.elements got) pp_tids
          (Tid.Set.elements want) );
    ]

(* [Wal.truncate_to_checkpoint] on a [Disk_wal] log promises that no byte offset of its
   journal + install sequence can make reload misclassify the log or
   change the recovered state.  Run the compaction on a copy of each
   shard's log, record every write it makes, and cut each one: the file
   it lands on with each byte prefix of the write in place (the memory
   backend's [write] is atomic, so the torn states of the file backend's
   write-then-shrink are constructed explicitly), and, when the write
   shrinks the file, the file it leaves.  The loader must never refuse
   one: every such state is a legal crash point.  A log whose
   compaction drops nothing makes no write and has no states.  From an
   older version this is the incremental upgrade: a crash at any offset
   leaves the readable old log (torn debris of the new version rolled
   back), a committed journal to redo, or the installed image in the
   write version; a log holding 2PC records was never v1, so it has no
   upgrade from v1. *)
let rewrite ~from r =
  let upgrade = from <> Wal.Codec.write_version in
  let name, invariant =
    if upgrade then (Fmt.str "upgrade-v%d" from, "upgrade-atomicity")
    else ("truncate", "truncate-atomicity")
  in
  let reference = Array.map records_of r.bytes in
  let run s =
    let recs = reference.(s) in
    let v1 = from = Wal.Codec.v1 in
    if v1 && List.exists Wal.Codec.v2_only_record recs then None
    else
      let old_bytes =
        if upgrade then Wal.Codec.encode_all ~version:from ~shard:(if v1 then 0 else s) recs
        else r.bytes.(s)
      in
      (* Each write's offset and the file before it, newest first. *)
      let store = Storage.of_string old_bytes and writes = ref [] in
      let on_write ~pos _ = writes := (pos, Storage.read_all store) :: !writes in
      let copy = Result.get_ok (Disk_wal.load ~shard:s (Storage.probe ~on_write store)) in
      ignore (Wal.truncate_to_checkpoint (Disk_wal.wal copy) : int);
      (* A write leaves the file the next one lands on. *)
      let _, cuts =
        List.fold_left
          (fun (after, cuts) (pos, before) -> (before, (pos, before, after) :: cuts))
          (Storage.read_all store, [])
          !writes
      in
      let states i (pos, before, after) =
        let stale n =
          let n = min n (String.length before) in
          String.sub before n (String.length before - n)
        in
        let cut k = (Fmt.str "write %d byte %d" i k, String.sub after 0 (pos + k) ^ stale (pos + k)) in
        Seq.append
          (Seq.init (String.length after - pos + 1) cut)
          (if String.length after < String.length before then
             Seq.return (Fmt.str "write %d shrunk" i, after)
           else Seq.empty)
      in
      if cuts = [] then None
      else
        Some
          (Seq.map
             (fun (what, bytes) ->
               let logs = Array.copy r.bytes in
               logs.(s) <- bytes;
               { label = Fmt.str "%s shard %d %s" name s what; logs })
             (Seq.concat (Seq.mapi states (List.to_seq cuts))))
  in
  (* Every state must recover exactly what the pre-rewrite logs replay
     to: no acknowledged commit is lost to a compaction or migration. *)
  let replayed = Array.map Wal.replay reference in
  let exp_losers =
    Array.fold_left (fun acc (_, l) -> Tid.Set.union acc l) Tid.Set.empty replayed
  in
  let expect db losers =
    List.map
      (fun (p, obj, got, want) ->
        ( invariant,
          Fmt.str "shard %d %s recovered [%a], expected [%a]" p obj pp_ops got pp_ops
            want ))
      (differing db (fun p obj -> only obj (fst replayed.(p))))
    @ loser_diff invariant ~got:losers ~want:exp_losers
  in
  generator reference ~expect ~refused:invariant ~cuts:false
    (List.filter_map run (List.init (Array.length r.bytes) Fun.id))

let given ~reference states =
  generator (Array.map records_of reference) (List.map Seq.return states)

let states g = Seq.concat (List.to_seq g.runs)

(* ------------------------------------------------------------------ *)
(* The battery.                                                        *)

let recovery_failure what = function
  | `Refused e -> Fmt.str "%s: %s" what e
  | `Raised exn -> Fmt.str "%s raised %s" what (Printexc.to_string exn)
  | `Failed e -> Fmt.str "%s failed: %a" what Recovery.pp_error e

(* A restart: each shard's loaded log, recovered. *)
let recover ~rebuild = function
  | Error e -> Error (`Refused e)
  | Ok dws -> (
      match Sharded_database.recover ~wals:(Array.map Disk_wal.wal dws) ~rebuild () with
      | exception exn -> Error (`Raised exn)
      | Error e -> Error (`Failed e)
      | Ok (db, losers) -> Ok (db, losers, dws))

let ops_of_tid tid recs =
  List.filter_map
    (function Wal.Operation (t, op) when Tid.equal t tid -> Some op | _ -> None)
    recs

(* The tids [logs] prove committed: a [Decision { commit = true }]
   anywhere, or a [Commit] after a [Prepare] on one shard.  The battery
   reads the records itself rather than the engine's {!Two_phase}, so it
   never checks the engine's analysis against itself. *)
let commit_evidence logs =
  let proven = ref Tid.Set.empty in
  let prove tid = proven := Tid.Set.add tid !proven in
  Array.iter
    (fun recs ->
      let prepared = Hashtbl.create 8 in
      List.iter
        (function
          | Wal.Prepare tid -> Hashtbl.replace prepared tid ()
          | Wal.Commit tid when Hashtbl.mem prepared tid -> prove tid
          | Wal.Decision { tid; commit = true } -> prove tid
          | _ -> ())
        recs)
    logs;
  !proven

(* One crash state.  The 2PC checks are evidence-driven: whether the state
   carries commit evidence for a transaction decides what recovery must do
   with it — no reference to what the full run "intended", only to what
   the logs prove.  [prev] threads each shard's committed sequence along
   the run for prefix stability. *)
let battery ~env ~rebuild ~g ~prepared ~prev ~atomicity_checked ~evidence_checked
    logs loaded =
  let shard_ids = List.init (Array.length logs) Fun.id in
  let evidence = commit_evidence logs in
  (* Evidence implies complete survival: every participant's operations
     and Prepare are forced before the coordinator's Decision is even
     appended, so no legal crash state can hold commit evidence while
     missing any committed operation.  A rewritten log keeps a committed
     transaction's operations in its checkpoint instead, and its
     generator checks the recovered state exactly. *)
  let survival =
    if not g.cuts then []
    else
      List.concat_map
        (fun tid ->
          incr evidence_checked;
          List.filter_map
            (fun p ->
              let got = ops_of_tid tid logs.(p) in
              let want = ops_of_tid tid g.reference.(p) in
              if List.equal Op.equal got want then None
              else
                Some
                  ( "global-atomicity",
                    Fmt.str
                      "txn %a has commit evidence but shard %d retains %d/%d of its \
                       operations"
                      Tid.pp tid p (List.length got) (List.length want) ))
            shard_ids)
        (Tid.Set.elements (Tid.Set.inter prepared evidence))
  in
  match recover ~rebuild loaded with
  | Error e -> survival @ [ ("replay-legality", recovery_failure "recovery" e) ]
  | Ok (db, losers, dws) ->
      let wals = Array.map Disk_wal.wal dws in
      (* What each log holds now: read back if recovery appended to it. *)
      let resolved =
        Array.mapi (fun p w -> if Wal.length w = List.length logs.(p) then logs.(p) else Wal.records w) wals
      in
      let committed = Array.map (fun recs -> fst (Wal.replay recs)) resolved in
      (* With evidence, every shard whose Prepare survived must end with the
         transaction committed; without evidence (presumed abort) no shard
         anywhere may commit it.  "No shard installs a cross-shard
         transaction another shard aborted" is this check. *)
      let outcome =
        List.concat_map
          (fun tid ->
            let has recs rc = List.exists (Wal.equal_record rc) recs in
            let with_evidence = Tid.Set.mem tid evidence in
            List.filter_map
              (fun p ->
                let committed_on = has resolved.(p) (Wal.Commit tid) in
                if with_evidence && has logs.(p) (Wal.Prepare tid) && not committed_on
                then
                  Some
                    ( "global-atomicity",
                      Fmt.str
                        "txn %a has commit evidence but participant shard %d did \
                         not install it"
                        Tid.pp tid p )
                else if (not with_evidence) && committed_on then
                  Some
                    ( "global-atomicity",
                      Fmt.str
                        "txn %a has no commit evidence (presumed abort) but shard %d \
                         installed it"
                        Tid.pp tid p )
                else None)
              shard_ids)
          (Tid.Set.elements prepared)
      in
      let legality =
        List.filter_map
          (fun o ->
            let ops = Atomic_object.committed_ops o in
            if Spec.legal (Atomic_object.spec o) ops then None
            else
              Some
                ( "replay-legality",
                  Fmt.str "%s replays illegally: [%a]" (Atomic_object.name o) pp_ops
                    ops ))
          (Sharded_database.objects db)
      in
      let atomicity =
        let verdicts =
          List.map (fun p -> Atomicity.dynamic_atomic env (history_of_log resolved.(p))) shard_ids
        in
        let well_formed = function Atomicity.Ill_formed _ -> false | _ -> true in
        if List.for_all well_formed verdicts then incr atomicity_checked;
        List.concat
          (List.mapi
             (fun p -> function
               | Atomicity.Ok -> []
               | Atomicity.Ill_formed _ ->
                   [ ("dynamic-atomicity", Fmt.str "shard %d: replayed history not well-formed" p) ]
               | v -> [ ("dynamic-atomicity", Fmt.str "shard %d: %a" p Atomicity.pp_verdict v) ])
             verdicts)
      in
      (* One more surviving byte can only extend committed work (this is
         also what makes a checkpoint record a faithful snapshot of its
         prefix). *)
      let stability =
        List.filter_map
          (fun p ->
            if is_prefix ~equal:Op.equal prev.(p) committed.(p) then begin
              prev.(p) <- committed.(p);
              None
            end
            else
              Some
                ( "prefix-stability",
                  Fmt.str "shard %d committed [%a] does not extend the previous state's [%a]"
                    p pp_ops committed.(p) pp_ops prev.(p) ))
          shard_ids
      in
      (* Recovered state == replay of the resolved logs: ties the outcome
         records recovery appended to the state it actually installed. *)
      let consistency =
        List.map
          (fun (p, obj, got, want) ->
            ( "replay-consistency",
              Fmt.str "shard %d %s recovered [%a] but its resolved log replays [%a]" p
                obj pp_ops got pp_ops want ))
          (differing db (fun p obj -> only obj committed.(p)))
      in
      (* Recovery completed the protocol, it did not merely patch state:
         nothing is left in doubt, and a post-recovery fuzzy checkpoint,
         journaled truncation and second load and recovery of what the
         stores then hold reproduce the same state. *)
      let idempotence =
        let left = Two_phase.analyze wals in
        (if left = [] then []
         else
           [
             ( "idempotence",
               Fmt.str "resolved logs still hold in-doubt prepares: %a"
                 Fmt.(list ~sep:comma Two_phase.pp_resolution)
                 left );
           ])
        @
        (ignore (Sharded_database.checkpoint db);
         Array.iter (fun w -> ignore (Wal.truncate_to_checkpoint w)) wals;
         match
           recover ~rebuild
             (load (Array.map (fun dw -> Storage.read_all (Disk_wal.storage dw)) dws))
         with
         | Error e -> [ ("idempotence", recovery_failure "second recovery" e) ]
         | Ok (db2, losers2, _) ->
             List.map
               (fun (p, obj, got, want) ->
                 ( "idempotence",
                   Fmt.str "shard %d %s: [%a] after the first recovery, [%a] after the \
                            second"
                     p obj pp_ops want pp_ops got ))
               (differing db2 (fun _ obj ->
                    Atomic_object.committed_ops (Sharded_database.find_object db obj)))
             @ loser_diff "idempotence" ~got:losers2 ~want:losers)
      in
      survival @ outcome @ legality @ atomicity @ stability @ consistency
      @ g.expect db losers @ idempotence

let prepared_tids logs =
  Array.fold_left
    (List.fold_left (fun acc -> function Wal.Prepare t -> Tid.Set.add t acc | _ -> acc))
    Tid.Set.empty logs

(* One shard image as the loader read it: the records of the log it
   restored, the bytes of [image] they span when they are its leading
   frames (else -1), and the loaded log until a recovery takes it. *)
type read = {
  image : string;
  recs : (Wal.record list, string) result;
  span : int;
  mutable fresh : Disk_wal.t option;
}

(* Read shard [s]'s [image] through the loader.  One that resolved no
   journal left its store untouched and, unless it rolled one back,
   restored the image's intact frames: they are decoded from the image,
   past the [span] of the previous read [prev] when [image] extends it.
   Any other log is read back from its store. *)
let read s prev image =
  let read_back dw = { image; recs = Ok (Wal.records (Disk_wal.wal dw)); span = -1; fresh = Some dw } in
  match load_shard s image with
  | Error e -> { image; recs = Error e; span = -1; fresh = None }
  | Ok dw when Storage.read_all (Disk_wal.storage dw) != image -> read_back dw
  | Ok dw -> (
      let from, before =
        match prev with
        | { image = p; recs = Ok recs; span; _ } when span >= 0 && String.starts_with ~prefix:p image
          ->
            (span, recs)
        | _ -> (0, [])
      in
      let kept = Wal.length (Disk_wal.wal dw) in
      match Wal.Codec.decode_all (String.sub image from (String.length image - from)) with
      | Ok d when List.length before + List.length d.records = kept ->
          { image; recs = Ok (before @ d.records); span = from + d.clean_bytes; fresh = Some dw }
      | Ok d when List.length before + List.length d.records > kept ->
          (* rolled back at the intent of a journal cut short *)
          let recs = List.filteri (fun i _ -> i < kept) (before @ d.records) in
          { image; recs = Ok recs; span = -1; fresh = Some dw }
      | _ -> read_back dw)

let enumerate ~rebuild g =
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (rebuild ())) in
  let prepared = prepared_tids g.reference in
  let states = ref 0 and atomicity_checked = ref 0 and evidence_checked = ref 0 in
  let violations = ref [] in
  (* Each shard's last read: consecutive states mostly differ in one
     shard, by a byte or a frame more. *)
  let reads =
    Array.make (Array.length g.reference) { image = ""; recs = Ok []; span = 0; fresh = None }
  in
  let records s image =
    let r = reads.(s) in
    if r.image != image && not (String.equal r.image image) then reads.(s) <- read s r image;
    reads.(s).recs
  in
  (* Shard [s]'s log for a recovery: the one its read loaded, if free. *)
  let take s =
    match reads.(s) with
    | { fresh = Some dw; _ } as r ->
        r.fresh <- None;
        Ok dw
    | r -> load_shard s r.image
  in
  List.iter
    (fun run ->
      let prev = Array.make (Array.length g.reference) [] in
      let last = ref None in
      Seq.iter
        (fun state ->
          let cut = !states in
          incr states;
          let flag (invariant, detail) =
            violations := { label = state.label; cut; invariant; detail } :: !violations
          in
          match all (Array.mapi records state.logs) with
          | Error e -> flag (g.refused, e)
          | Ok logs ->
              (* Cuts inside one frame decode to the same records: such a
                 state is counted but not recovered again. *)
              let same =
                match !last with
                | Some l ->
                    Array.length l = Array.length logs
                    && Array.for_all2 (List.equal (fun x y -> x == y || Wal.equal_record x y)) l logs
                | None -> false
              in
              if not same then begin
                last := Some logs;
                List.iter flag (g.check state logs);
                List.iter flag
                  (battery ~env ~rebuild ~g ~prepared ~prev ~atomicity_checked
                     ~evidence_checked logs
                     (all (Array.init (Array.length logs) take)))
              end)
        run)
    g.runs;
  {
    states = !states;
    atomicity_checked = !atomicity_checked;
    cross_txns = Tid.Set.cardinal prepared;
    evidence_checked = !evidence_checked;
    tally = g.tally;
    violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Corruption sweep.                                                   *)

(* Flip one bit in every byte of the recorded log (bit index rotates with
   the offset, so all eight positions are exercised) and demand that every
   corruption is either {e detected} — an interior [Corrupt_log] — or
   {e contained} — decoded as a torn tail whose records are a prefix of
   the originals.  Any decode that silently yields different records is a
   violation: checksummed framing failed. *)
let corruption_sweep r =
  let interior = ref 0 and tail_losses = ref 0 and harmless = ref 0 in
  let flips = ref 0 in
  let violations = ref [] in
  Array.iteri
    (fun s bytes ->
      let original = records_of bytes in
      for off = 0 to String.length bytes - 1 do
        let cut = !flips in
        incr flips;
        let b = Bytes.of_string bytes in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (off mod 8))));
        match Wal.Codec.decode_all (Bytes.to_string b) with
        | Error _ -> incr interior
        | Ok decoded ->
            let recs = decoded.Wal.Codec.records in
            if List.equal Wal.equal_record recs original then incr harmless
            else if is_prefix ~equal:Wal.equal_record recs original then incr tail_losses
            else
              violations :=
                {
                  label = Fmt.str "flip shard %d byte %d" s off;
                  cut;
                  invariant = "corruption-detection";
                  detail =
                    Fmt.str "decoded silently to a non-prefix record list (%d records vs %d original)"
                      (List.length recs) (List.length original);
                }
                :: !violations
      done)
    r.bytes;
  {
    states = !flips;
    atomicity_checked = 0;
    cross_txns = 0;
    evidence_checked = 0;
    tally =
      [ ("interior", !interior); ("tail-loss", !tail_losses); ("harmless", !harmless) ];
    violations = List.rev !violations;
  }
