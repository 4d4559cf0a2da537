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
let history_of_records recs =
  let fresh_tid =
    match Wal.max_tid recs with Some m -> Tid.to_int m + 1 | None -> 0
  in
  (* Split at the latest checkpoint; the scan restarts there. *)
  let base_cp, tail =
    let rec latest acc pending = function
      | [] -> (acc, List.rev pending)
      | Wal.Checkpoint cp :: rest -> latest (Some cp) [] rest
      | r :: rest -> latest acc (r :: pending) rest
    in
    latest None [] recs
  in
  let h = ref History.empty in
  let touched : (Tid.t, string list) Hashtbl.t = Hashtbl.create 16 in
  let finished : (Tid.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let touch tid (op : Op.t) =
    let objs = Option.value (Hashtbl.find_opt touched tid) ~default:[] in
    if not (List.mem op.Op.obj objs) then Hashtbl.replace touched tid (op.Op.obj :: objs)
  in
  let exec tid op =
    touch tid op;
    h := History.exec tid op !h
  in
  let complete at tid =
    List.iter
      (fun obj -> h := at tid obj !h)
      (List.rev (Option.value (Hashtbl.find_opt touched tid) ~default:[]));
    Hashtbl.replace finished tid ()
  in
  (match base_cp with
  | None -> ()
  | Some cp ->
      let base = Tid.of_int fresh_tid in
      List.iter (exec base) cp.Wal.committed;
      if cp.Wal.committed <> [] then complete History.commit_at base;
      List.iter (fun (tid, ops) -> List.iter (exec tid) ops) cp.Wal.live);
  List.iter
    (fun r ->
      match r with
      | Wal.Begin _ | Wal.Checkpoint _ | Wal.Truncate_intent _
      | Wal.Prepare _ | Wal.Decision _ ->
          (* Prepare/Decision are 2PC coordination records: they change
             no object state and carry no operations, so the replayed
             history sees through them (the transaction's outcome is its
             local Commit/Abort record, appended by the protocol or by
             recovery's in-doubt resolution). *)
          ()
      | Wal.Operation (tid, op) -> exec tid op
      | Wal.Commit tid -> complete History.commit_at tid
      | Wal.Abort tid -> complete History.abort_at tid)
    tail;
  (* Crash losers: recovery implicitly aborts every unfinished txn. *)
  Hashtbl.iter
    (fun tid _ -> if not (Hashtbl.mem finished tid) then complete History.abort_at tid)
    (Hashtbl.copy touched);
  !h

(* ------------------------------------------------------------------ *)
(* Recordings.                                                         *)

type recording = {
  appends : (int * Wal.record) list array;
      (* per shard, in append order: (global tick, record) *)
  forces : (int * int) list array;
      (* per shard, in order: (global tick, records covered) of every
         completed durability barrier *)
}

let full r = Array.map (List.map snd) r.appends
let logs = full

let of_drive ~shards:n ~rebuild drive =
  if n < 1 then invalid_arg "Crash.of_drive: shards < 1";
  (* Every append and every completed force is stamped with one global
     clock under a single lock, so both the true cross-shard append order
     and each shard's durability frontier over time are known exactly —
     the two ingredients every legal crash state is made of. *)
  let glock = Mutex.create () in
  let clock = ref 0 in
  let appends = Array.make n [] and forces = Array.make n [] in
  let appended = Array.make n 0 in
  let stamp f =
    Mutex.lock glock;
    incr clock;
    f ();
    Mutex.unlock glock
  in
  let wals =
    Array.init n (fun i ->
        let w = Wal.create () in
        Wal.set_sink w
          {
            Wal.sink_append =
              (fun r ->
                stamp (fun () ->
                    appended.(i) <- appended.(i) + 1;
                    appends.(i) <- (!clock, r) :: appends.(i)));
            sink_force =
              (fun () ->
                stamp (fun () -> forces.(i) <- (!clock, appended.(i)) :: forces.(i)));
            sink_attach = (fun _ -> ());
            sink_records =
              (fun () ->
                Mutex.lock glock;
                let recs = List.rev_map snd appends.(i) in
                Mutex.unlock glock;
                recs);
            sink_rewrite =
              (fun _ -> invalid_arg "Crash.of_drive: a recording cannot be rewritten");
          };
        w)
  in
  drive (Sharded_database.create ~wals (rebuild ()));
  { appends = Array.map List.rev appends; forces = Array.map List.rev forces }

(* ------------------------------------------------------------------ *)
(* Generators.                                                         *)

type state = { label : string; logs : Wal.record list array }

(* One enumerated position: a crash state for the battery, or [None]
   when the image did not even yield one; [flags] are the generator's
   own verdicts on it, as (invariant, detail). *)
type step = {
  at : string;
  image : Wal.record list array option;
  flags : (string * string) list;
}

type generator = {
  reference : Wal.record list array;
  runs : step Seq.t list;
      (* each run only grows: prefix stability holds within it *)
  expect : Sharded_database.t -> Tid.Set.t -> (string * string) list;
      (* the generator's own check of a recovered state *)
  tally : (string * int) list;
  cuts : bool;
      (* every state keeps a prefix of each reference log, so what a
         transaction with commit evidence must retain is known *)
}

let no_expectation _ _ = []

let generator ?(expect = no_expectation) ?(tally = []) ?(cuts = true) reference runs =
  { reference; runs; expect; tally; cuts }

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

(* Every shard's records appended strictly before global tick [tau]. *)
let before r tau =
  Array.map (List.filter_map (fun (t, rc) -> if t < tau then Some rc else None)) r.appends

let append_points r =
  let ticks =
    List.sort compare (List.concat_map (List.map fst) (Array.to_list r.appends))
  in
  let taus = ticks @ [ max_int ] in
  generator (full r)
    [
      Seq.mapi
        (fun i tau ->
          { at = Fmt.str "append %d" i; image = Some (before r tau); flags = [] })
        (List.to_seq taus);
    ]

let byte_cuts r =
  let full = full r in
  let commits = ref 0 in
  let run s =
    let recs = full.(s) in
    let bytes = Wal.Codec.encode_all ~shard:s recs in
    let times = Array.of_list (List.map fst r.appends.(s)) in
    let all_commits = commit_tids recs in
    (* Each barrier acknowledges the commits among the records it
       covered, at the byte offset where the last of them ends. *)
    let ends = Array.make (List.length recs + 1) (0, 0) in
    List.iteri
      (fun k rc ->
        let off, n = ends.(k) in
        ends.(k + 1) <-
          ( off + String.length (Wal.Codec.encode ~shard:s rc),
            match rc with Wal.Commit _ -> n + 1 | _ -> n ))
      recs;
    let barriers = List.map (fun (_, k) -> ends.(k)) r.forces.(s) in
    commits := !commits + snd ends.(List.length recs);
    let acked_at cut =
      List.fold_left (fun acc (b, n) -> if b <= cut then max acc n else acc) 0 barriers
    in
    (* Cuts inside one frame decode to the same records: the state (and
       the generator's verdicts on it) is computed once per record count. *)
    let prev = ref (-1, [||]) in
    Seq.init
      (String.length bytes + 1)
      (fun cut ->
        let acked = acked_at cut in
        let at = Fmt.str "bytes shard %d byte %d (%d acked)" s cut acked in
        match Wal.Codec.decode_all (String.sub bytes 0 cut) with
        | Error c ->
            (* A pure prefix of a well-formed log can only tear the tail —
               there is no later intact frame to resynchronise on — so an
               interior-corruption verdict here is itself a bug. *)
            {
              at;
              image = None;
              flags =
                [
                  ( "torn-tail",
                    Fmt.str "prefix cut misclassified as interior corruption: %a"
                      Wal.Codec.pp_corruption c );
                ];
            }
        | Ok d ->
            let got = d.Wal.Codec.records in
            let k = List.length got in
            if k = fst !prev then { at; image = Some (snd !prev); flags = [] }
            else begin
              let tau = if k = Array.length times then max_int else times.(k) in
              let logs = Array.mapi (fun p l -> if p = s then got else l) (before r tau) in
              prev := (k, logs);
              (* A crash inside a group-commit batch admits a leading part
                 of it, never a subset with holes; and once a barrier
                 acknowledged a commit, no later cut may lose it. *)
              let recovered = commit_tids got in
              let flags =
                (if is_prefix ~equal:Tid.equal recovered all_commits then []
                 else
                   [
                     ( "batch-prefix",
                       Fmt.str "recovered commit order [%a] is not a prefix of [%a]"
                         pp_tids recovered pp_tids all_commits );
                   ])
                @
                if List.length recovered >= acked then []
                else
                  [
                    ( "acked-durability",
                      Fmt.str
                        "recovers %d commits but %d were acknowledged at the last \
                         barrier"
                        (List.length recovered) acked );
                  ]
              in
              { at; image = Some logs; flags }
            end)
  in
  let runs = List.init (Array.length full) run in
  generator full runs
    ~tally:
      [
        ("barriers", Array.fold_left (fun n fs -> n + List.length fs) 0 r.forces);
        ("acked", !commits);
      ]

(* Every distinct forced frontier, as (first tick it holds, records
   each shard's last completed force covered). *)
let frontiers r =
  let latest ticks = Array.fold_left (List.fold_left (fun m (t, _) -> max m t)) 0 ticks in
  let clock = max (latest r.appends) (latest r.forces) in
  let frontier tau =
    Array.map
      (List.fold_left (fun acc (t, k) -> if t < tau then max acc k else acc) 0)
      r.forces
  in
  let rec distinct prev tau acc =
    if tau > clock + 1 then List.rev acc
    else
      let counts = frontier tau in
      if Some counts = prev then distinct prev (tau + 1) acc
      else distinct (Some counts) (tau + 1) ((tau, counts) :: acc)
  in
  distinct None 0 []

let frontier_image full counts =
  Array.mapi (fun i k -> List.filteri (fun j _ -> j < k) full.(i)) counts

(* At every global tick, every shard retains exactly what its last
   completed force covered — all unforced appends lost everywhere at once.
   This sweeps the 2PC force ordering itself: a decision forced before its
   participants' prepares, or a completion trusted before the decision,
   shows up as surviving evidence with missing operations. *)
let forced_frontiers r =
  let full = full r in
  generator full
    [
      Seq.map
        (fun (tau, counts) ->
          {
            at = Fmt.str "forced tick %d [%a]" tau Fmt.(array ~sep:comma int) counts;
            image = Some (frontier_image full counts);
            flags = [];
          })
        (List.to_seq (frontiers r));
    ]

(* The last forced frontier that leaves a prepare in doubt with its
   commit decision forced: what 2PC's lazy phase 2 makes routine. *)
let in_doubt r =
  let full = full r in
  List.fold_left
    (fun found (tau, counts) ->
      let logs = frontier_image full counts in
      if
        List.exists
          (fun (r : Two_phase.resolution) -> r.commit && r.evidence = Two_phase.Decision_record)
          (Two_phase.analyze (Array.map Wal.of_records logs))
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
   change the recovered state.  Build every intermediate backend image
   the protocol can leave behind — the old log followed by each prefix of
   the intent + compacted-image journal; each prefix of the new image
   spliced over the full journaled file (the memory backend's [write]
   is atomic, so the torn states of the file backend's write-then-shrink
   are constructed explicitly); the installed image alone — and reload
   each through {!Disk_wal.load}, which must never refuse: every such
   state is a legal crash point.  From an older version this is the
   incremental upgrade: a crash at any offset leaves the readable old log
   (torn debris of the new version rolled back), a committed journal to
   redo, or the installed image in the write version; a log holding 2PC
   records was never v1, so it has no upgrade from v1. *)
let rewrite ~from r =
  let upgrade = from <> Wal.Codec.write_version in
  let name, invariant =
    if upgrade then (Fmt.str "upgrade-v%d" from, "upgrade-atomicity")
    else ("truncate", "truncate-atomicity")
  in
  let full = full r in
  let run s =
    let recs = full.(s) in
    let mirror = Wal.of_records recs in
    let v1 = from = Wal.Codec.v1 in
    if v1 && List.exists Wal.Codec.v2_only_record recs then None
    else if Wal.truncate_to_checkpoint mirror = 0 && not upgrade then None
    else
      let old_bytes =
        Wal.Codec.encode_all ~version:from ~shard:(if v1 then 0 else s) recs
      in
      let image = Wal.Codec.encode_all ~shard:s (Wal.records mirror) in
      let new_len = String.length image in
      let journal = Disk_wal.journal ~shard:s ~old_len:(String.length old_bytes) image in
      let journaled = old_bytes ^ journal in
      let flen = String.length journaled in
      let images =
        Seq.append
          (Seq.init
             (String.length journal + 1)
             (fun k -> ("journal", k, old_bytes ^ String.sub journal 0 k)))
          (Seq.append
             (* k = new_len is the shrink itself still pending: image
                bytes followed by the stale remainder of the file. *)
             (Seq.init (new_len + 1) (fun k ->
                  ("install", k, String.sub image 0 k ^ String.sub journaled k (flen - k))))
             (Seq.return ("done", new_len, image)))
      in
      Some
        (Seq.map
           (fun (phase, k, bytes) ->
             let at = Fmt.str "%s shard %d %s byte %d" name s phase k in
             let refused detail = { at; image = None; flags = [ (invariant, detail) ] } in
             match Disk_wal.load (Storage.of_string bytes) with
             | exception exn -> refused ("reload raised " ^ Printexc.to_string exn)
             | Error c ->
                 refused
                   (Fmt.str "reload refused a legal crash state: %a"
                      Wal.Codec.pp_corruption c)
             | Ok dw ->
                 let logs = Array.copy full in
                 logs.(s) <- Wal.records (Disk_wal.wal dw);
                 { at; image = Some logs; flags = [] })
           images)
  in
  (* Every state must recover exactly what the pre-rewrite logs replay
     to: no acknowledged commit is lost to a compaction or migration. *)
  let replayed = Array.map Wal.replay full in
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
  generator full ~expect ~cuts:false
    (List.filter_map run (List.init (Array.length full) Fun.id))

let given ~reference states =
  generator reference
    (List.map
       (fun st -> Seq.return { at = st.label; image = Some st.logs; flags = [] })
       states)

let states g =
  Seq.concat_map
    (Seq.filter_map (fun step -> Option.map (fun logs -> { label = step.at; logs }) step.image))
    (List.to_seq g.runs)

(* ------------------------------------------------------------------ *)
(* The battery.                                                        *)

let recovery_failure what = function
  | `Raised exn -> Fmt.str "%s raised %s" what (Printexc.to_string exn)
  | `Failed e -> Fmt.str "%s failed: %a" what Recovery.pp_error e

let recover ~rebuild logs =
  let wals = Array.map Wal.of_records logs in
  match Sharded_database.recover ~wals ~rebuild () with
  | exception exn -> Error (`Raised exn)
  | Error e -> Error (`Failed e)
  | Ok (db, losers) -> Ok (db, losers, wals)

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
    logs =
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
  match recover ~rebuild logs with
  | Error e -> survival @ [ ("replay-legality", recovery_failure "recovery" e) ]
  | Ok (db, losers, wals) ->
      let resolved = Array.map Wal.records wals in
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
        let hs = Array.map history_of_records resolved in
        let malformed =
          List.filter (fun p -> not (History.is_well_formed hs.(p))) shard_ids
        in
        if malformed <> [] then
          List.map
            (fun p ->
              ("dynamic-atomicity", Fmt.str "shard %d: replayed history not well-formed" p))
            malformed
        else begin
          incr atomicity_checked;
          List.filter_map
            (fun p ->
              match Atomicity.dynamic_atomic env hs.(p) with
              | Atomicity.Ok -> None
              | v -> Some ("dynamic-atomicity", Fmt.str "shard %d: %a" p Atomicity.pp_verdict v))
            shard_ids
        end
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
         truncation and second recovery reproduce the same state. *)
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
         match recover ~rebuild (Array.map Wal.records wals) with
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

let enumerate ~rebuild g =
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (rebuild ())) in
  let prepared = prepared_tids g.reference in
  let states = ref 0 and atomicity_checked = ref 0 and evidence_checked = ref 0 in
  let violations = ref [] in
  List.iter
    (fun run ->
      let prev = Array.make (Array.length g.reference) [] in
      let last = ref None in
      Seq.iter
        (fun step ->
          let cut = !states in
          incr states;
          let flag (invariant, detail) =
            violations := { label = step.at; cut; invariant; detail } :: !violations
          in
          List.iter flag step.flags;
          match step.image with
          | None -> ()
          | Some logs ->
              let same =
                match !last with
                | Some l ->
                    l == logs
                    || Array.length l = Array.length logs
                       && Array.for_all2 (List.equal Wal.equal_record) l logs
                | None -> false
              in
              if not same then begin
                last := Some logs;
                List.iter flag
                  (battery ~env ~rebuild ~g ~prepared ~prev ~atomicity_checked
                     ~evidence_checked logs)
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

(* Flip one bit in every byte of the encoded log (bit index rotates with
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
    (fun s original ->
      let bytes = Wal.Codec.encode_all ~shard:s original in
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
    (full r);
  {
    states = !flips;
    atomicity_checked = 0;
    cross_txns = 0;
    evidence_checked = 0;
    tally =
      [ ("interior", !interior); ("tail-loss", !tail_losses); ("harmless", !harmless) ];
    violations = List.rev !violations;
  }
