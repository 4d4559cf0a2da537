type t = {
  index : int;
  wal : Wal.t;
  db : Durable_database.t;
  lock : Mutex.t;  (* serialises engine calls; never held across a force *)
}

let create ~index ~wal objs =
  { index; wal; db = Durable_database.create ~wal objs; lock = Mutex.create () }

let of_db ~index ~wal db = { index; wal; db; lock = Mutex.create () }
let index t = t.index
let wal t = t.wal
let db t = t.db
let database t = Durable_database.database t.db
let metrics t = Database.metrics (database t)

(* [Mutex.protect]'s raise path without its closure: unlock [m] and
   re-raise [e] with its backtrace. *)
let release m e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock m;
  Printexc.raise_with_backtrace e bt

let run m f x y =
  Mutex.lock m;
  match f x y with r -> Mutex.unlock m; r | exception e -> release m e

let locked t f x = run t.lock f t.db x

let invoke ?choose t ~first tid ~obj inv =
  Mutex.lock t.lock;
  match
    if first then Database.adopt_txn (database t) tid;
    Durable_database.invoke ?choose t.db tid ~obj inv
  with
  | r -> Mutex.unlock t.lock; r
  | exception e -> release t.lock e
