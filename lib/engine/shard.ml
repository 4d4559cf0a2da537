type t = {
  index : int;
  wal : Wal.t;
  db : Durable_database.t;
  lock : Mutex.t;  (* serialises engine calls; never held across a force *)
}

let create ?record_history ~index ~wal objs =
  { index; wal; db = Durable_database.create ?record_history ~wal objs; lock = Mutex.create () }

let of_db ~index ~wal db = { index; wal; db; lock = Mutex.create () }
let index t = t.index
let wal t = t.wal
let db t = t.db
let database t = Durable_database.database t.db
let metrics t = Database.metrics (database t)

let with_lock t f = Mutex.protect t.lock f
