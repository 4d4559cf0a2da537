(** An append-only sequence of operations: the committed log of a
    recovery manager ({!Recovery}), which an optimistic object's
    validation also walks ({!Atomic_object}), and of a log's replay
    state ({!Wal}).

    The operations sit in chunks: the first holds 8, each new one twice
    the last, up to 256, so no chunk is allocated straight in the major
    heap.  A push never copies: a full chunk is kept and a new one
    started.  A long log costs about one word per operation (a list cell
    costs three); the empty log is a constant and costs none, and a
    one-operation log is a 2-word block. *)

open Tm_core

type t

val empty : t

(** [push t op] is [t] with [op] appended; keep the result.  A log of
    fewer than two operations is replaced, and a longer one is updated in
    place and returned, so an older handle on it sees the push too. *)
val push : t -> Op.t -> t

(** [push_rev t ops] appends [ops], a newest-first list, oldest first:
    what a transaction's commit has. *)
val push_rev : t -> Op.t list -> t

(** [of_list ops] is the log of [ops], oldest first. *)
val of_list : Op.t list -> t

val length : t -> int

(** The operations, oldest first. *)
val to_list : t -> Op.t list

(** [fold f acc t] folds [f] over the operations, newest first. *)
val fold : ('a -> Op.t -> 'a) -> 'a -> t -> 'a

(** [fold_oldest f acc t] folds [f] over the operations, oldest first,
    as [List.fold_left] over {!to_list} does, with no list: the order a
    restore steps an object's state through. *)
val fold_oldest : ('a -> Op.t -> 'a) -> 'a -> t -> 'a

(** [by_object t] splits [t] by object name ([Op.obj]): each object's
    operations in their order in [t], in a log of its own, filled
    oldest first at one chunk slot per operation.  An object [t] never
    names has no entry.  The logs are fresh, shared with nothing. *)
val by_object : t -> (string, t) Hashtbl.t

(** [find_from t start p] is the first operation at position [start] or
    later ([0] the oldest) that satisfies [p], searched oldest first. *)
val find_from : t -> int -> (Op.t -> bool) -> Op.t option
