(** Conflict heat maps: requested x held operation matrices.

    The engine counts every blocking conflict pair as
    [tm_lock_conflicts_total{obj,requested,held}] (see
    [Lock_table.attach_metrics]).  This module folds those counters into
    one matrix per series group — an object, plus whatever extra labels
    the registry carries ([scenario], [setup], ...) — and pairs matrices
    across a chosen label so UIP(NRBC) and DU(NFC) runs of the same
    workload can be compared cell by cell: the extra conflicts a
    recovery method induces show up as hot cells that the other method's
    matrix lacks.  The bench's OBS-A section prints them live. *)

type labels = (string * string) list

type t = {
  key : labels;  (** identifying labels: [obj] plus any group labels *)
  cells : ((string * string) * int) list;
      (** [(requested, held) -> count], deterministically sorted *)
}

(** One matrix per distinct label set (minus [requested]/[held]) of the
    [tm_lock_conflicts_total] family; sorted by key. *)
val of_metrics : Metrics.t -> t list

val total : t -> int

(** {1 Comparison} *)

(** [comparison ~by maps] groups matrices that agree on every key label
    except [by] (e.g. [by:"setup"] pairs [UIP+NRBC] with [DU+NFC] for
    the same object and scenario).  Rows: shared key, then
    [(by-value, matrix)] in value order.  Groups with fewer than two
    matrices are dropped. *)
val comparison : by:string -> t list -> (labels * (string * t) list) list

val pp_comparison : by:string -> Format.formatter -> t list -> unit
