(** The durable engine's former name, kept only for [bench/perf]: every
    other caller uses {!Shard}.  ROADMAP item 15 moves the benchmark to
    {!Shard} and deletes this alias. *)

include module type of struct include Shard end
