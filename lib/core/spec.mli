(** Serial specifications of atomic objects (Section 3.2).

    The paper models [Spec(X)] as a prefix-closed set of operation
    sequences, conveniently presented as the language of an I/O automaton
    whose actions are the operations of [X].  We present specifications as
    transition systems over an abstract state: [respond s inv] folds over
    every legal (response, next-state) pair for invocation [inv] in state
    [s], building no list of them.  Operations may be {e partial}
    ([respond] folds over no pair for some states) and
    {e non-deterministic} (more than one pair).

    [Spec(X)] — the prefix-closed sequence set — is recovered as the set of
    operation sequences executable from [initial]; with non-determinism a
    sequence denotes the {e set} of states it can reach, which is exactly
    what the analyses in {!Explore} need. *)

module type S = sig
  type state

  (** Object name, e.g. ["BA"]; used as [Op.obj] in rendered operations. *)
  val name : string

  val initial : state
  val equal_state : state -> state -> bool
  val compare_state : state -> state -> int
  val pp_state : Format.formatter -> state -> unit

  (** [respond s inv k c acc] folds [k] over every pair [(r, s')] such
      that the operation [[inv, r]] is legal in state [s] and may leave
      the object in state [s']: it calls [k c r s' acc] once per pair,
      threading the accumulator, and returns [acc] itself when [inv] has
      no legal response in [s] (a partial operation).  The context [c]
      lets a caller pass a top-level [k] and what it needs, so a step
      builds no closure. *)
  val respond : state -> Op.invocation -> ('c -> Value.t -> state -> 'a -> 'a) -> 'c -> 'a -> 'a

  (** A finite sample of the operation alphabet, used by the bounded
      decision procedures and by history generators.  It should exercise
      every behaviourally distinct operation class of the type (each ADT
      documents why its sample is adequate). *)
  val generators : Op.t list
end

(** A specification presented as one object: the object's name beside
    the type's module.  [name] is the module's [S.name] unless the spec
    was {!rename}d. *)
type t = Packed : { name : string; m : (module S with type state = 's) } -> t

val pack : (module S with type state = 's) -> t
val name : t -> string

(** The module's generators, tagged with {!name}: re-tagged (a fresh
    list) only for a renamed spec. *)
val generators : t -> Op.t list

(** [rename spec x] is the same specification presented as an object named
    [x]; used to instantiate several objects of one type, e.g. accounts
    ["BA0"], ["BA1"], ….  It allocates one block whatever the type: the
    renamed spec shares the type's module, and {!generators} re-tags the
    operations only when asked. *)
val rename : t -> string -> t

(** {2 State-sets}

    A non-deterministic specification reaches a {e set} of states.  It is
    represented as a sorted ([compare_state]), duplicate-free list: no
    per-type [Set] instance is needed, so a recovery manager holding one
    costs what the states themselves cost. *)

(** [step_states (module S) sts op] is the state-set reached by executing
    [op] from every state of [sts] (empty if [op] is legal in none). *)
val step_states : (module S with type state = 's) -> 's list -> Op.t -> 's list

(** [after_states (module S) sts ops] folds {!step_states} over [ops];
    [sts] need not be sorted.  It is {!after_fold} over a list. *)
val after_states : (module S with type state = 's) -> 's list -> Op.t list -> 's list

(** A state-set part way through {!after_fold}'s sequence. *)
type 's walk

(** [after_fold (module S) fold sts seq] is {!after_states} over the
    operations [fold] visits in [seq], oldest first: [fold step w seq]
    must call [step] on each in turn, threading the walk, as
    [List.fold_left] does over a list.  While the set holds one state, a
    step whose operation has exactly one successor writes it in place and
    allocates nothing; a step with several successors falls back to
    {!step_states}, and one with none leaves [[]].  A deterministic walk
    allocates the walk and the answer's one cell (none when the state
    ends as it began), whatever the length of [seq]. *)
val after_fold :
  (module S with type state = 's) ->
  (('s walk -> Op.t -> 's walk) -> 's walk -> 'seq -> 's walk) ->
  's list ->
  'seq ->
  's list

(** [state_response (module S) sts inv] folds over the legal responses
    to [inv] from every state of [sts] and answers with the one distinct
    response (by [Value.equal]), {!no_response} when there is none (a
    partial operation) or {!several_responses} when there are two or
    more.  The marks are compared by [==]; no spec answers with either.
    The fold allocates nothing of its own, so an invocation of a
    deterministic type builds no list of its one response. *)
val state_response : (module S with type state = 's) -> 's list -> Op.invocation -> Value.t

val no_response : Value.t
val several_responses : Value.t

(** [state_responses (module S) sts inv] is the set of legal responses
    to [inv] from any state of [sts], sorted and deduplicated: [[]] or
    [[r]] as {!state_response} answers, and only for several responses
    a second walk that collects and sorts them.  It allocates only the
    answer's cells. *)
val state_responses : (module S with type state = 's) -> 's list -> Op.invocation -> Value.t list

(** [legal spec ops] — is the operation sequence [ops] in [Spec(X)]
    (executable from the initial state)? *)
val legal : t -> Op.t list -> bool

(** [responses spec ops inv] is the set of legal responses to [inv] after
    the sequence [ops] (deduplicated), i.e. all [r] with
    [ops · [inv,r] ∈ Spec]. *)
val responses : t -> Op.t list -> Op.invocation -> Value.t list
