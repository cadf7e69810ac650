(** Evaluating forbidden predicates over runs.

    [B] {e holds} in a run when some instantiation of its variables by
    messages of the run satisfies every conjunct and guard; the run then
    violates the specification [X_B].

    Instantiations are {e injective} by default: distinct variables denote
    distinct messages. The paper quantifies plainly over [M], but its
    predicates only read correctly under distinctness — the SYNC crown
    [x1.s ▷ x2.r ∧ x2.s ▷ x1.r] would be "satisfied" by [x1 = x2 = x]
    through the tautology [x.s ▷ x.r], making [X_sync] empty. Pass
    [~distinct:false] to get the plain reading.

    A predicate compiles once into a staged matching plan over relation
    rows in the {!Mo_order.Run.Abstract.rows} layout: candidate messages
    for each variable are narrowed by row intersections, one word at a
    time, with most-constrained-variable-first ordering for the boolean
    queries. One search serves runs of every size and the streaming
    monitors ({!Masked}), whose must-relation rows share the layout. A
    plain backtracking interpreter kept with the test support is the
    differential reference; the two agree byte-for-byte (see
    test/test_eval_fast.ml). *)

val find_match :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> int array option
(** An assignment [a] (variable index → message index) making [B] true, if
    any: the lexicographically least one. *)

val find_matches :
  ?distinct:bool ->
  ?limit:int ->
  Forbidden.t ->
  Mo_order.Run.Abstract.t ->
  int array list
(** Up to [limit] (default 1000) distinct assignments, in lexicographic
    order. *)

val holds : ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
(** [B] is true somewhere in the run. *)

val satisfies :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
(** The run belongs to [X_B]: no instantiation satisfies [B]. *)

val check_assignment :
  Forbidden.t -> Mo_order.Run.Abstract.t -> int array -> bool
(** Does this specific assignment satisfy all conjuncts and guards? *)

(** {1 Compile-once fast path}

    Callers evaluating one predicate against many runs (the model checker,
    the service layer) compile once and reuse the plan. A [compiled] value
    is immutable and safe to share across domains. *)

type compiled

val compile : Forbidden.t -> compiled

val find_match_c :
  ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> int array option

val find_matches_c :
  ?distinct:bool ->
  ?limit:int ->
  compiled ->
  Mo_order.Run.Abstract.t ->
  int array list

val holds_c : ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> bool

val satisfies_c : ?distinct:bool -> compiled -> Mo_order.Run.Abstract.t -> bool

(** {1 Matching over a monitor's slot rows}

    The same search evaluated directly against relation rows owned by
    someone else — in practice the streaming frontier of
    {!Mo_order.Monitor}, whose [live]/[rows]/attribute arrays have
    exactly this shape. No run value, no allocation per query but the
    witness: a [matcher] carries reusable scratch, so one per monitor
    (they are single-threaded, like the monitor itself). *)

module Masked : sig
  type matcher

  val make : ?distinct:bool -> compiled -> matcher
  (** [distinct] defaults to [true], as the predicate evaluators. *)

  val find :
    matcher ->
    live:int array ->
    rows:int array array ->
    src:int array ->
    dst:int array ->
    color:int array ->
    int array option
  (** The first satisfying assignment (variable index → slot index) over
      the slots in [live], in the fast plan's order with candidates
      taken in ascending slot order, if any. [live] and [rows] are laid
      out as the [live] field of {!Mo_order.Run.Abstract.shape} and
      {!Mo_order.Run.Abstract.rows}: slot sets of [Array.length live]
      words of {!Mo_order.Run.Abstract.word_bits} slots, relation
      section [k] of slot [x] at [rows.(x).(k * Array.length live ..)].
      [src]/[dst]/[color] are per-slot attributes with [-1] for unknown
      (an unknown attribute satisfies no guard). *)
end
