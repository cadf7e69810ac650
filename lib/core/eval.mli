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

    Two matchers are provided. The {e compiled} evaluator (the default
    behind {!find_match}/{!holds}/{!satisfies}) stages the predicate once
    into a bit-matrix matching plan over {!Mo_order.Run.Abstract.relations}:
    candidate messages for each variable are narrowed by row intersections,
    with most-constrained-variable-first ordering for the boolean queries.
    The original backtracking interpreter is kept verbatim as the
    differential reference ([*_ref]); the two agree byte-for-byte (see
    test/test_eval_fast.ml). *)

val find_match :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> int array option
(** An assignment [a] (variable index → message index) making [B] true, if
    any. The lexicographically least one, as the reference returns. *)

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

val predicate : compiled -> Forbidden.t

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

    The compiled plans evaluated directly against relation rows owned by
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
      out as {!Mo_order.Monitor.live} and {!Mo_order.Monitor.rows}: slot
      sets of [Array.length live] words of
      {!Mo_order.Monitor.word_bits} slots, relation section [k] of slot
      [x] at [rows.(x).(k * Array.length live ..)], in the
      {!Mo_order.Run.Abstract.masks} section order. [src]/[dst]/[color]
      are per-slot attributes with [-1] for unknown (an unknown attribute
      satisfies no guard). *)
end

(** {1 Reference interpreter}

    The pre-compilation backtracking matcher, kept as the differential
    baseline and for bench B14's "before" arm. *)

val find_match_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> int array option

val find_matches_ref :
  ?distinct:bool ->
  ?limit:int ->
  Forbidden.t ->
  Mo_order.Run.Abstract.t ->
  int array list

val holds_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool

val satisfies_ref :
  ?distinct:bool -> Forbidden.t -> Mo_order.Run.Abstract.t -> bool
