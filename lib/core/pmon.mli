(** Compiled predicate monitors: one forbidden predicate, streamed.

    A [Pmon.t] couples the predicate-agnostic frontier automaton
    ({!Mo_order.Monitor}) with a compiled matching plan ({!Eval.Masked})
    and evaluates the predicate over the must-happened-before relation
    after every event. The first match is final — once [B] holds on the
    must-relation it holds in every completion, so the verdict is sticky
    and reported with the index of the event that made it unavoidable.

    Detection is {e earliest among relation-level monitors}: a violation
    fires at the first prefix whose must-relation satisfies [B], the
    same prefix at which the offline evaluator run over the must-closure
    would first say so (the oracle of test/test_monitor.ml). It is never
    speculative — no verdict depends on events that have not happened.
    See DESIGN.md §3h for the gap between this and full
    information-theoretic earliest detection (which is not computable in
    bounded memory).

    Monitors are single-threaded values; shard by ordering key and give
    each key its own monitor (see [Mo_workload.Stream]). The [compiled]
    plan is immutable and safely shared across all of them. *)

type t

type verdict = {
  at : int;
      (** 0-based index of the event at which the match became
          unavoidable *)
  witness : int array;  (** variable index → message id *)
}

val create :
  ?window:int -> ?distinct:bool -> nprocs:int -> Eval.compiled -> t
(** [window] (default {!Mo_order.Monitor.default_window}) bounds
    resident state as in {!Mo_order.Monitor.create}; [distinct] defaults
    to [true] as the offline evaluators. *)

val exact : ?distinct:bool -> Eval.compiled -> Mo_order.Run.t -> t
(** A monitor sized for [run] so that no slot is ever retired: verdicts
    are exactly the offline ones on every linear extension of [run].
    The window is one slot per message, so runs beyond 62 messages keep
    rows of more than one word.
    @raise Invalid_argument when the run exceeds
    {!Mo_order.Monitor.max_window} messages. *)

val send :
  t -> msg:int -> src:int -> dst:int -> ?color:int -> unit -> verdict option
(** Feed [msg.s]; returns the (sticky) verdict. Raises as
    {!Mo_order.Monitor.send}. *)

val deliver : t -> msg:int -> verdict option
(** Feed [msg.r]; returns the (sticky) verdict. Raises as
    {!Mo_order.Monitor.deliver}. *)

val verdict : t -> verdict option

val monitor : t -> Mo_order.Monitor.t
(** The underlying frontier, for accounting ([events], [pending],
    [frontier_bytes]). *)

val feed_events :
  t -> Mo_order.Run.t -> Mo_order.Event.t list -> verdict option
(** Feed a linear extension of [run] (message attributes are read from
    the run), stopping the predicate search — but not the stream — at
    the first violation. *)

val feed_run : ?distinct:bool -> Eval.compiled -> Mo_order.Run.t -> verdict option
(** [feed_events] of {!exact} over {!Mo_order.Run.linearize}. *)
