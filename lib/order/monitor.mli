(** The streaming frontier automaton behind compiled predicate monitors.

    {!Online} detects the three fixed properties (FIFO, causal, SYNC).
    This module is the predicate-{e agnostic} half of the generalized
    monitor: it consumes send/delivery events one at a time and maintains
    the {e must-happened-before} relation of the stream — the set of
    endpoint pairs [x.p ▷ y.q] that hold in {e every} completion of the
    prefix seen so far — as bit-matrix rows of int words, the layout of
    {!Run.Abstract.rows} at as many words as the window needs.
    A compiled forbidden predicate evaluated over these rows (see
    [Mo_core.Eval.Masked] and [Mo_core.Pmon]) then flags a violation the
    moment a match becomes unavoidable, not when it is finally observed.

    Must-edges beyond the observed order come from pending deliveries:
    once [y] is sent, its delivery [y.r] is a {e virtual} event that every
    completion must execute at [dst y], so [u ▷ y.r] is unavoidable as
    soon as [u ▷ y.s] holds or [u] enters the causal past of [dst y].
    Virtual events never gain {e outgoing} edges (a completion may always
    schedule [y.r] last, touching nothing), so the relation grows
    monotonically toward the real one: when [y] is actually delivered its
    rows are completed in place. See DESIGN.md §3h for the unavoidability
    argument.

    State is a fixed {e window} of message slots: per-slot relation
    rows, per-slot causal stamps, and per-process past sets — no poset,
    no event history. Every slot set is
    [ceil (window / Run.Abstract.word_bits)] ints, so a window of at most
    62 slots keeps one word per row and wider windows (up to
    {!max_window}) run the same automaton over more words. No event
    allocates.
    Delivered messages are retired oldest-first when the window fills, so
    resident memory is a constant of [(window, nprocs)], independent of
    stream length. Retirement bounds what the monitor can match:
    detection is exact for matches whose messages are simultaneously
    resident (always true when [window >= nmsgs], the differential-test
    configuration). A send arriving while every slot holds an undelivered
    message raises [Invalid_argument] — size the window above the per-key
    in-flight bound. *)

type t

val max_window : int
(** 4096: the widest window. *)

val default_window : int
(** 62: the window of {!create}, [mopc monitor] and mopcd's [monitor] op
    when none is given — the widest one-word window. *)

val create : ?window:int -> nprocs:int -> unit -> t
(** [window] defaults to {!default_window}.
    @raise Invalid_argument if [window] is outside [1 .. max_window] or
    [nprocs <= 0]. *)

val window : t -> int

val nprocs : t -> int

val events : t -> int
(** Events consumed so far. *)

val pending : t -> int
(** Messages sent but not yet delivered (resident, by construction). *)

val retired : t -> int
(** Delivered messages whose slots have been recycled. *)

val send : t -> msg:int -> src:int -> dst:int -> ?color:int -> unit -> unit
(** Record [msg.s] at [src]. Message ids are arbitrary ints, unique per
    stream. [color] (default none) feeds [color(x) = c] guards.
    @raise Invalid_argument on a duplicate or out-of-range argument, or
    when the window is exhausted (every slot pending). *)

val deliver : t -> msg:int -> unit
(** Record [msg.r] at the destination given at send time.
    @raise Invalid_argument if [msg] is unknown (never sent, or already
    retired) or already delivered. *)

(** {1 The matcher's view}

    Read-only access for predicate evaluation; the arrays are owned by
    the monitor and mutated by {!send}/{!deliver}. Slots are assigned in
    arrival order and recycled, so a slot index is only meaningful
    between events. *)

val live : t -> int array
(** Occupied slots, as a slot set of
    [ceil (window / Run.Abstract.word_bits)] words. *)

val rows : t -> int array array
(** Per-slot state: [(rows t).(x)] holds slot [x]'s eight must-relation
    sections in the {!Run.Abstract.rows} order
    [ss sr rs rr ss_t sr_t rs_t rr_t], section [k] as the slot set at
    words [k * nw .. k * nw + nw - 1] where [nw = Array.length (live t)],
    followed by two private stamp sets. *)

val slot_src : t -> int array
(** Per-slot sending process ([-1] on free slots). *)

val slot_dst : t -> int array

val slot_color : t -> int array
(** Per-slot color, [-1] when the send carried none. *)

val slot_msg : t -> int -> int
(** The message id held by an occupied slot.
    @raise Invalid_argument on a free or out-of-range slot. *)

val slot_delivered : t -> int -> bool
(** Whether an occupied slot's message has been delivered.
    @raise Invalid_argument on a free or out-of-range slot, as
    {!slot_msg}. *)

val frontier_bytes : t -> int
(** Resident bytes of the frontier state — the windows, stamps, and
    per-process masks. A constant of [(window, nprocs)]: feeding more
    events never grows it (the B15 memory-ceiling bar). *)
