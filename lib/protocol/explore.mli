(** Exhaustive schedule exploration: run a protocol implementation under
    {e every} network delivery order of a small workload.

    The seeded simulator samples schedules; this module enumerates them.
    At each step the pending events are the next invoke of each process
    (application order per process is fixed) and every in-flight packet;
    the search branches on which happens next. It is a stateless search:
    instances are mutable closures, so there is nothing to snapshot, and
    each complete execution is one replay of the protocol from scratch.
    A replay follows its choice prefix, then takes the first pending
    event at every further point, recording how many were pending; the
    next schedule comes from backtracking in place — bump the deepest
    choice that has an untried alternative and cut the path after it.
    Executions are visited in depth-first order, one replay each.

    For a handful of messages this covers the entire nondeterminism of
    the paper's asynchronous network, turning the per-seed protocol tests
    into genuine model checking of the implementations — the executable
    complement to {!Inhibit}, which explores idealized enabled-set oracles
    rather than real protocols.

    Exponential, by design: use with ≤ 4-6 messages and protocols whose
    control traffic is bounded, and cap with [max_executions]. *)

type outcome = {
  run : Mo_order.Run.t option;  (** [None] when liveness failed *)
  all_delivered : bool;
  control_packets : int;
}

type stats = {
  executions : int;  (** complete executions visited *)
  truncated : bool;
      (** the budget ran out with schedules left unexplored; a search
          that visits exactly [max_executions] executions and no more
          exist is complete, not truncated *)
  replays : int;
      (** protocol replays from scratch: one per execution visited, plus
          one per prefix the parallel engine expands to shard the tree *)
  runs_built : int;
      (** {!Mo_order.Run.of_sequences} calls: one per live outcome for
          {!explore}, one per view not yet seen for the view folds *)
}

val explore :
  ?max_executions:int ->
  nprocs:int ->
  Protocol.factory ->
  Sim.op list ->
  on_outcome:(outcome -> unit) ->
  (stats, string) result
(** [Error] on protocol misbehaviour (same checks as {!Sim.execute});
    [max_executions] defaults to 200_000. Broadcast ops are expanded as in
    the simulator. *)

val view_key :
  Mo_order.Run.t -> string
(** Canonical rendering of the per-process user event sequences; two runs
    share a key iff every process saw the same view. *)

val distinct_user_views :
  ?max_executions:int ->
  nprocs:int ->
  Protocol.factory ->
  Sim.op list ->
  (Mo_order.Run.t list, string) result
(** All distinct complete user-view runs reachable under some schedule —
    the implementation's [X̄_P] restricted to this workload — in the DFS
    order of the first schedule reaching each. Executions are
    deduplicated on their per-process user sequences before any run is
    built, so only one {!Mo_order.Run.t} is built per distinct view. *)

val explore_par :
  ?pool:Mo_par.Pool.t ->
  ?max_executions:int ->
  nprocs:int ->
  Protocol.factory ->
  Sim.op list ->
  init:'acc ->
  f:('acc -> outcome -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  ('acc * stats, string) result
(** {!explore} as a parallel fold. On a one-job pool it is {!explore}'s
    walk over the whole tree. Otherwise the schedule tree is split at the
    root into choice prefixes by breadth-first expansion (at least 8
    subtrees per pool worker when the tree is deep enough, depth ≤ 4);
    each worker runs the same in-place walk inside each of its subtrees,
    never backtracking above the prefix, folds outcomes locally, and the
    per-subtree accumulators are combined with [merge] in DFS order. When
    the search completes within [max_executions], the result is identical
    for every job count (and to a sequential left fold in {!explore}'s
    outcome order). The execution budget is shared across workers, so a
    truncated search still folds exactly [max_executions] outcomes, but
    {e which} outcomes survive truncation — and which misbehaviour is
    reported when several subtrees contain one — may vary with the job
    count.
    [pool] defaults to a fresh {!Mo_par.Pool}. *)

val distinct_user_views_par :
  ?pool:Mo_par.Pool.t ->
  ?max_executions:int ->
  nprocs:int ->
  Protocol.factory ->
  Sim.op list ->
  (Mo_order.Run.t list * stats, string) result
(** {!distinct_user_views} on the parallel engine (first schedule
    reaching a view wins, in DFS order — the same list the sequential
    pass builds), also returning the search stats. *)
