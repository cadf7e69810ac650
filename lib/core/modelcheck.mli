(** Parallel model checking of the Lemma 3 identities over exhaustively
    enumerated universes (experiment T2, and its [--deep] and [--vast]
    extensions).

    Every check quantifies over all runs of the checked sizes, but walks
    only one canonical representative per process/message symmetry orbit
    ({!Mo_order.Enumerate.fold_abstracts_sym_par}), weighs it by the
    exact orbit size and collapses subtrees whose contribution is already
    decided (DESIGN.md §3j). Verdicts and counts are orbit-invariant, so
    they equal a walk over every concrete run; the test suite checks this
    against the concrete walk, instantiated through {!Make}. The walk is
    sharded over a {!Mo_par.Pool} and all reductions are sums and
    conjunctions, so every job count produces identical results. *)

type counts = { runs : int; causal : int; sync : int }
(** [|X_async|], [|X_co|], [|X_sync|] restricted to the checked sizes. *)

type verdict = {
  counts : counts;
  subset_chain : bool;
      (** [X_sync ⊂ X_co ⊂ X_async]: pointwise containment and strictness
          of both inclusions over the checked universe. *)
  lemma32_equiv : bool;  (** B1, B2, B3 agree on every run. *)
  lemma32_exact : bool;  (** [X_B2] is exactly the causal runs. *)
  lemma33_unsat : bool;  (** every order-0 async form holds everywhere. *)
}

val ok : verdict -> bool
(** All four checks passed. *)

val standard_sizes : (int * int) list
(** [(nprocs, nmsgs)] of T2: 2–3 processes × 2–3 messages, 2,804 runs. *)

val deep_sizes : (int * int) list
(** {!standard_sizes} plus the 4-process and 4-message universes up to
    (4, 4) — the [--deep] tier, only practical under the parallel
    engine. *)

val universe_sizes : (int * int) list
(** {!standard_sizes} plus (4,2), (4,3) and (3,4) — the 125,768-run
    tier used by the lattice and monitor differential suites: large
    enough to separate every lattice point, small enough for tier-1
    tests. *)

val vast_sizes : (int * int) list
(** {!deep_sizes} plus (5,2), (5,3), (5,4) and (4,5) — 77,830,564
    orbit-expanded runs, ~83x the deep tier, of which the walk visits the
    ~31,700 canonical orbit representatives (bench B18). *)

val verify :
  ?pool:Mo_par.Pool.t ->
  ?sym:bool ->
  sizes:(int * int) list ->
  unit ->
  verdict
(** Enumerate every size and check each run against all four identities
    in one pass. [pool] defaults to a fresh pool with
    {!Mo_par.default_jobs} workers. [sym] is ignored: the walk is always
    quotiented; the argument remains so that callers written when it
    selected the walk still compile. *)

type monitor_report = {
  m_runs : int;  (** concrete runs checked *)
  m_violations : (string * int) list;
      (** per predicate ([fifo], [causal_b2], [crown2]): offline-violating
          runs — extension-independent, so pinnable *)
  m_agree : bool;
      (** every sampled linear extension of every run produced the same
          verdict online ({!Pmon}) as the offline evaluator *)
}

val verify_monitor :
  ?pool:Mo_par.Pool.t ->
  ?extensions:int ->
  ?seed:int ->
  ?sample:int ->
  sizes:(int * int) list ->
  unit ->
  monitor_report
(** The online-vs-offline differential pass behind
    test/test_monitor.ml: every {e concrete} run of [sizes] is streamed
    through a compiled monitor ({!Pmon.exact}, so no retirement) along
    [extensions] (default 3) random linear extensions, and the sticky
    verdict is compared with {!Eval.holds} on the completed run.
    Extension seeds are derived from [seed] and the run content, never
    from sharding, so the result is identical at every job count.
    [sample] (default 1 = everything) streams only runs whose content
    hash is divisible by it — the nightly deep-tier mode, where the
    offline counts stay exact but only a deterministic ~[1/sample] of
    the universe is monitored. *)

(** {1 Lattice placement}

    Locating a specification's run set against every point of the
    communication-model lattice ({!Mo_order.Lattice}): for each model
    [M], the cardinalities [|X_M|] and [|X_M ∩ X_B|] over the
    enumerated universe plus the two empirical inclusions [X_M ⊆ X_B]
    (running under [M] suffices for the spec) and [X_B ⊆ X_M] (the spec
    already forces [M]). All reductions are sums and conjunctions, so
    the verdict is byte-identical at every job count. *)

type place = {
  pl_model : Mo_order.Lattice.model;
  pl_members : int;  (** [|X_M|] over the checked universe *)
  pl_inter : int;  (** [|X_M ∩ X_B|] *)
  pl_model_in_spec : bool;  (** [X_M ⊆ X_B] pointwise *)
  pl_spec_in_model : bool;  (** [X_B ⊆ X_M] pointwise *)
}

type placement = {
  p_runs : int;
  p_spec : int;  (** [|X_B|] *)
  p_places : place list;  (** one per {!Mo_order.Lattice.points}, in order *)
  p_sufficient : Mo_order.Lattice.model list;
      (** the {e maximal} models with [X_M ⊆ X_B]: the strongest
          communication guarantees under which the spec always holds
          (empty when even RSC violates it). *)
  p_guarantees : Mo_order.Lattice.model list;
      (** the {e minimal} models with [X_B ⊆ X_M]: the weakest lattice
          points the spec forces (never empty — [Async] is the top). *)
}

val placement :
  ?pool:Mo_par.Pool.t ->
  ?kmax:int ->
  ?sym:bool ->
  sizes:(int * int) list ->
  Forbidden.t ->
  placement
(** One enumeration pass over [sizes], evaluating the compiled
    predicate and all lattice memberships per run (member counts are
    exact orbit sums: lattice membership is orbit-invariant). [kmax]
    (default 3) bounds the k-synchronous points swept. [sym] is ignored,
    as in {!verify}. *)

val pp_placement : Format.formatter -> placement -> unit

val count : ?pool:Mo_par.Pool.t -> sizes:(int * int) list -> unit -> counts
(** Just the limit-set cardinalities (skips the predicate evaluations);
    at the standard sizes this is the pinned [1424 ⊆ 1840 ⊆ 2804]. *)

(** {1 The walk as a parameter}

    [verify], [count] and [placement] are {!Make} applied to the
    quotiented walk. Any walk that folds every run of a size exactly
    once, with its weight, yields the same results; the test suite and
    the benches instantiate the concrete walk as their reference. *)

module type WALK = sig
  val fold :
    pool:Mo_par.Pool.t ->
    nprocs:int ->
    nmsgs:int ->
    prune:
      (Mo_order.Run.Abstract.t -> bool)
      * ('acc -> mult:int -> runs:int -> Mo_order.Run.Abstract.t -> 'acc) ->
    init:'acc ->
    f:('acc -> mult:int -> Mo_order.Run.Abstract.t -> 'acc) ->
    merge:('acc -> 'acc -> 'acc) ->
    'acc
  (** Fold [f] over the runs of every [nprocs]-process, [nmsgs]-message
      configuration; [mult] is how many runs the visited one stands for.
      [prune] is the checker's decided-subtree prune, with the contract
      of {!Mo_order.Enumerate.fold_abstracts_sym}; a walk may ignore
      it. *)
end

module Make (W : WALK) : sig
  val verify :
    ?pool:Mo_par.Pool.t -> sizes:(int * int) list -> unit -> verdict

  val count : ?pool:Mo_par.Pool.t -> sizes:(int * int) list -> unit -> counts

  val placement :
    ?pool:Mo_par.Pool.t ->
    ?kmax:int ->
    sizes:(int * int) list ->
    Forbidden.t ->
    placement
end

val pp_verdict : Format.formatter -> verdict -> unit
