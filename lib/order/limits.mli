(** The limit sets of §3.4: [X_sync ⊆ X_co ⊆ X_async].

    These are the three specifications that characterize implementability
    (Theorem 1): a specification [Y] admits a general / tagged / tagless
    protocol iff [X_sync ⊆ Y] / [X_co ⊆ Y] / [X_async ⊆ Y].

    Membership tests operate on abstract user-view runs:
    - every complete run is in [X_async];
    - a run is in [X_co] when no pair of messages violates causal ordering
      ([x.s ▷ y.s ⟹ ¬(y.r ▷ x.r)]);
    - a run is in [X_sync] when its time diagram can be drawn with vertical
      message arrows, equivalently (§3.4, after [18]) when the message graph
      is acyclic, in which case a numbering [T : M → ℕ] with
      [x.h ▷ y.f ⟹ T(x) < T(y)] exists. *)

type violation = {
  cycle : int list;
      (** Messages forming the offending structure: for a causal violation
          the pair [[x; y]] with [x.s ▷ y.s] and [y.r ▷ x.r]; for a sync
          violation the message cycle (a "crown"). *)
  reason : string;
}

val is_async : Run.Abstract.t -> bool
(** Always [true]: [X_async] is the ground set. Provided for symmetry and
    used when a table over all three sets is produced. *)

val check_causal : Run.Abstract.t -> (unit, violation) result

val is_causal : Run.Abstract.t -> bool
(** Equivalent to [Result.is_ok (check_causal r)], computed over the run's
    {!Run.Abstract.rows} (no violation reported). *)

val check_sync : Run.Abstract.t -> (int array, violation) result
(** On success returns a numbering [T] (indexed by message) witnessing the
    SYNC condition. *)

val is_sync : Run.Abstract.t -> bool
(** Equivalent to [Result.is_ok (check_sync r)], computed over the run's
    {!Run.Abstract.rows} (no witness produced): it is
    [acyclic_message_graph ~with_sr:true r]. *)

val acyclic_message_graph : with_sr:bool -> Run.Abstract.t -> bool
(** Whether {!Run.Abstract.message_rows} [~with_sr r] is acyclic, by
    Kahn's algorithm over its set bits. With [~with_sr:false] this is
    the one-queue FIFO test of {!Lattice}. *)

type cls = Sync | Causal_only | Async_only
(** The strongest limit set a run belongs to: [Sync] means
    [r ∈ X_sync]; [Causal_only] means [r ∈ X_co - X_sync]; [Async_only]
    means [r ∈ X_async - X_co]. *)

val classify : Run.Abstract.t -> cls

val cls_to_string : cls -> string

val pp_violation : Format.formatter -> violation -> unit
