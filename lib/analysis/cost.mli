(** Static cost/variance model over an SOA-rewritten plan.

    Everything here is a pure function of the GUS design (and the
    {!Dataflow} facts for group-count estimation) — no data access.

    {b Dead relations.}  A relation is {e dead} (design-inert) when the
    second-order probabilities ignore it: [b_{T∪{i}} = b_T] for all [T] —
    the Prop.-6 product-form factor of an unsampled relation (or a p = 1
    Bernoulli) satisfies φ(1) = φ(0).  Every coefficient [c_S] with [S]
    touching a dead relation is exactly [0.0], so the estimator only runs
    the [2^k] moment passes over the [k] live relations
    ({!Gus_core.Symalg.live_mask}, {!Gus_core.Symalg.project}). *)

type report = {
  n_rels : int;
  passes : int;  (** total moment passes: 2ⁿ − 1 *)
  skipped : int;  (** passes with provably-zero coefficients *)
  est_groups : float;  (** expected lineage-group count (≥ 1) *)
  predicted_cost : float;  (** (passes − skipped) · est_groups *)
  variance_bound : float;
      (** Theorem-1 worst case for f ≥ 0:
          [Var/E² ≤ Σ_S max(0, c_S)/a² − 1]; [infinity] when [a = 0] *)
  dead : int;
      (** dead-relation bitmask, the complement of
          {!Gus_core.Symalg.live_mask} (0 = every relation live) *)
  cls : Absdom.Cls.t;  (** GUS class of the overall design *)
}

val analyze_sym : facts:Dataflow.table -> Gus_core.Symalg.t -> report
(** Requires the facts of the {e same} plan the design was rewritten from
    (only the root fact is consulted).  Never enumerates [2^n]: the dead
    set is the structural complement of the live mask, and the variance
    bound either enumerates the coefficients over the {e projected} live
    universe — bit-identical to a dense enumeration over all [2^n]
    entries, since the dead-touching ones are exact zeros and the rest
    come out of the same per-bit passes in the same order — or collapses
    to the closed form [Σ c_S⁺ = a] for provably-nonnegative designs.
    Dense-fallback representations always enumerate. *)

val pp : Format.formatter -> report -> unit
