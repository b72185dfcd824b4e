(** The SBox — the paper's statistical estimator component (Section 6).

    Given the GUS describing the sampling process and the sampled result
    tuples' [(lineage, f)] stream, it produces the unbiased estimate, an
    unbiased variance estimate (via the Ŷ_S correction of Section 6.3) and
    confidence intervals / quantile bounds (Section 6.4).

    {b Live projections.}  The [gus] an estimator runs on spans either
    the full lineage schema of its input or the plan's live-relation
    projection ({!Gus_analysis.Lint.analysis.live}): the relations that
    carry sampling randomness, in schema order.  The SBox finds their
    columns by name and runs the [2^k] moment passes over the [k] live
    relations only; every dropped relation's Theorem-1 coefficients are
    exact zeros, so the estimate and variance are bit-identical to the
    full [2^n]-pass run.  A [gus] over a subset that drops a relation
    with sampling randomness is the caller's error and gives a wrong
    variance. *)

type report = {
  gus : Gus_core.Gus.t;  (** the design the estimate ran on *)
  n_tuples : int;  (** result tuples consumed *)
  total_f : float;  (** Σ f over the sample *)
  estimate : float;  (** total_f / a *)
  y_hat : float array;
      (** unbiased estimates of the y_S moments, indexed by subset masks
          over [gus.rels] *)
  variance : float;  (** Theorem-1 variance with Ŷ plugged in, clamped ≥ 0 *)
  variance_raw : float;  (** before clamping (can be negative from noise) *)
  stddev : float;
}

val of_pairs : gus:Gus_core.Gus.t -> (int array * float) array -> report
(** Core entry point.  Lineage arrays must align with [gus.rels]. *)

val of_relation :
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  Gus_relational.Relation.t ->
  report
(** Raises [Invalid_argument] unless [gus.rels] is the relation's lineage
    schema or a projection of it. *)

val report_of_acc :
  ?pool:Gus_util.Pool.t -> gus:Gus_core.Gus.t -> Moments.Acc.t -> report
(** Finalize a streaming accumulator into a full report.  Non-destructive:
    the accumulator can keep absorbing tuples and be reported again — the
    checkpoint primitive the online estimators build on.  [?pool] is
    forwarded to {!Moments.Acc.finalize}. *)

val of_plan :
  ?pool:Gus_util.Pool.t ->
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  Gus_relational.Database.t ->
  Gus_util.Rng.t ->
  Gus_core.Splan.t ->
  report
(** Streaming twin of [exec] + {!of_relation}: the plan's result tuples
    are folded straight into a {!Moments.Acc} via
    {!Gus_core.Splan.fold_stream} — no result relation, no pairs array.
    Same seed ⇒ same tuples and bit-identical [estimate]/[total_f]/
    [n_tuples] as the materializing path (moment sums can differ in final
    bits from reduction order).  With [?pool], chunk-parallel feeding
    (when the streamable suffix is RNG-free) and pooled moment passes.
    [gus] spans the plan's lineage schema or its live projection, as for
    {!of_relation}: over a live projection the moment passes group on
    the live columns of the native lineages, which is how estimation
    works past the dense [2^n] wall. *)

val y_hat_of_moments : gus:Gus_core.Gus.t -> float array -> float array
(** The Section-6.3 unbiased correction: raw sample moments [Y] →
    unbiased [Ŷ], solved top-down from the full subset.  When some
    [b'_S = 0] (the pair probability vanishes, e.g. WOR with n ≤ 1) the
    moment is unrecoverable and the entry is set to 0 with a warning
    logged. *)

val interval : ?coverage:float -> Gus_stats.Interval.method_ -> report -> Gus_stats.Interval.t
(** Default coverage 0.95. *)

val quantile : report -> float -> float
(** Normal-approximation [QUANTILE(SUM(f), q)] bound. *)

val subsampled :
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  target:int ->
  seed:int ->
  Gus_relational.Relation.t ->
  report
(** Section-7 efficient estimator: the estimate uses the whole sample, but
    the y_S moments come from a lineage-keyed multidimensional Bernoulli
    subsample of ≈[target] tuples, analyzed by compacting the subsampler's
    composed GUS onto [gus].  The subsampler samples every lineage
    relation, so [gus] must span the relation's full lineage schema. *)

val stream :
  ?seed:int ->
  ?pool:Gus_util.Pool.t ->
  Gus_relational.Database.t ->
  Gus_core.Splan.t ->
  f:Gus_relational.Expr.t ->
  report * Gus_analysis.Rewrite.result
(** Analyze the plan, then estimate it end to end via {!of_plan} over
    its live projection ({!Gus_analysis.Rewrite.result.live}) — the
    whole pipeline without ever materializing the sampled result, at any
    plan width.  The report's [gus] and [y_hat] span the live relations
    only.  Raises {!Gus_analysis.Rewrite.Unsupported} on plans outside
    the GUS theory, and when the {e live} set alone exceeds the dense
    width ({!Gus_util.Subset.max_universe} relations). *)

val exact : Gus_relational.Database.t -> Gus_core.Splan.t -> f:Gus_relational.Expr.t -> float
(** Ground truth: run the sample-free skeleton and sum [f]. *)

val covariance :
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  g:Gus_relational.Expr.t ->
  Gus_relational.Relation.t ->
  float
(** Unbiased estimate of Cov(X_f, X_g) for two SUM estimates over the same
    sample, via the bilinear y^{fg}_S moments (same Theorem-1 structure,
    same Ŷ correction). *)

type ratio_report = {
  ratio_estimate : float;  (** X_f / X_g *)
  ratio_variance : float;  (** delta-method approximation, clamped ≥ 0 *)
  ratio_stddev : float;
  numerator : report;
  denominator : report;
}

val ratio : gus:Gus_core.Gus.t -> f:Gus_relational.Expr.t -> g:Gus_relational.Expr.t ->
  Gus_relational.Relation.t -> ratio_report
(** AVG(e) = ratio with [f = e], [g = 1] (paper Section 9's delta-method
    extension): Var(f/g) ≈ (Var f − 2R·Cov + R²·Var g)/µ_g².  Raises
    [Invalid_argument] when the denominator estimate is 0. *)

val avg : gus:Gus_core.Gus.t -> f:Gus_relational.Expr.t -> Gus_relational.Relation.t -> ratio_report

type multi_report = {
  labels : string array;
  reports : report array;
  cov : float array array;
      (** estimated covariance matrix of the SUM estimates; [cov.(i).(i)]
          is report [i]'s (unclamped) variance *)
}

val multi :
  gus:Gus_core.Gus.t ->
  fs:(string * Gus_relational.Expr.t) list ->
  Gus_relational.Relation.t ->
  multi_report
(** Joint analysis of several SUM aggregates over one sample: estimates
    plus their full covariance matrix (pairwise bilinear moments, each with
    the unbiased Ŷ correction). *)

val linear_combination : multi_report -> float array -> float * float
(** [(estimate, stddev)] of [Σ w_i·SUM_i]: the estimate is the weighted
    sum, the variance is [wᵀ·cov·w] (clamped at 0).  Since SUM-aggregates
    form a vector space (the paper's Section 4.1 observation), this prices
    any derived linear metric — profit = revenue − cost, say — without
    re-scanning the sample. *)
