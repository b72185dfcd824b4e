(** The SBox — the paper's statistical estimator component (Section 6).

    Given the GUS describing the sampling process and the sampled result
    tuples' lineage and aggregate values, it produces the unbiased estimate, an
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

val of_relation :
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  Gus_relational.Relation.t ->
  report
(** Raises [Invalid_argument] unless [gus.rels] is the relation's lineage
    schema or a projection of it. *)

val of_plan :
  gus:Gus_core.Gus.t ->
  f:Gus_relational.Expr.t ->
  Gus_relational.Database.t ->
  Gus_util.Rng.t ->
  Gus_core.Splan.t ->
  report
(** {!Gus_core.Splan.exec} followed by {!of_relation}: one seed, one
    sample, one set of bits.  The walk reads only [f]'s columns and the
    plan's own ([read] is [f]'s columns), so its scans gather nothing
    else.  Every online estimator ([Online], [Progressive], [Shedding])
    calls it once per estimate.  [gus] spans the plan's lineage schema
    or its live projection, as for {!of_relation}. *)

(** {1 One kernel run, several aggregates}

    Every entry point below and above runs the same feed: the sample's
    live lineage columns and [k] SUM-like values through one
    {!Moments.Acc}.  AVG is [k = 2] ([f] and [1]); a multi-aggregate
    SELECT is [k] = its distinct SUM-like values. *)

type moments
(** One kernel run: the values' totals and cross moments over a sample,
    or over some of its rows. *)

val moments :
  gus:Gus_core.Gus.t ->
  fs:Gus_relational.Expr.t array ->
  ?rows:int array ->
  Gus_relational.Relation.t ->
  moments
(** Feed the relation's rows (all, or [rows] in that order) to the
    kernel with the values [fs].  Raises [Invalid_argument] as
    {!of_relation} does. *)

val report_of : moments -> int -> report
(** The SUM report of value [i] — bit-identical to {!of_relation} on
    [fs.(i)] over the same rows. *)

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
  Gus_relational.Database.t ->
  Gus_core.Splan.t ->
  f:Gus_relational.Expr.t ->
  report * Gus_analysis.Rewrite.result
(** Analyze the plan, then estimate it end to end via {!of_plan} over
    its live projection ({!Gus_analysis.Rewrite.result.live}), at any
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

val ratio_of : moments -> int -> int -> ratio_report
(** {!ratio} of values [i] over [j] from one kernel run. *)

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
    plus their full covariance matrix (the cross moments of one kernel
    run, each with the unbiased Ŷ correction). *)

val linear_combination : multi_report -> float array -> float * float
(** [(estimate, stddev)] of [Σ w_i·SUM_i]: the estimate is the weighted
    sum, the variance is [wᵀ·cov·w] (clamped at 0).  Since SUM-aggregates
    form a vector space (the paper's Section 4.1 observation), this prices
    any derived linear metric — profit = revenue − cost, say — without
    re-scanning the sample. *)
