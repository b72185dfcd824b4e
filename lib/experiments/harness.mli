(** Shared plumbing for the experiment drivers: canonical workloads,
    Monte-Carlo trial loops, and paper-vs-measured table output. *)

module Splan = Gus_core.Splan

val section : string -> string -> unit
(** [section id title] prints the experiment banner. *)

val fcell : float -> string
(** Number formatting used across all tables. *)

val set_progress : bool -> unit
(** Opt into live progress lines on stderr ([trials d/total (p%%) elapsed
    eta], rate-limited, pool-safe) from {!trials}, {!trials_par} and
    {!map_trials_par}.  Completed trials also count into the
    [harness.trials_completed] metric whenever {!Gus_obs.Metrics} is
    collecting, progress display or not.  Off by default. *)

val query1_f : Gus_relational.Expr.t
(** The paper's running aggregate: [l_discount * (1.0 - l_tax)]. *)

val revenue_f : Gus_relational.Expr.t
(** [l_extendedprice * (1.0 - l_discount)]. *)

val query1_plan : ?bernoulli:float -> ?wor:int -> unit -> Splan.t
(** lineitem TABLESAMPLE Bernoulli × orders TABLESAMPLE WOR joined on
    orderkey, with the paper's selection [l_extendedprice > 100].
    Defaults: 10% and 1000 rows. *)

val join2_plan : p_lineitem:float -> p_orders:float -> Splan.t
(** Bernoulli on both sides of the lineitem ⋈ orders join. *)

val join3_plan : p_lineitem:float -> p_orders:float -> p_customer:float -> Splan.t
(** Three-way join lineitem ⋈ orders ⋈ customer, all Bernoulli-sampled. *)

val single_plan : p:float -> Splan.t
(** Bernoulli sample of lineitem alone. *)

type trial_stats = {
  trials : int;
  truth : float;
  mean_estimate : float;
  bias_pct : float;
  mean_rel_err_pct : float;
  rmse_over_truth_pct : float;
  mc_variance : float;
  mean_est_variance : float;
  coverage_normal : float;
  coverage_chebyshev : float;
  mean_ci_width_rel : float;  (** normal CI width / truth *)
}

val trials :
  ?trials:int ->
  ?seed:int ->
  Gus_relational.Database.t ->
  Splan.t ->
  f:Gus_relational.Expr.t ->
  trial_stats
(** Repeatedly execute the plan with fresh RNGs (trial [t] seeds
    [seed + 7919·t]), estimate each run with the SBox, and aggregate
    accuracy statistics against the exact answer. *)

val trials_par :
  ?pool:Gus_util.Pool.t ->
  ?trials:int ->
  ?seed:int ->
  Gus_relational.Database.t ->
  Splan.t ->
  f:Gus_relational.Expr.t ->
  trial_stats
(** {!trials} with the trials fanned across a domain pool.  Trial [t]
    always draws from the [t]-th {!Gus_util.Rng.derive}d child of the
    master seed, trials reduce in fixed blocks of 8 merged in block order
    ({!Gus_stats.Summary.merge}), so the result is {e bit-identical} for
    every pool size — including no pool at all.  (It differs in float
    reduction order, not in any sample, from {!trials}, which keeps its
    historical additive seeding.) *)

val map_trials_par :
  ?pool:Gus_util.Pool.t ->
  trials:int ->
  seed:int ->
  (Gus_util.Rng.t -> int -> 'a) ->
  'a array
(** Generic parallel trial loop for drivers with bespoke per-trial
    bodies: [body rng t] runs trial [t] with the [t]-th child stream of
    the master seed, and the results land in trial order.  Each slot is
    written independently, so the output is bit-identical for every pool
    size. *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock seconds. *)

val median_time_us : ?repeats:int -> (unit -> unit) -> float
(** Median wall-clock microseconds over [repeats] runs (default 9). *)

val db_cached : scale:float -> Gus_relational.Database.t
(** Memoized TPC-H database per scale (seed fixed at 20130630 — the arXiv
    date — so every experiment sees the same data). *)
