(** End-to-end execution of dialect queries: parse → plan → sample →
    SBox → answers with accuracy information. *)

type cell = {
  label : string;
  value : float;  (** the estimate (or quantile bound for QUANTILE items) *)
  stddev : float;
  ci95_normal : Gus_stats.Interval.t;
  ci95_chebyshev : Gus_stats.Interval.t;
}

type group_row = {
  keys : string list;  (** rendered grouping-key values *)
  group_cells : cell list;
}

type result = {
  cells : cell list;  (** whole-query aggregates (empty under GROUP BY) *)
  groups : group_row list;
      (** one row per group witnessed in the sample.  Per-group analysis
          is sound: group membership is a selection on tuple content,
          which commutes with the GUS operator (Prop. 5).  Groups whose
          every contributing tuple was dropped by sampling are absent. *)
  n_sample_tuples : int;
  gus : Gus_core.Gus.t;
      (** the design the estimates ran on: the plan's GUS projected onto
          its live relations ({!Gus_analysis.Lint.analysis.live}) *)
  plan : Gus_core.Splan.t;
}

(** {1 EXPLAIN ANALYZE annotations} *)

type node_annot = {
  an_path : int list;  (** root-to-node child indices *)
  an_wall_ns : int;  (** wall time, inclusive of children *)
  an_rows_in : int;
  an_rows_out : int;
  an_sample : (float * float) option;
      (** Sample nodes: the sampler's own [(a, b_∅)] — its first-order
          inclusion probability and distinct-pair probability *)
  an_var_contrib : float option;
      (** Sample nodes: Theorem-1 variance term [(c_S/a²)·ŷ_S] of the
          subtree's relation subset [S], for the first aggregate *)
}

type explain = {
  ex_result : result;
  ex_nodes : node_annot list;  (** one per plan node, post-order *)
  ex_variance_raw : float option;
      (** first aggregate's estimator variance (unclamped) *)
  ex_total_ns : int;
  ex_report : Gus_estimator.Sbox.report option;
      (** first aggregate's full SBox report (the source of
          [ex_variance_raw] and the per-node variance terms) *)
}

(** {1 The typed request/response API}

    {!prepare} runs parse → plan → lint exactly once per SQL text and
    returns a reusable {!prepared} handle; {!execute} runs it any number
    of times with per-call {!params}; {!run_request} does both in one
    shot.  [Gus_service.Prepared] consumes it directly. *)

type params = {
  seed : int;  (** RNG seed for the sampling run (default 42) *)
  explain : bool;  (** collect per-node profiles ({!explain}) *)
  exact : bool;  (** also evaluate the sample-free skeleton *)
  streaming : bool;
      (** fold result tuples straight into the SBox via
          {!Gus_core.Splan.fold_stream} when the query shape allows it
          (single SUM/COUNT aggregate, no GROUP BY): no materialized
          sample, bit-identical estimate and tuple count to the
          materializing core (stddev can differ in final bits from
          moment-reduction order) *)
  pool : Gus_util.Pool.t option;
      (** forwarded to the streaming estimator's moment passes *)
}

val default_params : params
(** [{ seed = 42; explain = false; exact = false; streaming = false;
    pool = None }]. *)

type request = {
  sql : string;
  lint_config : Gus_analysis.Lint.config;
  params : params;
}

val request :
  ?seed:int ->
  ?explain:bool ->
  ?exact:bool ->
  ?streaming:bool ->
  ?pool:Gus_util.Pool.t ->
  ?lint_config:Gus_analysis.Lint.config ->
  string ->
  request
(** Build a request with {!default_params}-style defaults. *)

type prepared = {
  pr_sql : string;
  pr_query : Ast.query;
  pr_plan : Gus_core.Splan.t;
  pr_lint : Gus_analysis.Lint.report;
      (** complete static analysis; [pr_lint.analysis] carries the top GUS
          iff the plan has no [Error]-severity diagnostics *)
}

val prepare :
  ?lint_config:Gus_analysis.Lint.config ->
  Gus_relational.Database.t ->
  string ->
  prepared
(** Parse → plan → lint, without executing anything.  Self-joins are let
    through the planner so the linter reports them (GUS001) together with
    every other problem.  Raises [Parser.Error] / [Planner.Error] /
    [Lexer.Error] on malformed text; lint findings (including errors) are
    returned in [pr_lint], not raised — {!execute} raises on them. *)

val prepared_errors : prepared -> Gus_analysis.Diagnostic.t list

type response = {
  rs_result : result;
  rs_explain : explain option;  (** [Some] iff [params.explain] *)
  rs_lint : Gus_analysis.Lint.report;
  rs_exact : (string * float) list;
      (** ground truth per SELECT item; non-empty only with [params.exact]
          on a non-GROUP-BY query *)
  rs_exact_groups : (string list * (string * float) list) list;
      (** ground truth per group with [params.exact] under GROUP BY *)
  rs_streamed : bool;
      (** whether the streaming core answered this execution *)
  rs_report : Gus_estimator.Sbox.report option;
      (** the first aggregate's SBox report — [None] under GROUP BY and
          for AVG (its ratio estimator has no Theorem-1 decomposition).
          Telemetry provenance: {!top_variance_share} reads it. *)
}

val execute : Gus_relational.Database.t -> prepared -> params -> response
(** Execute a prepared query.  Every path — streamed, materializing and
    EXPLAIN — estimates on the plan's live design, whatever the plan's
    width.  Raises [Rewrite.Unsupported] (listing every [GUSxxx] error at
    once) when the prepared plan is outside the GUS theory, or when its
    live relations alone exceed {!Gus_util.Subset.max_universe} — {e
    before} any sampling work runs.  Deterministic in
    [(prepared, params.seed)]: repeated calls return bit-identical
    responses. *)

val run_request : Gus_relational.Database.t -> request -> response
(** [prepare] + [execute] in one shot — the cold path. *)

val top_variance_share : response -> (int list * string * float) option
(** The Sample node whose Theorem-1 term [(c_S/a²)·ŷ_S] dominates the
    first aggregate's variance: [(path, label, share)] with [share] the
    term's fraction of the raw variance.  A subtree holding a relation
    without sampling randomness has a zero term.  Best-effort — [None]
    when the response carries no report ({!response.rs_report}), or past
    16 live relations where the coefficient table stops being cheap.
    The serving journal records this per execution. *)

val run_exact : Gus_relational.Database.t -> string -> (string * float) list
(** Ground truth for each SELECT item, ignoring all TABLESAMPLE clauses
    (QUANTILE items report the exact aggregate).  Not defined for GROUP BY
    queries — use {!run_exact_groups}.  Unlike {!execute} with [exact],
    this never lints: skeletons of non-analyzable plans still have ground
    truth. *)

val run_exact_groups : Gus_relational.Database.t -> string -> (string list * (string * float) list) list
(** Ground truth per group for a GROUP BY query, keyed like
    {!group_row.keys}. *)

val pp_result : Format.formatter -> result -> unit

val pp_explain : Format.formatter -> explain -> unit
(** The plan tree annotated per node ([wall, in, out], plus [a], [b0] and
    [var_share] on sampling nodes), total wall time, the first aggregate's
    variance, then the ordinary {!pp_result} block. *)
