(** Sampling query plans: relational algebra plus [Sample] nodes.

    This is the AST the user (or the SQL frontend) builds.  It is executed
    directly with the concrete samplers ({!exec}); the statistical analysis
    never executes GUS operators — it rewrites the plan with {!Rewrite}. *)

open Gus_relational

type t =
  | Scan of string
  | Select of Expr.t * t
  | Project of (string * Expr.t) list * t
  | Equi_join of { left : t; right : t; left_key : Expr.t; right_key : Expr.t }
  | Theta_join of Expr.t * t * t
  | Cross of t * t
  | Distinct of t
      (** duplicate elimination by value.  Executable, but {e not}
          analyzable: DISTINCT does not commute with GUS (paper Section 9 —
          its expectation depends on more than pairwise inclusion
          probabilities), so {!Rewrite.analyze} rejects plans that sample
          below a [Distinct]. *)
  | Sample of Gus_sampling.Sampler.t * t
  | Union_samples of t * t
      (** Set union by lineage of two sampled versions of the {e same}
          expression (Prop. 7's use case: reusing two samples).  The
          rewriter checks that both sides strip to the same relational
          skeleton. *)

exception Union_lineage_mismatch of { left : string list; right : string list }
(** Raised by {!lineage_schema} when the two branches of a [Union_samples]
    disagree on their base relations — Prop. 7 requires both samples to be
    drawn from the same expression, so there is no single lineage schema to
    report.  The payload carries both schemas for diagnostics. *)

val scan : string -> t
val select : Expr.t -> t -> t
val equi_join : t -> t -> on:string * string -> t
(** Convenience for a key-equality join on two column names. *)

val sample : Gus_sampling.Sampler.t -> t -> t

val lineage_schema : t -> Lineage.schema
(** Base relations in scope, in plan order.  Raises [Lineage.Overlap] on a
    self-join and {!Union_lineage_mismatch} when the branches of a
    [Union_samples] scan different relations. *)

val strip_samples : t -> t
(** The relational skeleton: every [Sample] removed, [Union_samples]
    collapsed to one branch. *)

val equal : t -> t -> bool
(** Structural equality (expressions compared structurally). *)

val node_label : t -> string
(** The one-line operator head shared by {!pp_tree}, lint's annotated
    plan, and [--explain-analyze] (e.g. ["join l_okey = o_okey"],
    ["Bernoulli(0.1)"]). *)

val exec : ?read:string list -> Database.t -> Gus_util.Rng.t -> t -> Relation.t
(** Run the plan, sampling with the given RNG.  Execution is sequential
    and a binary node runs its right child before its left, so one seed
    names one sample: every entry point that executes a plan ({!exec},
    {!exec_profiled}) draws exactly this one.  With
    tracing on, every executed plan node is one [Gus_obs.Trace] span
    carrying its [rows_out].

    [read] names the output columns the caller will read.  With it, each
    [Scan] returns a {!Relation.restrict_columns} view of its base
    relation holding only the read set: [read] plus every column the
    plan's predicates, join keys and projections read.  Samplers,
    selections and joins then gather only those columns.  The rows, their
    order, their lineage, the RNG draws and the exceptions are the same
    as without [read], and so is every output column that [read] names;
    the other columns may be gone.  One exception differs: two join
    inputs that share a column name make the join raise
    ({!Schema.concat}) only when that column survives the cut.  Beneath a
    [Distinct] (which compares whole rows) and a [Union_samples] (whose
    branches must agree on one schema), scans keep every column, unless
    a [Project] sits in between.  Without [read] every column is kept,
    for callers that inspect whole outputs. *)

val exec_exact : ?read:string list -> Database.t -> t -> Relation.t
(** Run {!strip_samples} — the full, non-approximate answer.  [read] as
    for {!exec}. *)

type node_profile = {
  np_path : int list;  (** root-to-node child indices, [[]] at the root *)
  np_label : string;  (** {!node_label} of the node *)
  np_wall_ns : int;  (** wall time, inclusive of children *)
  np_rows_in : int;  (** sum of input cardinalities (base size for Scan) *)
  np_rows_out : int;
}

val exec_profiled :
  ?read:string list ->
  Database.t -> Gus_util.Rng.t -> t -> Relation.t * node_profile list
(** {!exec} recording one {!node_profile} per plan node, for
    [--explain-analyze]: the same walk observed a second way, so the
    same seed yields the same sample ([read] as for {!exec}).  Profiles
    come in execution post-order (a binary node's right subtree before
    its left). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering. *)

val pp_tree : Format.formatter -> t -> unit
(** Indented tree rendering, one operator per line (the Figure-4 shape). *)

val relations : t -> string list
(** Distinct base relations scanned, in first-use order.  Never raises:
    a self-join lists its relation once.  Equals
    [Array.to_list (lineage_schema plan)] wherever that does not raise. *)

val children : t -> t list
(** Direct sub-plans, left to right (empty for [Scan]). *)

val subtree : t -> int list -> t option
(** [subtree plan path] follows child indices from the root ([[]] is the
    plan itself).  This is how {!Gus_analysis.Diagnostic.t} locators resolve
    back to the offending operator. *)
