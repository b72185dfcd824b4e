(** The y_S / Y_S data moments of Theorem 1 (Section 6.3).

    For a subset [S] of the lineage schema,
    [y_S = Σ_{lineage-groups on S} (Σ_{tuples in group} f)²] — a group-by
    on the lineage ids of the relations in [S].  Computed over the full
    query result these are the exact [y_S]; computed over a sample they are
    the raw [Y_S] that the SBox corrects into unbiased [Ŷ_S].

    The group-by passes run on an allocation-free kernel: lineages are
    hashed directly under each subset mask (no restricted key arrays) into
    a reused open-addressing table, and the [2^n_rels − 1] independent
    passes fan out across a {!Gus_util.Pool} domain pool for large inputs
    — the one parallel step of an estimate; {!Acc} is sequential.
    [?pool] selects the pool (default: the shared {!Gus_util.Pool.default},
    sized by [--pool-size] or [GUSDB_DOMAINS]; without [?pool] the passes
    stay sequential on hosts whose recommended domain count is 1).
    [?par_threshold] is the tuple count below which the passes always
    run sequentially on the calling domain (default 4096).

    {b Views.}  [?view] (default: identity) embeds a small [n_rels]-subset
    kernel universe into wider lineage arrays: kernel position [i] reads
    lineage column [view.(i)] (strictly ascending, within
    [?lineage_width], which defaults to [n_rels] and must equal every
    lineage's length).  This is how every plan is estimated: the
    analyzer's live mask ({!Gus_core.Symalg.live_mask}) names the
    relations that carry sampling randomness, and a 20-relation plan with
    3 of them runs [2^3] passes over its native 20-column lineages, each
    computed entry bit-identical to what the full [2^20]-pass kernel
    would produce at the embedded mask.  Dead relations' Theorem-1
    coefficients are exact zeros, so their moments are never needed. *)

val of_pairs :
  ?pool:Gus_util.Pool.t ->
  ?par_threshold:int ->
  ?view:int array ->
  ?lineage_width:int ->
  n_rels:int ->
  (int array * float) array ->
  float array
(** [(lineage, f)] pairs → the [2^n_rels] moments, indexed by subset mask.
    Every lineage must have length [lineage_width] (default
    [n_rels]). *)

val of_relation :
  f:Gus_relational.Expr.t -> Gus_relational.Relation.t -> float array
(** Evaluate [f] on every tuple (Null ↦ 0) and delegate to {!of_pairs}
    using the relation's lineage schema. *)

val pairs_of_relation :
  f:Gus_relational.Expr.t -> Gus_relational.Relation.t -> (int array * float) array
(** The SBox input stream of Section 6.2: per-result-tuple lineage and
    aggregate contribution, read straight from the columns
    ({!Gus_relational.Relation.bind_float}); a tuple is materialized
    only when [f] does not compile over them. *)

val triples_of_relation :
  f:Gus_relational.Expr.t ->
  g:Gus_relational.Expr.t ->
  Gus_relational.Relation.t ->
  (int array * float * float) array
(** {!pairs_of_relation} for two aggregates at once: the input of
    {!bilinear_of_pairs}. *)

val total : (int array * float) array -> float
(** Σ f — the quantity the estimate scales up. *)

val bilinear_of_pairs :
  ?pool:Gus_util.Pool.t ->
  ?par_threshold:int ->
  ?view:int array ->
  ?lineage_width:int ->
  n_rels:int ->
  (int array * float * float) array ->
  float array
(** Cross moments [y^{fg}_S = Σ_{groups on S} (Σ f)(Σ g)] — the bilinear
    generalization used for covariance between two SUM aggregates over the
    same sample (and hence for AVG via the delta method).
    [bilinear_of_pairs] with [f = g] coincides with {!of_pairs}. *)

val default_par_threshold : int
(** Tuple count below which {!of_pairs}/{!bilinear_of_pairs} never
    parallelize (4096). *)

(** Streaming moments.

    [Acc.t] folds [(lineage, f)] tuples in one at a time and yields the
    same [2^n_rels] moment vector as {!of_pairs}, without ever holding a
    pairs array: per subset mask it keeps one open-addressing group table
    (restricted lineage key → running Σf), so memory is proportional to
    the number of distinct lineage groups, not tuples.  Feeding is
    sequential and exactly deterministic: group sums are added in feed
    order.  Each mask's groups are summed in first-seen order, where
    {!of_pairs} sums them in hash-slot order, so the two agree only up
    to float reassociation in the last bits. *)
module Acc : sig
  type t

  val create :
    ?hint:int ->
    ?view:int array ->
    ?lineage_width:int ->
    n_rels:int ->
    unit ->
    t
  (** [create ~n_rels ()] starts an empty accumulator over [n_rels]
      lineage columns.  [hint] pre-sizes each mask's group table (number
      of expected distinct groups, default 64); tables grow by rehashing
      as needed, so the hint only avoids early rehashes.
      [view]/[lineage_width] embed a small kernel universe into wider
      lineages exactly as in {!of_pairs} — the big streaming win, since
      {!add}'s per-tuple loop probes only the [2^n_rels − 1] live
      masks. *)

  val add : t -> int array -> float -> unit
  (** [add t lineage f] folds in one tuple.  The lineage array is read,
      not retained.  Steady-state (no table growth) this allocates
      nothing.  Raises if [Array.length lineage <> n_rels]. *)

  val add_pairs : t -> (int array * float) array -> unit
  (** [Array.iter]-style convenience over {!add}. *)

  val finalize : t -> float array
  (** The moment vector, indexed by subset mask like {!of_pairs}.  Does
      not consume the accumulator: it can keep absorbing tuples and be
      finalized again. *)

  val count : t -> int
  (** Tuples folded in so far. *)

  val total : t -> float
  (** Σ f so far. *)

  val n_rels : t -> int
end
