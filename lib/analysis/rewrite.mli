(** The SOA-equivalence rewriter (Section 4): transform a plan containing
    sampling operators into an analytically equivalent plan with a single
    GUS quasi-operator on top of a sample-free relational skeleton.

    The returned {!Gus_core.Gus.t} plus the executed sample's result tuples
    are all the SBox needs (Theorem 1 + Section 6).  The rewrite never
    executes anything; it is a pure bottom-up fold using Props. 4–8.

    This module is a thin wrapper over {!Lint}: the fold itself lives in
    the linter, which collects {e every} precondition violation as a
    structured {!Diagnostic.t}.  [analyze] raises {!Unsupported} iff the
    linter reports at least one [Error]-severity finding, and the exception
    message lists {e all} of them, each with its stable [GUSxxx] code. *)

exception Unsupported of string
(** Raised for plans outside the GUS theory: with-replacement sampling
    (GUS006), WOR or block sampling over derived inputs (GUS003/GUS004),
    self-joins (GUS001), union of samples of different expressions
    (GUS002), DISTINCT above sampling (GUS007), out-of-range probabilities
    (GUS008), degenerate [a = 0] samplers (GUS009), and plans beyond the
    2ⁿ-coefficient analysis limit (GUS013).  The message contains one line
    per finding, each prefixed with its code.  Also raised, without a
    code, by forcing {!result.live} on a plan whose live relations alone
    exceed {!Gus_util.Subset.max_universe}.  The same exception as
    {!Lint.Unsupported}. *)

val render_errors : Diagnostic.t list -> string
(** The multi-line message format used for {!Unsupported} payloads. *)

type result = {
  skeleton : Gus_core.Splan.t;
      (** the input with every sampling operator removed *)
  sym : Gus_core.Symalg.t;
      (** single equivalent GUS over the skeleton's lineage, kept in
          symbolic sum-of-products form — the primary representation *)
  gus : Gus_core.Gus.t Lazy.t;
      (** dense materialization of [sym], forced on demand; raises
          {!Gus_core.Gus.Incompatible} past the dense width wall *)
  live : Gus_core.Gus.t Lazy.t;
      (** the estimator's design: [sym] projected onto its live relations
          ({!Lint.analysis.live}); raises {!Unsupported} past
          {!Gus_util.Subset.max_universe} live relations *)
  steps : (string * Gus_core.Symalg.t) list;
      (** derivation trace, leaves first — the Figure-4 walk-through *)
}

val dense : result -> Gus_core.Gus.t
(** Force the dense materialization.  Raises
    {!Gus_core.Gus.Incompatible} past {!Gus_util.Subset.max_universe}
    relations — wide plans must stay on the symbolic representation. *)

val analyze : card:(string -> int) -> Gus_core.Splan.t -> result
(** [card] resolves base-relation cardinalities (needed to translate
    [WOR(n)] into [a = n/N]); typically [fun r -> Relation.cardinality
    (Database.find db r)]. *)

val analyze_db :
  Gus_relational.Database.t ->
  Gus_core.Splan.t ->
  result

val sampler_gus :
  card:(string -> int) ->
  over:Gus_relational.Lineage.schema ->
  input:Lint.sampler_input ->
  Gus_sampling.Sampler.t ->
  Gus_core.Gus.t
(** GUS translation of one sampling operator applied to an input with the
    given lineage schema and {!Lint.sampler_input} kind (WOR and block
    sampling are only translatable over a base table or, for WOR, a
    cardinality-preserving projection of one).  Raises {!Unsupported}
    with the corresponding diagnostic codes. *)
