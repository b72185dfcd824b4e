(** Structured diagnostics emitted by the static plan linter ({!Lint}).

    Each diagnostic carries a stable code ([GUS001]…), a severity, a
    plan-path locator resolvable with {!Gus_core.Splan.subtree}, a short
    rendering of the offending operator, a human message and the paper
    citation for the rule it enforces.  The same codes back the
    {!Rewrite.Unsupported} messages, so every rewriter rejection maps to a
    documented code. *)

type severity = Error | Warning | Hint

type code =
  | Self_join  (** GUS001 — overlapping lineage at a join (Prop. 6) *)
  | Union_skeleton_mismatch
      (** GUS002 — union of samples of two different expressions (Prop. 7) *)
  | Wor_over_derived
      (** GUS003 — WOR over a derived or already-sampled input *)
  | Block_over_derived
      (** GUS004 — block sampling anywhere but directly over a base table *)
  | Hash_over_derived
      (** GUS005 — hash-Bernoulli over a multi-relation lineage *)
  | With_replacement
      (** GUS006 — with-replacement sampling is not a GUS method (§9) *)
  | Distinct_over_sample
      (** GUS007 — DISTINCT above a non-identity GUS (§9) *)
  | Probability_out_of_range
      (** GUS008 — a ∉ (0,1], n/N > 1, or b_T exceeding the marginal a *)
  | Zero_inclusion_probability
      (** GUS009 — a = 0: nothing is ever sampled, the 1/a scale-up is
          undefined (Theorem 1) *)
  | Small_inclusion_probability
      (** GUS010 — a below the configured threshold: variance terms scale
          with c_S/a² (Theorem 1) *)
  | Redundant_sampler
      (** GUS011 — a sampler that keeps every tuple (identity GUS, Prop. 4) *)
  | Sample_select_pushdown
      (** GUS012 — a per-tuple sampler sitting above a selection it could
          commute below (Prop. 5) *)
  | Analysis_limit
      (** GUS013 — outside the analyzer's implementation envelope (more
          than {!Gus_util.Subset.max_universe} relations: the coefficient
          arrays are 2ⁿ) *)
  | Enumeration_cost
      (** GUS014 — the static cost model predicts an expensive
          coefficient enumeration: (2ⁿ − 1 − skipped) moment passes times
          the estimated group count exceeds the configured budget *)
  | Variance_bound
      (** GUS015 — the Theorem-1 worst-case relative variance bound
          Σ_S max(0, c_S)/a² − 1 (valid for f ≥ 0) exceeds the configured
          threshold *)
  | Zero_coefficients
      (** GUS016 — some coefficient subsets are provably zero under this
          design (Prop. 6 product structure): the moments kernel runs
          only the live relations' passes *)
  | Stacked_samplers
      (** GUS017 — two plain Bernoulli samplers stacked directly: they
          compose into one with a = a₁·a₂ (Prop. 8); a fix is attached *)
  | Wor_over_deterministic_derived
      (** GUS018 — WOR over a sample-free derived input: N = |σ(R)| is
          deterministic but not statically known, so a = n/N cannot be
          derived without executing the skeleton (unlike GUS003, where N
          itself is a random variable) *)

val all_codes : code list
(** Every code, in [GUS001]… order. *)

val code_id : code -> string
(** The stable identifier, e.g. ["GUS003"]. *)

val severity_of_code : code -> severity
val title : code -> string
(** One-line summary used by [gusdb lint --codes] and the docs. *)

val citation : code -> string
(** The paper proposition/section the check enforces, e.g. ["Prop. 6"]. *)

type path = int list
(** Child indices from the plan root; resolves with
    {!Gus_core.Splan.subtree}. *)

val path_to_string : path -> string
(** ["$"] for the root, ["$.0.1"] for the second child of the first child —
    matching the top-down order of {!Gus_core.Splan.pp_tree} lines. *)

val compare_path : path -> path -> int
(** Lexicographic: pre-order position in the plan tree. *)

type t = {
  code : code;
  path : path;
  node : string;  (** short head rendering of the offending operator *)
  message : string;
  fix : Fix.t option;  (** machine-applicable rewrite, when one exists *)
}

val make :
  ?fix:Fix.t -> code:code -> path:path -> node:string -> string -> t

val severity : t -> severity
val severity_label : severity -> string
(** ["error"] / ["warning"] / ["hint"]. *)

val pp : Format.formatter -> t -> unit
(** One line: code, severity, path, node, message, citation, and a
    ["(fix: …)"] suffix when a fix is attached. *)

val to_string : t -> string

val to_json : t -> string
(** A single JSON object (stable field order, escaped strings); carries
    a ["fix"] object when a fix is attached. *)
