(** Symbolic sum-of-products algebra for second-moment vectors.

    A dense {!Gus.t} stores all [2^n] second-order inclusion probabilities
    [b_T]; this module stores the {e function} [T ↦ b_T] factorized as

    {v b_T = Σ_k w_k · Π_i φ_k,i(i ∈ T) v}

    with one [(lo, hi)] factor per lineage relation per term.  Prop 6
    (join) concatenates factor lists, Prop 8 (compact) multiplies factors
    pointwise, Prop 7 (union) distributes over both operands' terms — the
    closure Theorem 2's semiring structure guarantees.  An
    independent-Bernoulli-style design therefore stays a handful of terms
    at any width: plans with 20+ sampled relations, far past the dense
    [2^n] wall, rewrite and analyze in microseconds.

    Width is capped at {!max_rels} = {!Gus_util.Subset.max_mask_bits}
    (subsets remain int bitmasks); materializing ({!to_gus}) is capped at
    {!Gus_util.Subset.max_universe} like every dense consumer.

    Float discipline: [a] is maintained with exactly the dense operators'
    float expressions, and factors are combined with the same
    multiplications the dense combinator applies to b-entries.  For
    product-form designs (joins/compacts of the Figure-1 samplers — no
    unions) a left-deep evaluation order makes every materialized entry
    bit-identical to the dense fold's, which the linter's dense-oracle
    tests check end to end. *)

type term = {
  w : float;  (** scalar weight; 1.0 for pure product designs *)
  lo : float array;  (** φ_i(false): factor value when i ∉ T *)
  hi : float array;  (** φ_i(true): factor value when i ∈ T *)
}

type repr =
  | Sop of term list
  | Dense of Gus.t
      (** fallback for designs whose term count blew the budget inside the
          dense-representable width *)

type t = private {
  rels : string array;
  a : float;  (** first-order inclusion probability, bit-equal to the
                  dense path's *)
  repr : repr;
}

val max_rels : int
(** Widest representable lineage ({!Gus_util.Subset.max_mask_bits} = 62);
    beyond it even subset masks overflow, so constructors raise. *)

(** {1 Constructors (Figure 1)} *)

val constant : string array -> float -> t
val identity : string array -> t
val null : string array -> t
val bernoulli : rel:string -> float -> t
val wor : rel:string -> n:int -> out_of:int -> t
val bernoulli_over : string array -> float -> t
val of_gus : Gus.t -> t
(** Wrap a dense GUS as an entangled-design fallback value. *)

(** {1 Combinators (Props 6–8)} *)

val join : t -> t -> t
val compact : t -> t -> t
val union : t -> t -> t
val extend : t -> string array -> t
val permute : t -> string array -> t
(** Same contracts as the {!Gus} namesakes; raise {!Gus.Incompatible} on
    schema violations or past-the-mask-limit widths. *)

(** {1 Evaluation} *)

val n_rels : t -> int
val b_get : t -> int -> float
(** [b_get t s] evaluates the SoP at subset mask [s] (clamped to [0,1]
    like the dense union operator clamps; the diagonal returns [a]
    exactly, mirroring {!Gus.make}). *)

val to_gus : t -> Gus.t
(** Materialize all [2^n] entries.  Raises {!Gus.Incompatible} past
    {!Gus_util.Subset.max_universe}. *)

(** {1 The rule book} *)

val simplify : t -> t * string list
(** Apply the rewrite-rule book — [drop-zero-term], [drop-null-term],
    [merge-duplicate-terms] — to a fixpoint, returning the simplified
    value and the rule applications in order.  Every rule strictly
    decreases the term count, so the fixpoint terminates after at most
    [term_count t] firings. *)

val term_count : t -> int
(** Number of SoP terms (0 for a dense fallback). *)

(** {1 Structure queries (what the linter and estimator consume)} *)

val live_mask : t -> int
(** Relations whose factor actually depends on membership ([lo ≠ hi]
    somewhere, compared on float bits).  The complement is structurally
    design-inert: flipping a dead relation cannot change any [b_T], so
    every dead-touching coefficient [c_S] is an exact float zero under the
    Möbius transform — the sparse live-pass set the moments kernel keys
    on. *)

val nonneg_monotone : t -> bool
(** Every term has [w ≥ 0] and [hi ≥ lo ≥ 0] per factor.  Then every
    coefficient [c_S = Σ_k w_k Π_{i∈S}(hi−lo) Π_{i∉S}lo ≥ 0], so Theorem
    1's Σ c_S⁺ telescopes to [b_full = a] in closed form, and [b_T] is
    monotone in [T] so no entry can exceed its marginal. *)

val project : t -> int -> t
(** [project t live] restricts to the relations in [live], folding each
    dropped factor's constant value into the term weight (a dense
    fallback keeps its entries at the embedded masks).  Exact (and only
    allowed) when the dropped relations are structurally dead:
    [live_mask t ⊆ live], else raises {!Gus.Incompatible}.  The projected
    value materializes ({!to_gus}) over the compressed [k]-relation
    universe with entries bit-equal to the dense [b] at the embedded
    masks. *)

val is_identity : ?eps:float -> t -> bool
(** Whether this is (approximately) the identity GUS — every entry within
    [eps] of 1.  Mirrors [Gus.equal_approx g (Gus.identity …)]. *)

val subset_name : t -> int -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
