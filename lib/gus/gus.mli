(** Generalized Uniform Sampling quasi-operators and their algebra
    (Sections 3–5 of the paper).

    A value [G(a, b̄)] describes a randomized filter over tuples whose
    lineage ranges over an ordered set of base relations [rels]:
    - [a = P(t ∈ sample)], identical for every tuple;
    - [b_T = P(t, t' ∈ sample)] for tuples agreeing on exactly the lineage
      subset [T], stored densely as [b.(mask)] with [mask] a
      {!Gus_util.Subset.t} over positions in [rels].

    {b Diagonal convention.}  [b.(full)] is the probability for a pair
    agreeing on {e all} slots — i.e. the same tuple — so every constructor
    and combinator maintains [b.(full) = a].  Theorem 1's coefficients come
    out right with no special-casing (Figure 1 of the paper prints
    [b_R = a] for the same reason).

    Values of this type are never executed; they exist so that plans can be
    {e analyzed} (the paper's "quasi-operator"). *)

type t = private {
  rels : string array;  (** ordered lineage schema *)
  a : float;
  b : float array;      (** length [2^(Array.length rels)] *)
}

exception Incompatible of string
(** Raised when combining GUS values whose lineage schemas do not satisfy
    an operation's precondition (join needs disjoint, union/compaction need
    identical). *)

(** {1 Constructors} *)

val make : rels:string array -> a:float -> b:float array -> t
(** Checks array length, probability ranges, and the diagonal convention
    ([b.(full) = a] up to 1e-9, which it then enforces exactly). *)

val identity : string array -> t
(** [G(1, 1̄)], Proposition 4: inserting it anywhere changes nothing. *)

val null : string array -> t
(** [G(0, 0̄)]: blocks everything (the additive zero of Theorem 2). *)

val bernoulli : rel:string -> float -> t
(** Row-level Bernoulli(p) on one relation: [a = p], [b_∅ = p²],
    [b_rel = p] (Figure 1). *)

val wor : rel:string -> n:int -> out_of:int -> t
(** Fixed-size sampling without replacement: [a = n/N],
    [b_∅ = n(n−1)/(N(N−1))], [b_rel = n/N] (Figure 1).  Requires
    [0 ≤ n ≤ N] and [N ≥ 1]; [N = 1] sets [b_∅ = 0]. *)

val bernoulli_over : string array -> float -> t
(** Bernoulli(p) applied to a {e derived} relation with the given lineage
    schema: one independent coin per distinct result tuple, so
    [b_T = p²] for every proper [T] and [b_full = p].  This is what a plain
    [TABLESAMPLE] on an intermediate result means as a GUS. *)

(** {1 The algebra} *)

val join : t -> t -> t
(** Proposition 6 (and 9): disjoint lineage schemas; [a = a₁a₂],
    [b_T = b₁,T∩L₁ · b₂,T∩L₂].  Raises {!Incompatible} on overlap —
    the self-join limitation is inherent to GUS. *)

val compact : t -> t -> t
(** Proposition 8 (stacking / intersection): identical schemas,
    [a = a₁a₂], [b_T = b₁,T·b₂,T]. *)

val union : t -> t -> t
(** Proposition 7 (combining two samples of the same expression, duplicates
    removed by lineage): identical schemas, [a = a₁+a₂−a₁a₂],
    [b_T = 2a−1 + (1−2a₁+b₁,T)(1−2a₂+b₂,T)]. *)

val extend : t -> string array -> t
(** [extend g extra] joins [g] with {!identity}[ extra]: the Prop.-4 move
    that brings unsampled relations into scope. *)

val permute : t -> string array -> t
(** Reorder the lineage schema to the given permutation of [rels] (raises
    {!Incompatible} if it is not a permutation). *)

(** {1 Analysis (Theorem 1)} *)

val n_rels : t -> int
val b_get : t -> Gus_util.Subset.t -> float
val c_coefficients : t -> float array
(** [c.(S) = Σ_{T ⊆ S} (−1)^{|S|−|T|} · b.(T)] for every subset [S],
    computed with a signed fast Möbius transform in O(n·2ⁿ). *)

val variance : t -> y:float array -> float
(** [Σ_S (c_S / a²)·y_S − y_∅] given the data moments [y] indexed by
    subset mask.  This is the exact (non-asymptotic) variance of the
    Horvitz–Thompson-style estimate [X = (1/a) Σ f]. *)

val scale_up : t -> float -> float
(** [scale_up g total] is the unbiased estimate [total / a].  Raises
    {!Incompatible} when [a = 0]. *)

val d_correction : t -> s:Gus_util.Subset.t -> float array
(** Coefficients of the unbiased-Ŷ recursion (Section 6.3): the returned
    array is indexed by [T ⊆ complement s] (masks over the full universe;
    entries with [T ⊄ sᶜ] are 0) and holds
    [d_{s,s∪T} = Σ_{U⊆T} (−1)^{|T|−|U|} b.(s∪U)].
    [d_{s,s}] is entry [T = ∅]. *)

(** {1 Inspection} *)

val equal_approx : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Renders like the paper's tables: [a = …, b{} = …, b{o} = …, …]. *)

val to_string : t -> string
val subset_name : t -> Gus_util.Subset.t -> string
