(** Physical sampling operators (the paper's TABLESAMPLE implementations).

    Each sampler is a {e randomized filter} over one relation; applying one
    yields a relation with the same schema and (with one documented
    exception) the same lineage schema, containing a random subset of the
    rows.

    The exception is {!Block}: block-based sampling is a GUS method only at
    block granularity, so its output rewrites the lineage slot of the
    sampled relation to the {e block id} (see DESIGN.md).  All downstream
    analysis — grouping for y_S, lineage-keyed subsampling — remains exact
    under that convention.

    {!Wr} (with-replacement) is {e not} a GUS method (it is not a filter:
    the output may contain a base tuple several times).  It is provided as
    the classical baseline the paper compares against conceptually; the
    rewriter refuses to translate it and the experiments estimate it with
    the classical scale-up instead. *)

type t =
  | Bernoulli of float
      (** keep each row independently with probability p ∈ [0,1] *)
  | Wor of int  (** uniform fixed-size sample without replacement *)
  | Wr of int  (** uniform fixed-size sample with replacement; not GUS *)
  | Block of { rows_per_block : int; p : float }
      (** partition rows into consecutive blocks of lineage ids, keep each
          block independently with probability p.  One draw per block, in
          block order, up to the block of the largest lineage id (at least
          ceil(cardinality / rows_per_block) draws), so over a selection it
          keeps the rows a selection over the block sample keeps
          (Prop. 5) *)
  | Hash_bernoulli of { seed : int; p : float }
      (** pseudo-random Bernoulli keyed on (seed, lineage id): the same
          base row gets the same decision wherever it appears (Section 7) *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical parameters (p outside [0,1],
    negative sizes…). *)

val apply :
  t ->
  Gus_util.Rng.t ->
  Gus_relational.Relation.t ->
  Gus_relational.Relation.t
(** Draw a sample.  [Wor]/[Wr] of size ≥ cardinality return all rows
    (respectively, exactly [n] draws).  For [Hash_bernoulli] the RNG is
    unused: decisions come from the pseudo-random function, keyed on the
    first lineage slot.  Every sampler runs sequentially and draws from
    the RNG in row order, so one seed names one sample. *)

val uses_rng : t -> bool
(** Whether {!apply} consumes RNG state ([Hash_bernoulli] does not). *)

val per_tuple : t -> bool
(** Whether the sampler decides each row independently, without needing
    the input's cardinality ([Bernoulli], [Hash_bernoulli]) — the
    property that makes it streamable. *)

val sampling_fraction : t -> n:int -> float
(** Expected fraction of rows kept when applied to a relation of [n]
    rows. *)
