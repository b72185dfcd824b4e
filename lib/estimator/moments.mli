(** The y_S / Y_S data moments of Theorem 1 (Section 6.3).

    For a subset [S] of the lineage schema,
    [y_S = Σ_{lineage-groups on S} (Σ_{tuples in group} f)²] — a group-by
    on the lineage ids of the relations in [S].  Computed over the full
    query result these are the exact [y_S]; computed over a sample they are
    the raw [Y_S] that the SBox corrects into unbiased [Ŷ_S].  With [k]
    values per tuple the same passes give the cross moments
    [y^{f_i f_j}_S = Σ_{groups on S} (Σ f_i)(Σ f_j)] that covariance and
    AVG's delta method need.

    One kernel computes them all: {!Acc}.  For each non-empty subset mask
    it makes one pass over a flat tuple buffer, numbers the lineage groups
    in first-seen order, sums each group's values in row order and sums
    the groups' products in first-seen order.  The bits therefore depend
    only on the tuples and their order.  Passes are sequential on the
    calling domain; the scratch is allocated per call, so estimates may
    run on several domains at once. *)

module Acc : sig
  type t

  val create : ?hint:int -> ?k:int -> n_rels:int -> unit -> t
  (** [create ~n_rels ()] starts an empty buffer of tuples carrying
      [n_rels] lineage ids and [k] values (default 1).  [hint] pre-sizes
      it (default 64 tuples); it grows by doubling.  Raises
      [Invalid_argument] when [n_rels] exceeds
      {!Gus_util.Subset.max_universe} or [k < 0]. *)

  val add : t -> int array -> float -> unit
  (** [add t lineage f] appends one tuple of a [k = 1] buffer.  The
      lineage array is copied, not retained.  Raises [Invalid_argument]
      if [Array.length lineage <> n_rels] or [k <> 1]. *)

  val add_values : t -> int array -> float array -> unit
  (** {!add} for any [k]: [values] holds the tuple's [k] values. *)

  val finalize : t -> float array array array
  (** [y.(i).(j)] is the moment vector [y^{f_i f_j}], indexed by subset
      mask over the [n_rels] positions; [y.(j).(i)] is the same array.
      [y.(i).(i)] is bit-identical to a [k = 1] run on [f_i] alone.  Does
      not consume the buffer. *)

  val count : t -> int
  (** Tuples added so far. *)

  val total : t -> int -> float
  (** [total t i] is Σ f_i so far, in row order. *)
end

val feed :
  ?rows:int array ->
  slots:int array ->
  fs:Gus_relational.Expr.t array ->
  Gus_relational.Relation.t ->
  Acc.t
(** The SBox input of Section 6.2, read straight from a relation's
    columns: for each row (all rows, or [rows] in that order), the
    lineage ids at [slots] and the values of [fs] ({!Gus_relational.Relation.bind_float},
    [Null] ↦ 0).  Only the [slots] columns are copied, so the kernel
    never sees a dead relation's ids.  Each expression is evaluated over
    every row before the next. *)

val of_relation :
  f:Gus_relational.Expr.t -> Gus_relational.Relation.t -> float array
(** [feed] with every lineage slot and [k = 1], finalized: the
    [2^n_rels] moments of [f] over the relation's lineage schema. *)
