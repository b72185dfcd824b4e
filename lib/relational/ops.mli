(** Physical relational operators over materialized relations.

    Every operator propagates lineage per Section 6.2 of the paper:
    selection/projection keep it, joins concatenate it.  Inputs are never
    mutated.

    Selection, projection and the equi-join on int key columns run as
    vectorized kernels over the columns; other predicates, expressions
    {!Vexpr} refuses and non-int keys fall back to a row-at-a-time path
    with identical results.  [cross], [theta_join], the unions and
    [distinct] are row-at-a-time.  Every output is columnar, and every
    operator runs sequentially on the calling domain. *)

val select : Expr.t -> Relation.t -> Relation.t

val project : (string * Expr.t) list -> Relation.t -> Relation.t
(** [(output name, expression)] pairs; lineage preserved. *)

val project_schema : (string * Expr.t) list -> Schema.t -> Schema.t
(** The output schema {!project} derives for [fields] over an input
    [schema]: column types inferred from expression shape, with
    arithmetic over int operands typed int and other arithmetic float,
    as {!Value} evaluates them.  Exposed for row-at-a-time executors
    that must know the post-projection schema before any row exists. *)

val select_indices : (int -> bool) -> int -> int array * int
(** [select_indices keep n] is the ascending list of indices in [0, n)
    for which [keep] holds, as [(buffer, count)] — the columnar
    predicate kernel.  [keep] runs once per index, in index order. *)

val cross : Relation.t -> Relation.t -> Relation.t

val equi_join : left_key:Expr.t -> right_key:Expr.t -> Relation.t -> Relation.t -> Relation.t
(** Hash join on key equality (Null keys never match). *)

val theta_join : Expr.t -> Relation.t -> Relation.t -> Relation.t
(** Nested loops with an arbitrary predicate over the concatenated schema. *)

val union_all : Relation.t -> Relation.t -> Relation.t
(** Schemas and lineage schemas must match. *)

val union_lineage : Relation.t -> Relation.t -> Relation.t
(** Set union by lineage: duplicates (same lineage) kept once — the
    duplicate-elimination the paper's Prop. 7 (GUS Union) requires. *)

val distinct : Relation.t -> Relation.t
(** Distinct by values (not lineage); keeps the first witness. *)
