(** A materialized relation: schema, lineage schema, and rows stored as
    typed columns ({!Column}).

    Base relations have a single-entry lineage schema (their own name) and
    row ids 0..n−1, which they store implicitly; derived relations carry
    whatever lineage their operators produced, one int column per
    lineage-schema slot.

    The row API ({!tuple}, {!iter}, {!fold}) materializes each tuple on
    demand.  Vectorized kernels ({!Ops}, {!Gus_sampling.Sampler}) read
    the raw columns through {!t.cols}, and gather only the columns their
    input holds: a plan's scans hand them {!restrict_columns} views of
    the base relations, cut to the columns the statement reads. *)

type lineage_store =
  | Identity  (** lineage of row [i] is [[| i |]] (base relations) *)
  | Explicit of Column.t array
      (** one int column per lineage-schema slot *)

type cols = {
  mutable cn : int;  (** row count *)
  ccols : Column.t array;  (** one per schema column, all length [cn] *)
  mutable clineage : lineage_store;
}

type t = {
  name : string;
  schema : Schema.t;
  lineage_schema : Lineage.schema;
  cols : cols;
}

val create_base : ?capacity:int -> name:string -> Schema.t -> t
(** Empty base relation; rows appended with {!append_row} get consecutive
    row ids. *)

val derived : ?name:string -> Schema.t -> Lineage.schema -> t
(** Empty derived relation with one explicit lineage column per
    lineage-schema slot, filled with {!append_tuple} by the
    row-at-a-time operators. *)

val derived_cols : ?name:string -> Schema.t -> Lineage.schema -> cols -> t
(** Derived relation over already-built columns (vectorized kernel
    outputs).  Checks column lengths and lineage width. *)

val append_row : t -> Value.t array -> unit
(** Base relations only (lineage schema must be the relation itself);
    type-checks against the schema. *)

val append_tuple : t -> Tuple.t -> unit
(** Checks arity, value types ({!Schema.check_tuple}) and lineage width
    before writing anything, so a rejected tuple leaves the relation
    unchanged.  Raises {!Value.Type_error} or [Invalid_argument]. *)

val cardinality : t -> int

val lineage_id : t -> slot:int -> int -> int
(** Lineage id of row [i] at [slot] without materializing the array. *)

val lineage : t -> int -> Lineage.t
(** [lineage t] binds the lineage columns once; the result reads row
    [i]'s lineage (a fresh array) straight from them. *)

val restrict_lineage : t -> int array -> t
(** [restrict_lineage t slots]: the same rows, with the lineage and the
    lineage schema restricted to the positions [slots] (ascending).  A
    read-only view: it shares [t]'s columns. *)

val restrict_columns : t -> string list -> t
(** [restrict_columns t names]: the same rows and lineage, holding only
    the columns of [t] that [names] lists, in [t]'s schema order (names
    [t] lacks are ignored).  The column twin of {!restrict_lineage}: a
    read-only view that shares [t]'s {!Column.t} values, keeps its
    [name] and lineage, and costs one schema and one small record.  [t]
    itself when [names] covers every column. *)

val gather_rows : ?name:string -> t -> int array -> int -> t
(** [gather_rows t idx count]: same schema and lineage schema, holding
    rows [idx.(0..count-1)] of [t] in that order, lineage included
    (identity lineage becomes an explicit column of the gathered row
    ids — the lineage those rows' tuples carry). *)

val tuple : t -> int -> Tuple.t
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val bind : t -> Expr.t -> int -> Value.t
(** [bind t e] binds [e] once; the result evaluates [e] on row [i].  The
    expression is compiled over the columns ({!Vexpr}) when it can be,
    otherwise evaluated on the materialized tuple; values and raises are
    {!Expr.bind}'s either way.  An unknown column raises
    {!Expr.Bind_error} at bind time. *)

val bind_float : t -> Expr.t -> int -> float
(** {!bind} with {!Expr.bind_float}'s reading: [Null] is 0, non-numeric
    values raise {!Value.Type_error}. *)

val column_values : t -> string -> Value.t array
val pp : Format.formatter -> t -> unit
(** Header plus first rows (for debugging). *)

val to_csv_string : t -> string

val sum_column : t -> string -> float
(** Exact SUM over a numeric column, [Null]s contribute 0; a single
    unboxed pass. *)
