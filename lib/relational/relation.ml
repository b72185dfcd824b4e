(* One physical layout: typed columnar storage ({!Column}), one unboxed
   vector per schema column plus the lineage.  Scans run over raw
   Bigarrays with no per-row boxing; the row API ([tuple]/[iter]/[fold])
   materializes each tuple on demand.

   Base-relation lineage is the row id, so a base stores no lineage at
   all ([Identity]); derived relations (selections, samples, joins, the
   row-at-a-time operators' outputs) carry one explicit int lineage
   column per lineage-schema slot. *)

type lineage_store =
  | Identity  (** lineage of row [i] is [[| i |]] (base relations) *)
  | Explicit of Column.t array
      (** one int column per lineage-schema slot *)

type cols = {
  mutable cn : int;
  ccols : Column.t array;
  mutable clineage : lineage_store;
}

type t = {
  name : string;
  schema : Schema.t;
  lineage_schema : Lineage.schema;
  cols : cols;
}

let cols_of_schema ?capacity schema =
  Array.of_list
    (List.map (fun c -> Column.create ?capacity c.Schema.ty) (Schema.columns schema))

let create_base ?capacity ~name schema =
  { name;
    schema;
    lineage_schema = Lineage.schema_of name;
    cols = { cn = 0; ccols = cols_of_schema ?capacity schema; clineage = Identity } }

let derived ?(name = "<derived>") schema lineage_schema =
  let clineage =
    Explicit (Array.map (fun _ -> Column.create Value.TInt) lineage_schema)
  in
  { name; schema; lineage_schema; cols = { cn = 0; ccols = cols_of_schema schema; clineage } }

let derived_cols ?(name = "<derived>") schema lineage_schema c =
  let width =
    match c.clineage with
    | Identity -> Array.length lineage_schema
    | Explicit ls -> Array.length ls
  in
  if width <> Array.length lineage_schema then
    invalid_arg "Relation.derived_cols: lineage width mismatch";
  Array.iter
    (fun col ->
      if Column.length col <> c.cn then
        invalid_arg "Relation.derived_cols: ragged columns")
    c.ccols;
  { name; schema; lineage_schema; cols = c }

let cardinality t = t.cols.cn

let lineage_id t ~slot i =
  match t.cols.clineage with
  | Identity -> i
  | Explicit ls -> Column.get_int ls.(slot) i

let lineage t =
  match t.cols.clineage with
  | Identity -> fun i -> [| i |]
  | Explicit ls ->
      let data = Array.map Column.int_data ls in
      let w = Array.length data in
      fun i ->
        let a = Array.make w 0 in
        for s = 0 to w - 1 do
          a.(s) <- Bigarray.Array1.get data.(s) i
        done;
        a

let restrict_lineage t slots =
  let c = t.cols in
  let clineage =
    match c.clineage with
    | Identity when slots = [| 0 |] -> Identity
    | Identity -> Explicit [||]
    | Explicit ls -> Explicit (Array.map (fun s -> ls.(s)) slots)
  in
  { t with
    lineage_schema = Array.map (fun s -> t.lineage_schema.(s)) slots;
    cols = { c with clineage } }

let restrict_columns t names =
  let all = Schema.columns t.schema in
  let kept = List.filter (fun col -> List.mem col.Schema.name names) all in
  if List.compare_lengths kept all = 0 then t
  else
    let c = t.cols in
    let data col = c.ccols.(Schema.index_of t.schema col.Schema.name) in
    (* A fresh [cols] record: [cn] and [clineage] are mutable, and an
       append to [t] must not reach the view. *)
    { t with
      schema = Schema.make kept;
      cols = { c with ccols = Array.of_list (List.map data kept) } }

let tuple t i =
  let c = t.cols in
  if i < 0 || i >= c.cn then
    invalid_arg (Printf.sprintf "Relation: index %d out of bounds [0,%d)" i c.cn);
  let lineage =
    match c.clineage with
    | Identity -> [| i |]
    | Explicit ls -> Array.map (fun col -> Column.get_int col i) ls
  in
  Tuple.make (Array.map (fun col -> Column.get col i) c.ccols) lineage

let iter f t =
  for i = 0 to t.cols.cn - 1 do
    f (tuple t i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.cols.cn - 1 do
    acc := f !acc (tuple t i)
  done;
  !acc

(* Callers have validated [values] against the schema, so no push can
   fail half-way through the row. *)
let push_values c values =
  Array.iteri (fun j v -> Column.push c.ccols.(j) v) values;
  c.cn <- c.cn + 1

let append_row t values =
  if not (Lineage.schema_equal t.lineage_schema (Lineage.schema_of t.name)) then
    invalid_arg "Relation.append_row: not a base relation";
  Schema.check_tuple t.schema values;
  let c = t.cols in
  (match c.clineage with
  | Identity -> ()
  | Explicit ls -> Array.iter (fun col -> Column.push_int col c.cn) ls);
  push_values c values

(* A base relation stores no lineage; appending a tuple whose lineage is
   not its row id forces the explicit representation first. *)
let force_explicit c =
  match c.clineage with
  | Explicit ls -> ls
  | Identity ->
      let col = Column.create ~capacity:(max 16 c.cn) Value.TInt in
      for i = 0 to c.cn - 1 do
        Column.push_int col i
      done;
      c.clineage <- Explicit [| col |];
      [| col |]

let append_tuple t tup =
  let lineage = tup.Tuple.lineage in
  Schema.check_tuple t.schema tup.Tuple.values;
  if Array.length lineage <> Array.length t.lineage_schema then
    invalid_arg "Relation.append_tuple: lineage width mismatch";
  let c = t.cols in
  (match c.clineage with
  | Identity when lineage.(0) = c.cn -> ()
  | _ -> Array.iteri (fun s col -> Column.push_int col lineage.(s)) (force_explicit c));
  push_values c tup.Tuple.values

let gather_rows ?name t idx count =
  let c = t.cols in
  let clineage =
    match c.clineage with
    | Identity -> Explicit [| Column.of_int_array idx count |]
    | Explicit ls -> Explicit (Array.map (fun col -> Column.gather col idx count) ls)
  in
  { name = Option.value name ~default:t.name;
    schema = t.schema;
    lineage_schema = t.lineage_schema;
    cols =
      { cn = count;
        ccols = Array.map (fun col -> Column.gather col idx count) c.ccols;
        clineage } }

(* Row-indexed evaluation: compiled over the columns when {!Vexpr}
   accepts the expression, else bound by {!Expr} and run on the
   materialized tuple — the fallback rule of the vectorized operators.
   Either way the values, and the raises, are the row engine's. *)
let bind t e =
  match Vexpr.compile t.schema t.cols.ccols e with
  | Some (Vexpr.VF (v, nl)) -> fun i -> if nl i then Value.Null else Value.Float (v i)
  | Some (Vexpr.VI (v, nl)) -> fun i -> if nl i then Value.Null else Value.Int (v i)
  | Some (Vexpr.VS (v, nl)) -> fun i -> if nl i then Value.Null else Value.Str (v i)
  | Some (Vexpr.VB g) -> (
      fun i -> match g i with 0 -> Value.Bool false | 1 -> Value.Bool true | _ -> Value.Null)
  | Some (Vexpr.VNull eff) ->
      fun i ->
        eff i;
        Value.Null
  | None ->
      let f = Expr.bind t.schema e in
      fun i -> f (tuple t i)

let bind_float t e =
  match Vexpr.compile t.schema t.cols.ccols e with
  | Some (Vexpr.VF (v, nl)) -> fun i -> if nl i then 0.0 else v i
  | Some (Vexpr.VI (v, nl)) -> fun i -> if nl i then 0.0 else float_of_int (v i)
  | Some (Vexpr.VNull eff) ->
      fun i ->
        eff i;
        0.0
  | Some (Vexpr.VS _ | Vexpr.VB _) | None ->
      (* Non-numeric results raise (or read NULL as 0) on the row path. *)
      let f = Expr.bind_float t.schema e in
      fun i -> f (tuple t i)

let column_values t name =
  let col = t.cols.ccols.(Schema.index_of t.schema name) in
  Array.init t.cols.cn (fun i -> Column.get col i)

let pp ppf t =
  Format.fprintf ppf "%s%a (%d rows)" t.name Schema.pp t.schema (cardinality t);
  let limit = min 5 (cardinality t) in
  for i = 0 to limit - 1 do
    Format.fprintf ppf "@\n  %a" Tuple.pp (tuple t i)
  done;
  if cardinality t > limit then Format.fprintf ppf "@\n  ..."

let to_csv_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "," (List.map (fun c -> c.Schema.name) (Schema.columns t.schema)));
  Buffer.add_char buf '\n';
  iter
    (fun tup ->
      let cells = Array.map Value.to_display tup.Tuple.values in
      Buffer.add_string buf (String.concat "," (Array.to_list cells));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let sum_column t name =
  let col = t.cols.ccols.(Schema.index_of t.schema name) in
  let n = t.cols.cn in
  match Column.ty col with
  | Value.TFloat ->
      (* A straight pass over the unboxed float array.  NULL slots hold
         0.0, which is what a skipped NULL contributes, so no null test
         is needed. *)
      let ba = Column.float_data col in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. Bigarray.Array1.unsafe_get ba i
      done;
      !acc
  | Value.TInt ->
      let ba = Column.int_data col in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. float_of_int (Bigarray.Array1.unsafe_get ba i)
      done;
      !acc
  | Value.TStr | Value.TBool ->
      (* Every non-NULL cell raises, as [Value.to_float] does. *)
      Array.fold_left
        (fun acc v -> match v with Value.Null -> acc | v -> acc +. Value.to_float v)
        0.0 (column_values t name)
