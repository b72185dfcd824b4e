module Vec = Gus_util.Vec
module Metrics = Gus_obs.Metrics

(* Per-operator row accounting.  Counts are taken from relation
   cardinalities after the operator runs — O(1) per call, nothing on the
   per-tuple path — and only when collection is on. *)
let op_rows name =
  (Metrics.counter (Printf.sprintf "ops.%s.rows_in" name),
   Metrics.counter (Printf.sprintf "ops.%s.rows_out" name))

let account (rows_in, rows_out) ~inputs out =
  if Metrics.enabled () then begin
    List.iter (fun r -> Metrics.add rows_in (Relation.cardinality r)) inputs;
    Metrics.add rows_out (Relation.cardinality out)
  end;
  out

let c_select = op_rows "select"
let c_project = op_rows "project"
let c_cross = op_rows "cross"
let c_equi_join = op_rows "equi_join"
let c_theta_join = op_rows "theta_join"
let c_union_all = op_rows "union_all"
let c_union_lineage = op_rows "union_lineage"
let c_distinct = op_rows "distinct"

(* Hash tables keyed directly on the data we already hold — a Value, a
   lineage array, a Value array — with the library's semantic equality and
   mixing hashes.  The seed code keyed several operators on freshly built
   [string list] / [int list] images of each tuple, which dominated the
   hot paths with allocations and polymorphic compares. *)

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash v = Value.hash v land max_int
end)

module LTbl = Hashtbl.Make (struct
  type t = Lineage.t

  let equal = Lineage.equal
  let hash l = Lineage.hash l land max_int
end)

module VsTbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal (a : Value.t array) (b : Value.t array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash (a : Value.t array) =
    let h = ref 0x9E3779B97F4A7C1 in
    Array.iter
      (fun v ->
        h :=
          Int64.to_int
            (Gus_util.Hashing.combine (Int64.of_int !h)
               (Int64.of_int (Value.hash v))))
      a;
    !h land max_int
end)

(* ---- vectorized kernels -------------------------------------------------
   When the expressions compile ({!Vexpr}), the operators below run over
   raw columns: predicates fill selection index vectors and outputs are
   gathered column-wise.  Every kernel is bit-identical to the
   row-at-a-time path; anything it cannot express falls back to that
   path, which appends tuples to a columnar output. *)

(* Selection indices for [keep] over [0, n), ascending. *)
let select_indices keep n =
  let idx = Array.make (max 1 n) 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      idx.(!m) <- i;
      incr m
    end
  done;
  (idx, !m)

let select pred rel =
  let name = Printf.sprintf "select(%s)" rel.Relation.name in
  let c = rel.Relation.cols in
  let out =
    match Vexpr.predicate rel.Relation.schema c.Relation.ccols pred with
    | Some keep ->
        let idx, count = select_indices keep c.Relation.cn in
        Relation.gather_rows ~name rel idx count
    | None ->
        let keep = Expr.bind_predicate rel.Relation.schema pred in
        let out =
          Relation.derived ~name rel.Relation.schema rel.Relation.lineage_schema
        in
        Relation.iter
          (fun tup -> if keep tup then Relation.append_tuple out tup)
          rel;
        out
  in
  account c_select ~inputs:[ rel ] out

(* The type of the values the row engine computes for [e]: arithmetic
   whose operands are all ints stays int, as [Value.arith] evaluates it;
   any other arithmetic is float.  Arithmetic over a NULL literal, a
   non-numeric operand or an unknown column types as float too: it only
   ever yields NULL, or raises. *)
let rec expr_ty schema = function
  | Expr.Col c -> (
      match Schema.find_index schema c with
      | Some j -> Schema.column_ty schema j
      | None -> Value.TFloat)
  | Expr.Lit v -> Option.value (Value.type_of v) ~default:Value.TFloat
  | Expr.Neg e -> (
      match expr_ty schema e with Value.TInt -> Value.TInt | _ -> Value.TFloat)
  | Expr.Bin (_, a, b) ->
      if expr_ty schema a = Value.TInt && expr_ty schema b = Value.TInt then
        Value.TInt
      else Value.TFloat
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ -> Value.TBool

let project_schema fields schema =
  Schema.make
    (List.map
       (fun (name, e) ->
         let ty =
           match e with
           | Expr.Col c -> Schema.column_ty schema (Schema.index_of schema c)
           | e -> expr_ty schema e
         in
         { Schema.name; ty })
       fields)

(* One output column per projected field.  [PCopy] reuses the source
   column wholesale (fresh backing, shared dictionary); the typed
   builders evaluate a compiled expression row by row into an unboxed
   column.  A field {!Vexpr} cannot compile to the schema's type makes
   the whole projection fall back to the row-at-a-time path. *)
type field_plan =
  | PCopy of int
  | PF of (int -> float) * (int -> bool)
  | PI of (int -> int) * (int -> bool)
  | PS of (int -> string) * (int -> bool)
  | PB of (int -> int)
  | PNull of (int -> unit)

let plan_field schema cols ty expr =
  match expr with
  | Expr.Col name -> Option.map (fun j -> PCopy j) (Schema.find_index schema name)
  | _ -> begin
      match (Vexpr.compile schema cols expr, ty) with
      | Some (Vexpr.VF (v, nl)), Value.TFloat -> Some (PF (v, nl))
      | Some (Vexpr.VI (v, nl)), Value.TInt -> Some (PI (v, nl))
      | Some (Vexpr.VS (v, nl)), Value.TStr -> Some (PS (v, nl))
      | Some (Vexpr.VB g), Value.TBool -> Some (PB g)
      | Some (Vexpr.VNull eff), _ -> Some (PNull eff)
      | _ -> None
    end

let build_field c plan ty =
  let n = c.Relation.cn in
  match plan with
  | PCopy j -> Column.copy c.Relation.ccols.(j)
  | PF (v, nl) ->
      let col = Column.create ~capacity:(max 1 n) Value.TFloat in
      for i = 0 to n - 1 do
        if nl i then Column.push_null col else Column.push_float col (v i)
      done;
      col
  | PI (v, nl) ->
      let col = Column.create ~capacity:(max 1 n) Value.TInt in
      for i = 0 to n - 1 do
        if nl i then Column.push_null col else Column.push_int col (v i)
      done;
      col
  | PS (v, nl) ->
      let col = Column.create ~capacity:(max 1 n) Value.TStr in
      for i = 0 to n - 1 do
        if nl i then Column.push_null col else Column.push_string col (v i)
      done;
      col
  | PB g ->
      let col = Column.create ~capacity:(max 1 n) Value.TBool in
      for i = 0 to n - 1 do
        match g i with 2 -> Column.push_null col | x -> Column.push_int col x
      done;
      col
  | PNull eff ->
      let col = Column.create ~capacity:(max 1 n) ty in
      for i = 0 to n - 1 do
        eff i;
        Column.push_null col
      done;
      col

let project fields rel =
  let schema = rel.Relation.schema in
  let out_schema = project_schema fields schema in
  let name = Printf.sprintf "project(%s)" rel.Relation.name in
  let c = rel.Relation.cols in
  let plans =
    List.mapi
      (fun i (_, e) ->
        plan_field schema c.Relation.ccols (Schema.column_ty out_schema i) e)
      fields
  in
  let out =
    if List.for_all Option.is_some plans then
      let ccols =
        Array.of_list
          (List.mapi
             (fun i plan ->
               build_field c (Option.get plan) (Schema.column_ty out_schema i))
             plans)
      in
      let clineage =
        match c.Relation.clineage with
        | Relation.Identity -> Relation.Identity
        | Relation.Explicit ls -> Relation.Explicit (Array.map Column.copy ls)
      in
      Relation.derived_cols ~name out_schema rel.Relation.lineage_schema
        { Relation.cn = c.Relation.cn; ccols; clineage }
    else
      let evals = List.map (fun (_, e) -> Expr.bind schema e) fields in
      let out = Relation.derived ~name out_schema rel.Relation.lineage_schema in
      Relation.iter
        (fun tup ->
          let values = Array.of_list (List.map (fun f -> f tup) evals) in
          Relation.append_tuple out (Tuple.with_values tup values))
        rel;
      out
  in
  account c_project ~inputs:[ rel ] out

let joined_name a b =
  Printf.sprintf "(%s*%s)" a.Relation.name b.Relation.name

let join_output a b =
  let schema = Schema.concat a.Relation.schema b.Relation.schema in
  let lschema =
    Lineage.schema_concat a.Relation.lineage_schema b.Relation.lineage_schema
  in
  Relation.derived ~name:(joined_name a b) schema lschema

(* The nested-loop operators materialize the inner side's tuples once,
   not once per outer row. *)
let tuples rel = Array.init (Relation.cardinality rel) (Relation.tuple rel)

let cross a b =
  let out = join_output a b in
  let bs = tuples b in
  Relation.iter
    (fun ta -> Array.iter (fun tb -> Relation.append_tuple out (Tuple.concat ta tb)) bs)
    a;
  account c_cross ~inputs:[ a; b ] out

(* Vectorized gate: a direct reference to an int key column.  Int keys
   hash and compare the same on both paths (and never collide across
   types, unlike the general [Value.equal] which lets [Int 1] match
   [Float 1.]), so the chain-hash join below emits exactly the pairs,
   in exactly the order, of the row-path join. *)
let int_key_col rel key =
  let c = rel.Relation.cols in
  match key with
  | Expr.Col name -> begin
      match Schema.find_index rel.Relation.schema name with
      | Some j when Column.ty c.Relation.ccols.(j) = Value.TInt ->
          Some (c, c.Relation.ccols.(j))
      | _ -> None
    end
  | _ -> None

(* The int-key join's chain heads: open addressing over the build rows,
   linear probing, {!Gus_util.Inttbl.capacity_for} slots (load ≤ 0.5).
   [heads.(s)] is the first build row of the slot's key, [-1] an empty
   slot; the key is read back from the build key column [kd].  No [Int64]
   boxing, no bucket cells, no options on the probe path.  [key_slot] is
   the slot holding key [k], or the empty slot where it would go. *)
let[@inline] key_slot (kd : Column.int_ba) heads mask k =
  let s = ref (Gus_util.Hashing.mix_int 0 k land mask) in
  while
    let r = Array.unsafe_get heads !s in
    r >= 0 && Bigarray.Array1.unsafe_get kd r <> k
  do
    s := (!s + 1) land mask
  done;
  !s

(* Explicit lineage columns for one join side restricted to [idx]. *)
let gather_lineage (c : Relation.cols) idx count =
  match c.Relation.clineage with
  | Relation.Identity -> [| Column.of_int_array idx count |]
  | Relation.Explicit ls -> Array.map (fun col -> Column.gather col idx count) ls

let equi_join_cols ~name schema lschema ca ka cb kb =
  (* Build on the smaller side; chains built backwards so they emit in
     build order, matching the row path. *)
  let build_c, build_k, probe_c, probe_k, build_left =
    if ca.Relation.cn <= cb.Relation.cn then (ca, ka, cb, kb, true)
    else (cb, kb, ca, ka, false)
  in
  let nbuild = build_c.Relation.cn in
  let kd = Column.int_data build_k in
  let cap = Gus_util.Inttbl.capacity_for nbuild in
  let mask = cap - 1 in
  let heads = Array.make cap (-1) in
  let next = Array.make (max 1 nbuild) (-1) in
  for i = nbuild - 1 downto 0 do
    if not (Column.is_null build_k i) then begin
      let s = key_slot kd heads mask (Column.get_int build_k i) in
      next.(i) <- heads.(s);
      heads.(s) <- i
    end
  done;
  let build_idx = Vec.create () and probe_idx = Vec.create () in
  for i = 0 to probe_c.Relation.cn - 1 do
    if not (Column.is_null probe_k i) then begin
      let j = ref heads.(key_slot kd heads mask (Column.get_int probe_k i)) in
      while !j >= 0 do
        Vec.push build_idx !j;
        Vec.push probe_idx i;
        j := next.(!j)
      done
    end
  done;
  let count = Vec.length build_idx in
  let build_idx = Vec.to_array build_idx and probe_idx = Vec.to_array probe_idx in
  let a_idx, b_idx =
    if build_left then (build_idx, probe_idx) else (probe_idx, build_idx)
  in
  let side c idx = Array.map (fun col -> Column.gather col idx count) c.Relation.ccols in
  let ccols = Array.append (side ca a_idx) (side cb b_idx) in
  let clineage =
    Relation.Explicit
      (Array.append (gather_lineage ca a_idx count) (gather_lineage cb b_idx count))
  in
  Relation.derived_cols ~name schema lschema { Relation.cn = count; ccols; clineage }

let equi_join ~left_key ~right_key a b =
  let vectorized =
    match (int_key_col a left_key, int_key_col b right_key) with
    | Some (ca, ka), Some (cb, kb) ->
        let schema = Schema.concat a.Relation.schema b.Relation.schema in
        let lschema =
          Lineage.schema_concat a.Relation.lineage_schema b.Relation.lineage_schema
        in
        Some
          (equi_join_cols ~name:(joined_name a b) schema lschema ca ka cb kb)
    | _ -> None
  in
  match vectorized with
  | Some out -> account c_equi_join ~inputs:[ a; b ] out
  | None ->
  let out = join_output a b in
  let lkey = Expr.bind a.Relation.schema left_key in
  let rkey = Expr.bind b.Relation.schema right_key in
  (* Build on the smaller side. *)
  let build, probe, build_key, probe_key, build_left =
    if Relation.cardinality a <= Relation.cardinality b then (a, b, lkey, rkey, true)
    else (b, a, rkey, lkey, false)
  in
  (* Buckets as index chains into the build side: [table] holds the chain
     head per key, [next] the per-row link (-1 ends a chain).  Presized
     once; no per-bucket vectors, no resizing during the build. *)
  let nbuild = Relation.cardinality build in
  let table : int VTbl.t = VTbl.create (max 16 nbuild) in
  let next = Array.make (max 1 nbuild) (-1) in
  (* Backwards, so the prepend-built chains emit matches in build order
     (same output order as the seed's per-bucket vectors). *)
  for i = nbuild - 1 downto 0 do
    let k = build_key (Relation.tuple build i) in
    if not (Value.is_null k) then begin
      (match VTbl.find_opt table k with
      | Some head -> next.(i) <- head
      | None -> ());
      VTbl.replace table k i
    end
  done;
  Relation.iter
    (fun tup ->
      let k = probe_key tup in
      if not (Value.is_null k) then
        match VTbl.find_opt table k with
        | None -> ()
        | Some head ->
            let i = ref head in
            while !i >= 0 do
              let btup = Relation.tuple build !i in
              let joined =
                if build_left then Tuple.concat btup tup else Tuple.concat tup btup
              in
              Relation.append_tuple out joined;
              i := next.(!i)
            done)
    probe;
  account c_equi_join ~inputs:[ a; b ] out

let theta_join pred a b =
  let out = join_output a b in
  let keep = Expr.bind_predicate out.Relation.schema pred in
  let bs = tuples b in
  Relation.iter
    (fun ta ->
      Array.iter
        (fun tb ->
          let joined = Tuple.concat ta tb in
          if keep joined then Relation.append_tuple out joined)
        bs)
    a;
  account c_theta_join ~inputs:[ a; b ] out

let require_same_shape a b =
  if Schema.arity a.Relation.schema <> Schema.arity b.Relation.schema then
    invalid_arg "Ops.union: schema arity mismatch";
  if not (Lineage.schema_equal a.Relation.lineage_schema b.Relation.lineage_schema)
  then invalid_arg "Ops.union: lineage schema mismatch"

let union_all a b =
  require_same_shape a b;
  let out =
    Relation.derived
      ~name:(Printf.sprintf "(%s+%s)" a.Relation.name b.Relation.name)
      a.Relation.schema a.Relation.lineage_schema
  in
  Relation.iter (Relation.append_tuple out) a;
  Relation.iter (Relation.append_tuple out) b;
  account c_union_all ~inputs:[ a; b ] out

let union_lineage a b =
  require_same_shape a b;
  let out =
    Relation.derived
      ~name:(Printf.sprintf "(%s|%s)" a.Relation.name b.Relation.name)
      a.Relation.schema a.Relation.lineage_schema
  in
  let seen =
    LTbl.create (max 16 (Relation.cardinality a + Relation.cardinality b))
  in
  let push tup =
    (* Key on the lineage array itself — tuples never mutate it. *)
    let key = tup.Tuple.lineage in
    if not (LTbl.mem seen key) then begin
      LTbl.add seen key ();
      Relation.append_tuple out tup
    end
  in
  Relation.iter push a;
  Relation.iter push b;
  account c_union_lineage ~inputs:[ a; b ] out

let distinct rel =
  let out =
    Relation.derived
      ~name:(Printf.sprintf "distinct(%s)" rel.Relation.name)
      rel.Relation.schema rel.Relation.lineage_schema
  in
  let seen = VsTbl.create (max 16 (Relation.cardinality rel)) in
  Relation.iter
    (fun tup ->
      if not (VsTbl.mem seen tup.Tuple.values) then begin
        VsTbl.add seen tup.Tuple.values ();
        Relation.append_tuple out tup
      end)
    rel;
  account c_distinct ~inputs:[ rel ] out
