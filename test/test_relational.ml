(* Tests for gus_relational: values, schemas, lineage, expressions,
   operators, catalog, CSV. *)

open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let close what = check (Alcotest.float 1e-9) what

let value_testable =
  Alcotest.testable Value.pp (fun a b -> Value.equal a b || (a = b))

(* Small fixture relations. *)
let dept_schema =
  Schema.make
    [ { Schema.name = "d_id"; ty = Value.TInt };
      { Schema.name = "d_name"; ty = Value.TStr } ]

let emp_schema =
  Schema.make
    [ { Schema.name = "e_id"; ty = Value.TInt };
      { Schema.name = "e_dept"; ty = Value.TInt };
      { Schema.name = "e_salary"; ty = Value.TFloat } ]

let make_dept () =
  let d = Relation.create_base ~name:"dept" dept_schema in
  List.iter
    (fun (i, n) -> Relation.append_row d [| Value.Int i; Value.Str n |])
    [ (1, "eng"); (2, "sales"); (3, "hr") ];
  d

let make_emp () =
  let e = Relation.create_base ~name:"emp" emp_schema in
  List.iter
    (fun (i, d, s) ->
      Relation.append_row e [| Value.Int i; Value.Int d; Value.Float s |])
    [ (10, 1, 100.0); (11, 1, 120.0); (12, 2, 90.0); (13, 2, 95.0); (14, 9, 50.0) ];
  e

(* ---- Value ---- *)

let test_value_arith () =
  check value_testable "int add" (Value.Int 5) (Value.add (Value.Int 2) (Value.Int 3));
  check value_testable "mixed mul" (Value.Float 7.5)
    (Value.mul (Value.Int 3) (Value.Float 2.5));
  check value_testable "null propagates" Value.Null
    (Value.add Value.Null (Value.Int 1));
  check value_testable "neg" (Value.Float (-2.0)) (Value.neg (Value.Float 2.0));
  check value_testable "int div" (Value.Int 2) (Value.div (Value.Int 5) (Value.Int 2));
  check value_testable "float div" (Value.Float 2.5)
    (Value.div (Value.Float 5.0) (Value.Int 2))

let test_value_errors () =
  Alcotest.check_raises "div by zero" (Value.Type_error "division by zero")
    (fun () -> ignore (Value.div (Value.Int 1) (Value.Int 0)));
  check_bool "string arith raises" true
    (try
       ignore (Value.add (Value.Str "a") (Value.Int 1));
       false
     with Value.Type_error _ -> true)

let test_value_compare () =
  check (Alcotest.option Alcotest.int) "int lt" (Some (-1))
    (Value.compare_sql (Value.Int 1) (Value.Int 2));
  check (Alcotest.option Alcotest.int) "mixed eq" (Some 0)
    (Value.compare_sql (Value.Int 2) (Value.Float 2.0));
  check (Alcotest.option Alcotest.int) "null" None
    (Value.compare_sql Value.Null (Value.Int 1));
  check (Alcotest.option Alcotest.int) "incomparable" None
    (Value.compare_sql (Value.Str "a") (Value.Int 1));
  check (Alcotest.option Alcotest.int) "strings" (Some 1)
    (Value.compare_sql (Value.Str "b") (Value.Str "a"))

let test_value_hash_consistent () =
  check_bool "int/float equal hash equal" true
    (Value.hash (Value.Int 5) = Value.hash (Value.Float 5.0));
  check_bool "distinct ints distinct hashes" true
    (Value.hash (Value.Int 5) <> Value.hash (Value.Int 6))

let test_value_conforms () =
  check_bool "null conforms anywhere" true (Value.conforms Value.Null Value.TStr);
  check_bool "int conforms" true (Value.conforms (Value.Int 1) Value.TInt);
  check_bool "mismatch" false (Value.conforms (Value.Int 1) Value.TStr)

(* ---- Schema ---- *)

let test_schema_lookup () =
  check_int "index_of" 1 (Schema.index_of emp_schema "e_dept");
  check_bool "mem" true (Schema.mem emp_schema "e_salary");
  check_bool "not mem" false (Schema.mem emp_schema "nope");
  Alcotest.check_raises "unknown" (Schema.Unknown_column "nope") (fun () ->
      ignore (Schema.index_of emp_schema "nope"))

let test_schema_duplicate () =
  check_bool "duplicate rejected" true
    (try
       ignore
         (Schema.make
            [ { Schema.name = "x"; ty = Value.TInt };
              { Schema.name = "x"; ty = Value.TInt } ]);
       false
     with Invalid_argument _ -> true)

let test_schema_concat_project () =
  let c = Schema.concat dept_schema emp_schema in
  check_int "arity" 5 (Schema.arity c);
  check Alcotest.string "order preserved" "e_id" (Schema.column_name c 2);
  let p = Schema.project emp_schema [ "e_salary"; "e_id" ] in
  check_int "projected arity" 2 (Schema.arity p);
  check Alcotest.string "projection order" "e_salary" (Schema.column_name p 0)

let test_schema_check_tuple () =
  Schema.check_tuple dept_schema [| Value.Int 1; Value.Str "x" |];
  Schema.check_tuple dept_schema [| Value.Null; Value.Null |];
  check_bool "wrong arity" true
    (try Schema.check_tuple dept_schema [| Value.Int 1 |]; false
     with Invalid_argument _ -> true);
  check_bool "wrong type" true
    (try Schema.check_tuple dept_schema [| Value.Str "x"; Value.Str "y" |]; false
     with Value.Type_error _ -> true)

(* ---- Lineage ---- *)

let test_lineage_schema () =
  let a = Lineage.schema_of "r" and b = Lineage.schema_of "s" in
  let c = Lineage.schema_concat a b in
  check_int "length" 2 (Array.length c);
  check_bool "equal" true (Lineage.schema_equal c [| "r"; "s" |]);
  Alcotest.check_raises "overlap" (Lineage.Overlap "r") (fun () ->
      ignore (Lineage.schema_concat c (Lineage.schema_of "r")))

let test_lineage_common () =
  let t = Gus_util.Subset.elements (Lineage.common [| 1; 2; 3 |] [| 1; 9; 3 |]) in
  check (Alcotest.list Alcotest.int) "common slots" [ 0; 2 ] t;
  check_bool "mismatched lengths raise" true
    (try ignore (Lineage.common [| 1 |] [| 1; 2 |]); false
     with Invalid_argument _ -> true)

let test_lineage_restrict () =
  check (Alcotest.list Alcotest.int) "restrict" [ 5; 7 ]
    (Array.to_list (Lineage.restrict [| 5; 6; 7 |] ~positions:[ 0; 2 ]))

(* ---- Relation ---- *)

let test_relation_base () =
  let d = make_dept () in
  check_int "cardinality" 3 (Relation.cardinality d);
  let t = Relation.tuple d 1 in
  check (Alcotest.list Alcotest.int) "lineage is row id" [ 1 ]
    (Array.to_list t.Tuple.lineage);
  close "sum over int col" 6.0 (Relation.sum_column d "d_id")

let test_relation_derived_guard () =
  let r = Relation.derived dept_schema [| "a"; "b" |] in
  check_bool "append_row rejected on derived" true
    (try Relation.append_row r [| Value.Int 1; Value.Str "x" |]; false
     with Invalid_argument _ -> true)

let test_relation_append_validates () =
  (* A rejected tuple leaves the relation unchanged: no column may be
     written before every check has passed. *)
  let schema =
    Schema.make
      [ { Schema.name = "f"; ty = Value.TFloat }; { Schema.name = "i"; ty = Value.TInt } ]
  in
  let r = Relation.create_base ~name:"r" schema in
  let rejected tup =
    try Relation.append_tuple r tup; false
    with Value.Type_error _ | Invalid_argument _ -> true
  in
  check_bool "type error" true
    (rejected (Tuple.make [| Value.Float 1.0; Value.Str "x" |] [| 0 |]));
  check_bool "arity" true (rejected (Tuple.make [| Value.Float 1.0 |] [| 0 |]));
  check_bool "lineage width" true
    (rejected (Tuple.make [| Value.Float 1.0; Value.Int 1 |] [| 0; 1 |]));
  Relation.append_row r [| Value.Float 2.0; Value.Int 5 |];
  check_int "one row" 1 (Relation.cardinality r);
  check_bool "row 0 is the appended row" true
    ((Relation.tuple r 0).Tuple.values = [| Value.Float 2.0; Value.Int 5 |])

let test_relation_column_values () =
  let d = make_dept () in
  check (Alcotest.list value_testable) "column"
    [ Value.Str "eng"; Value.Str "sales"; Value.Str "hr" ]
    (Array.to_list (Relation.column_values d "d_name"))

(* ---- Expr ---- *)

let test_expr_eval () =
  let e = make_emp () in
  let f = Expr.(col "e_salary" * float 2.0) in
  let ev = Expr.bind e.Relation.schema f in
  check value_testable "eval" (Value.Float 200.0) (ev (Relation.tuple e 0))

let test_expr_predicate () =
  let e = make_emp () in
  let p = Expr.(col "e_salary" > float 95.0 && col "e_dept" = int 1) in
  let keep = Expr.bind_predicate e.Relation.schema p in
  check_bool "row0" true (keep (Relation.tuple e 0));
  check_bool "row3 (sales 95)" false (keep (Relation.tuple e 3))

let test_expr_three_valued () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let tup = Tuple.make [| Value.Null |] [| 0 |] in
  let ev e = Expr.bind schema e tup in
  check value_testable "null cmp" Value.Null Expr.(ev (col "x" = int 1));
  check value_testable "null AND false" (Value.Bool false)
    (ev (Expr.And (Expr.Cmp (Expr.Eq, Expr.col "x", Expr.int 1), Expr.bool false)));
  check value_testable "null OR true" (Value.Bool true)
    (ev (Expr.Or (Expr.Cmp (Expr.Eq, Expr.col "x", Expr.int 1), Expr.bool true)));
  check value_testable "not null" Value.Null
    (ev (Expr.Not (Expr.Cmp (Expr.Eq, Expr.col "x", Expr.int 1))));
  (* WHERE semantics: Null does not pass *)
  check_bool "null fails predicate" false
    (Expr.bind_predicate schema Expr.(col "x" = int 1) tup)

let test_expr_bind_error () =
  let e = make_emp () in
  check_bool "unknown column" true
    (try
       let (_ : Gus_relational.Tuple.t -> Value.t) =
         Expr.bind e.Relation.schema (Expr.col "zzz")
       in
       false
     with Expr.Bind_error _ -> true)

let test_expr_columns () =
  let f = Expr.(col "a" + (col "b" * col "a")) in
  check (Alcotest.list Alcotest.string) "columns dedup ordered" [ "a"; "b" ]
    (Expr.columns f)

let test_expr_bind_float () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TFloat } ] in
  let ev = Expr.bind_float schema (Expr.col "x") in
  close "float" 2.5 (ev (Tuple.make [| Value.Float 2.5 |] [| 0 |]));
  close "null -> 0" 0.0 (ev (Tuple.make [| Value.Null |] [| 0 |]))

let test_expr_pp () =
  check Alcotest.string "render" "((a + 1) * b)"
    (Expr.to_string Expr.((col "a" + int 1) * col "b"))

(* ---- Ops ---- *)

let test_select () =
  let e = make_emp () in
  let r = Ops.select Expr.(col "e_salary" >= float 95.0) e in
  check_int "selected" 3 (Relation.cardinality r);
  (* lineage preserved *)
  let t = Relation.tuple r 0 in
  check (Alcotest.list Alcotest.int) "lineage" [ 0 ] (Array.to_list t.Tuple.lineage)

let test_project () =
  let e = make_emp () in
  let r = Ops.project [ ("double", Expr.(col "e_salary" * float 2.0)) ] e in
  check_int "arity" 1 (Schema.arity r.Relation.schema);
  check value_testable "value" (Value.Float 200.0) (Tuple.value (Relation.tuple r 0) 0);
  check_int "rows" 5 (Relation.cardinality r)

let test_project_int_arith () =
  (* Int arithmetic evaluates to ints ([Value.arith]): the projected
     column is typed int, holds [Int 6], and the vectorized kernel built
     it — it keeps the base's implicit lineage, where the row-at-a-time
     fallback writes an explicit lineage column. *)
  let r =
    Relation.create_base ~name:"r" (Schema.make [ { Schema.name = "i"; ty = Value.TInt } ])
  in
  Relation.append_row r [| Value.Int 3 |];
  let p = Ops.project [ ("x", Expr.(col "i" + col "i")) ] r in
  check_bool "schema int" true (Schema.column_ty p.Relation.schema 0 = Value.TInt);
  check_bool "value Int 6" true (Tuple.value (Relation.tuple p 0) 0 = Value.Int 6);
  check_bool "vectorized" true
    (match p.Relation.cols.Relation.clineage with
    | Relation.Identity -> true
    | Relation.Explicit _ -> false)

let test_cross () =
  let d = make_dept () and e = make_emp () in
  let r = Ops.cross d e in
  check_int "cardinality" 15 (Relation.cardinality r);
  check_int "arity" 5 (Schema.arity r.Relation.schema);
  check_bool "lineage schema" true
    (Lineage.schema_equal r.Relation.lineage_schema [| "dept"; "emp" |])

let test_equi_join_vs_theta () =
  let d = make_dept () and e = make_emp () in
  let hash =
    Ops.equi_join ~left_key:(Expr.col "d_id") ~right_key:(Expr.col "e_dept") d e
  in
  let nested = Ops.theta_join Expr.(col "d_id" = col "e_dept") d e in
  check_int "4 matches (emp 14 dangles)" 4 (Relation.cardinality hash);
  check_int "same as nested loops" (Relation.cardinality nested)
    (Relation.cardinality hash);
  (* join output lineage = (dept row, emp row) pairs; compare as sets *)
  let lineages rel =
    List.sort compare
      (Relation.fold (fun acc t -> Array.to_list t.Tuple.lineage :: acc) [] rel)
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "same lineages"
    (lineages nested) (lineages hash)

let test_join_null_keys () =
  let s = Schema.make [ { Schema.name = "k"; ty = Value.TInt } ] in
  let a = Relation.create_base ~name:"a" s in
  Relation.append_row a [| Value.Null |];
  Relation.append_row a [| Value.Int 1 |];
  let s2 = Schema.make [ { Schema.name = "k2"; ty = Value.TInt } ] in
  let b = Relation.create_base ~name:"b" s2 in
  Relation.append_row b [| Value.Null |];
  Relation.append_row b [| Value.Int 1 |];
  let j = Ops.equi_join ~left_key:(Expr.col "k") ~right_key:(Expr.col "k2") a b in
  check_int "nulls never match" 1 (Relation.cardinality j)

let test_union_all_and_lineage () =
  let e1 = make_emp () and e2 = make_emp () in
  let all = Ops.union_all e1 e2 in
  check_int "union_all keeps duplicates" 10 (Relation.cardinality all);
  let dedup = Ops.union_lineage e1 e2 in
  check_int "union_lineage dedups" 5 (Relation.cardinality dedup)

let test_union_shape_mismatch () =
  let d = make_dept () and e = make_emp () in
  check_bool "mismatch rejected" true
    (try ignore (Ops.union_all d e); false with Invalid_argument _ -> true)

let test_distinct () =
  let s = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let r = Relation.create_base ~name:"r" s in
  List.iter (fun v -> Relation.append_row r [| Value.Int v |]) [ 1; 2; 1; 3; 2 ];
  check_int "distinct" 3 (Relation.cardinality (Ops.distinct r))

(* ---- Database ---- *)

let test_database () =
  let db = Database.create () in
  Database.add db (make_dept ());
  Database.add db (make_emp ());
  check (Alcotest.list Alcotest.string) "names" [ "dept"; "emp" ] (Database.names db);
  check_int "total rows" 8 (Database.total_rows db);
  check_bool "mem" true (Database.mem db "dept");
  Alcotest.check_raises "unknown" (Database.Unknown_relation "zzz") (fun () ->
      ignore (Database.find db "zzz"));
  check_bool "duplicate add" true
    (try Database.add db (make_dept ()); false with Invalid_argument _ -> true)

(* ---- CSV ---- *)

let test_csv_roundtrip () =
  let e = make_emp () in
  let path = Filename.temp_file "gus_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save ~path e;
      let loaded = Csv.load ~path ~name:"emp" emp_schema in
      check_int "row count" 5 (Relation.cardinality loaded);
      close "sum survives" 455.0 (Relation.sum_column loaded "e_salary"))

let test_csv_malformed () =
  let path = Filename.temp_file "gus_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1,2\nnot-an-int,3\n";
      close_out oc;
      let schema =
        Schema.make
          [ { Schema.name = "a"; ty = Value.TInt };
            { Schema.name = "b"; ty = Value.TInt } ]
      in
      check_bool "parse error raised" true
        (try ignore (Csv.load ~path ~name:"r" schema); false
         with Failure _ -> true))

let () =
  Alcotest.run "gus_relational"
    [ ( "value",
        [ Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "errors" `Quick test_value_errors;
          Alcotest.test_case "comparison" `Quick test_value_compare;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistent;
          Alcotest.test_case "conforms" `Quick test_value_conforms ] );
      ( "schema",
        [ Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicate;
          Alcotest.test_case "concat/project" `Quick test_schema_concat_project;
          Alcotest.test_case "check_tuple" `Quick test_schema_check_tuple ] );
      ( "lineage",
        [ Alcotest.test_case "schema ops" `Quick test_lineage_schema;
          Alcotest.test_case "common" `Quick test_lineage_common;
          Alcotest.test_case "restrict" `Quick test_lineage_restrict ] );
      ( "relation",
        [ Alcotest.test_case "base rows" `Quick test_relation_base;
          Alcotest.test_case "derived guard" `Quick test_relation_derived_guard;
          Alcotest.test_case "column_values" `Quick test_relation_column_values;
          Alcotest.test_case "append_tuple validates first" `Quick
            test_relation_append_validates ] );
      ( "expr",
        [ Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "predicate" `Quick test_expr_predicate;
          Alcotest.test_case "three-valued logic" `Quick test_expr_three_valued;
          Alcotest.test_case "bind error" `Quick test_expr_bind_error;
          Alcotest.test_case "columns" `Quick test_expr_columns;
          Alcotest.test_case "bind_float" `Quick test_expr_bind_float;
          Alcotest.test_case "pp" `Quick test_expr_pp ] );
      ( "ops",
        [ Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "cross" `Quick test_cross;
          Alcotest.test_case "equi vs theta join" `Quick test_equi_join_vs_theta;
          Alcotest.test_case "null join keys" `Quick test_join_null_keys;
          Alcotest.test_case "union all / lineage" `Quick test_union_all_and_lineage;
          Alcotest.test_case "union shape mismatch" `Quick test_union_shape_mismatch;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "project int arithmetic" `Quick test_project_int_arith ] );
      ("database", [ Alcotest.test_case "catalog" `Quick test_database ]);
      ( "csv",
        [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "malformed" `Quick test_csv_malformed ] ) ]
