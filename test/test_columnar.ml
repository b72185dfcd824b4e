(* Columnar-engine parity suite.

   The columnar store and its kernels must be observationally identical —
   same values bit for bit, same lineage, same row order, same
   exceptions — to the boxed row engine kept as the test oracle
   ([Row_oracle]).  Random relations include NULLs, dictionary-encoded
   strings, negative zero and empty inputs; random expressions include
   arithmetic that raises (division by zero) and unknown columns,
   because "identical" covers the failure paths too.

   1. QCheck: select / project / equi-join outputs equal the oracle's,
      on the vectorized and the fallback paths.
   2. QCheck: every sampler draws the oracle's sample from the same
      seed.
   3. Snapshot: save → load round-trips bit-identically (values, lineage,
      schema), re-saving the loaded database is byte-identical, mapped
      columns are copy-on-append, and corrupt/versioned files raise the
      documented exceptions.
   4. Streaming SBox: Query-1 estimates equal the oracle's bit for bit
      and are still pinned to the seed implementation's value. *)

module Rng = Gus_util.Rng
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Sampler = Gus_sampling.Sampler
module Harness = Gus_experiments.Harness
open Gus_relational

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

(* ---- bit-level equality ---- *)

let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let schema_eq a b =
  Schema.arity a = Schema.arity b
  && List.for_all
       (fun j -> Schema.column_name a j = Schema.column_name b j
                 && Schema.column_ty a j = Schema.column_ty b j)
       (List.init (Schema.arity a) Fun.id)

let tuple_eq (ta : Tuple.t) (tb : Tuple.t) =
  Array.length ta.Tuple.values = Array.length tb.Tuple.values
  && Array.for_all2 value_eq ta.Tuple.values tb.Tuple.values
  && ta.Tuple.lineage = tb.Tuple.lineage

let oracle_eq (a : Row_oracle.t) (b : Row_oracle.t) =
  a.Row_oracle.name = b.Row_oracle.name
  && schema_eq a.Row_oracle.schema b.Row_oracle.schema
  && a.Row_oracle.lineage_schema = b.Row_oracle.lineage_schema
  && Array.length a.Row_oracle.rows = Array.length b.Row_oracle.rows
  && Array.for_all2 tuple_eq a.Row_oracle.rows b.Row_oracle.rows

(* A columnar relation equals an oracle relation when its tuples, read
   back through the row API, do. *)
let matches rel o = oracle_eq (Row_oracle.of_relation rel) o
let rel_eq a b = oracle_eq (Row_oracle.of_relation a) (Row_oracle.of_relation b)

(* Run the kernel and the oracle and demand the same outcome — result or
   exception. *)
let outcome f =
  match f () with
  | r -> Ok r
  | exception Value.Type_error m -> Error ("type_error: " ^ m)
  | exception Expr.Bind_error m -> Error ("bind_error: " ^ m)
  | exception Schema.Unknown_column c -> Error ("unknown_column: " ^ c)
  | exception Invalid_argument m -> Error ("invalid_arg: " ^ m)

let outcomes_agree a b =
  match (a, b) with
  | Ok rel, Ok o -> matches rel o
  | Error ma, Error mb -> ma = mb
  | _ -> false

(* ---- random relations (columnar and oracle, same data) ---- *)

let dict = [| "alpha"; "beta"; "gamma"; "delta" |]

let schema =
  Schema.make
    [ { Schema.name = "f"; ty = Value.TFloat };
      { Schema.name = "i"; ty = Value.TInt };
      { Schema.name = "s"; ty = Value.TStr };
      { Schema.name = "b"; ty = Value.TBool } ]

(* One int code per cell; code → value keeps the generator shrinkable
   while still covering NULLs (≈1/7 of cells), both signs, -0.0 and the
   whole dictionary. *)
let value_of_code j code =
  if code mod 7 = 0 then Value.Null
  else
    match j with
    | 0 ->
        let x = float_of_int ((code mod 13) - 6) /. 3.0 in
        Value.Float (if code mod 11 = 1 then -0.0 else x)
    | 1 -> Value.Int ((code mod 11) - 5)
    | 2 -> Value.Str dict.(code mod Array.length dict)
    | _ -> Value.Bool (code mod 2 = 0)

(* Join right-hand side: distinct names so Schema.concat is legal. *)
let schema_r =
  Schema.make
    [ { Schema.name = "rf"; ty = Value.TFloat };
      { Schema.name = "ri"; ty = Value.TInt };
      { Schema.name = "rs"; ty = Value.TStr };
      { Schema.name = "rb"; ty = Value.TBool } ]

let build ?(schema = schema) ~name codes =
  let rel = Relation.create_base ~name schema in
  List.iter
    (fun row -> Relation.append_row rel (Array.mapi value_of_code row))
    codes;
  rel

(* The same data as a columnar base and as oracle rows, the latter built
   straight from the codes, not read back through the columns. *)
let with_oracle ?(schema = schema) ~name codes =
  ( build ~schema ~name codes,
    { Row_oracle.name;
      schema;
      lineage_schema = Lineage.schema_of name;
      rows =
        Array.of_list
          (List.mapi
             (fun i row -> Tuple.make (Array.mapi value_of_code row) [| i |])
             codes) } )

let rows_gen =
  QCheck2.Gen.(list_size (int_range 0 80) (array_size (pure 4) (int_range 0 1000)))

(* ---- random expressions ---- *)

let leaf_gen =
  QCheck2.Gen.oneofl
    [ Expr.col "f"; Expr.col "i"; Expr.col "s"; Expr.col "b";
      Expr.col "nosuch"; Expr.int 2; Expr.int 0; Expr.int (-3);
      Expr.float 1.5; Expr.float 0.0; Expr.str "beta"; Expr.bool true;
      Expr.bool false; Expr.null ]

let rec expr_gen n =
  if n <= 0 then leaf_gen
  else
    QCheck2.Gen.(
      frequency
        [ (2, leaf_gen);
          ( 3,
            map3
              (fun o a b -> Expr.Bin (o, a, b))
              (oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ])
              (expr_gen (n - 1)) (expr_gen (n - 1)) );
          ( 3,
            map3
              (fun o a b -> Expr.Cmp (o, a, b))
              (oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
              (expr_gen (n - 1)) (expr_gen (n - 1)) );
          (1, map2 (fun a b -> Expr.And (a, b)) (expr_gen (n - 1)) (expr_gen (n - 1)));
          (1, map2 (fun a b -> Expr.Or (a, b)) (expr_gen (n - 1)) (expr_gen (n - 1)));
          (1, map (fun a -> Expr.Not a) (expr_gen (n - 1)));
          (1, map (fun a -> Expr.Neg a) (expr_gen (n - 1))) ])

(* ---- 1. operator parity ---- *)

let print_case (codes, e) =
  Printf.sprintf "n=%d expr=%s" (List.length codes) (Expr.to_string e)

let prop_select_parity =
  QCheck2.Test.make ~name:"select: cols = rows" ~count:250
    ~print:print_case
    QCheck2.Gen.(pair rows_gen (expr_gen 3))
    (fun (codes, e) ->
      let c, o = with_oracle ~name:"t" codes in
      outcomes_agree
        (outcome (fun () -> Ops.select e c))
        (outcome (fun () -> Row_oracle.select e o)))

let prop_project_parity =
  QCheck2.Test.make ~name:"project: cols = rows" ~count:250
    ~print:(fun (codes, e1, e2) ->
      Printf.sprintf "n=%d a=%s b=%s" (List.length codes) (Expr.to_string e1)
        (Expr.to_string e2))
    QCheck2.Gen.(triple rows_gen (expr_gen 2) (expr_gen 2))
    (fun (codes, e1, e2) ->
      let c, o = with_oracle ~name:"t" codes in
      let fields = [ ("a", e1); ("b", e2); ("f2", Expr.col "f") ] in
      outcomes_agree
        (outcome (fun () -> Ops.project fields c))
        (outcome (fun () -> Row_oracle.project fields o)))

let prop_join_parity =
  QCheck2.Test.make ~name:"equi-join: cols = rows (both key paths)" ~count:150
    ~print:(fun (a, b) ->
      Printf.sprintf "left=%d right=%d" (List.length a) (List.length b))
    QCheck2.Gen.(pair rows_gen rows_gen)
    (fun (acodes, bcodes) ->
      let ac, ao = with_oracle ~name:"l" acodes in
      let bc, bo = with_oracle ~schema:schema_r ~name:"r" bcodes in
      (* The int-key build/probe kernel and the [Value]-keyed fallback
         (float, string and mixed int/float keys) must both match the
         oracle: same output rows in the same order, NULL keys never
         matching, [Int 1] matching [Float 1.] on the fallback. *)
      List.for_all
        (fun (lk, rk) ->
          let left_key = Expr.col lk and right_key = Expr.col rk in
          outcomes_agree
            (outcome (fun () -> Ops.equi_join ~left_key ~right_key ac bc))
            (outcome (fun () -> Row_oracle.equi_join ~left_key ~right_key ao bo)))
        [ ("i", "ri"); ("f", "rf"); ("s", "rs"); ("i", "rf") ])

let prop_column_values_parity =
  QCheck2.Test.make ~name:"column_values/sum_column: cols = rows" ~count:150
    ~print:(fun codes -> Printf.sprintf "n=%d" (List.length codes))
    rows_gen
    (fun codes ->
      let c, o = with_oracle ~name:"t" codes in
      let oracle_values j =
        Array.map (fun tup -> Tuple.value tup j) o.Row_oracle.rows
      in
      (* The row engine's SUM: NULLs skipped, the rest read as floats. *)
      let oracle_sum j =
        Array.fold_left
          (fun acc v -> match v with Value.Null -> acc | v -> acc +. Value.to_float v)
          0.0 (oracle_values j)
      in
      List.for_all
        (fun (j, col) ->
          let vc = Relation.column_values c col and vo = oracle_values j in
          Array.length vc = Array.length vo && Array.for_all2 value_eq vc vo)
        [ (0, "f"); (1, "i"); (2, "s"); (3, "b") ]
      && Int64.equal
           (Int64.bits_of_float (Relation.sum_column c "f"))
           (Int64.bits_of_float (oracle_sum 0))
      && Int64.equal
           (Int64.bits_of_float (Relation.sum_column c "i"))
           (Int64.bits_of_float (oracle_sum 1)))

(* ---- GROUP BY partition parity ---- *)

(* GROUP BY groups by rendered key; [Runner.partition_groups] reads bare
   int, bool and string columns raw and renders each distinct raw value
   once.  Every value class where raw and rendered equality part ways is
   drawn here: NULL beside the string "NULL", two floats that render
   alike under [%g], [-0.] beside [0.], NaN, bools, plus computed keys
   (one of which raises on a zero). *)
let group_schema =
  Schema.make
    [ { Schema.name = "gs"; ty = Value.TStr };
      { Schema.name = "gi"; ty = Value.TInt };
      { Schema.name = "gf"; ty = Value.TFloat };
      { Schema.name = "gb"; ty = Value.TBool } ]

let group_value j code =
  let pick a = a.(code mod Array.length a) in
  match j with
  | 0 -> pick Value.[| Null; Str "NULL"; Str "a"; Str "b"; Str "" |]
  | 1 -> pick Value.[| Null; Int (-1); Int 0; Int 1; Int 2 |]
  | 2 ->
      pick
        Value.
          [| Null; Float 0.1234567; Float 0.1234568; Float (-0.0); Float 0.0;
             Float 1.5; Float Float.nan |]
  | _ -> pick Value.[| Null; Bool true; Bool false |]

let group_keys =
  [| Expr.col "gs"; Expr.col "gi"; Expr.col "gf"; Expr.col "gb";
     Expr.(col "gi" * int 2); Expr.(col "gf" + float 0.0);
     Expr.(int 6 / col "gi") |]

let prop_partition_parity =
  QCheck2.Test.make ~name:"group by partition: raw = rendered" ~count:300
    ~print:(fun (codes, ks) ->
      Printf.sprintf "n=%d keys=[%s]" (List.length codes)
        (String.concat "; "
           (List.map (fun k -> Expr.to_string group_keys.(k)) ks)))
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (array_size (pure 4) (int_range 0 1000)))
        (list_size (int_range 1 3) (int_range 0 (Array.length group_keys - 1))))
    (fun (codes, ks) ->
      let rel = Relation.create_base ~name:"g" group_schema in
      List.iter
        (fun row -> Relation.append_row rel (Array.mapi group_value row))
        codes;
      let keys = List.map (fun k -> group_keys.(k)) ks in
      let run f =
        match f keys rel with
        | groups -> Ok groups
        | exception Value.Type_error m -> Error m
      in
      run Gus_sql.Runner.partition_groups = run Row_oracle.partition_groups)

(* ---- 2. sampler parity ---- *)

let samplers n =
  [ Sampler.Bernoulli 0.35;
    Sampler.Wor (max 1 (n / 2));
    Sampler.Wor (n + 3);
    Sampler.Wr (max 1 (n / 2));
    Sampler.Block { rows_per_block = 4; p = 0.5 };
    Sampler.Hash_bernoulli { seed = 11; p = 0.4 } ]

let prop_sampler_parity =
  QCheck2.Test.make ~name:"samplers: cols = rows (same seed)"
    ~count:120
    ~print:(fun (codes, seed) ->
      Printf.sprintf "n=%d seed=%d" (List.length codes) seed)
    QCheck2.Gen.(pair rows_gen (int_range 0 1000))
    (fun (codes, seed) ->
      let c, o = with_oracle ~name:"t" codes in
      List.for_all
        (fun s ->
          matches
            (Sampler.apply s (Rng.create seed) c)
            (Row_oracle.sample s (Rng.create seed) o))
        (samplers (List.length codes)))

(* ---- 3. snapshots ---- *)

let temp_snap () = Filename.temp_file "gus-test" ".snap"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let mixed_db () =
  let db = Database.create () in
  let rng = Rng.create 31 in
  let codes n =
    List.init n (fun _ -> Array.init 4 (fun _ -> Rng.int rng 1000))
  in
  Database.add db (build ~name:"t" (codes 257));
  (* A base whose lineage went explicit must load as a plain base, an
     empty relation must round-trip, and an all-NULL column exercises
     the bitmap path. *)
  Database.add db
    (Relation.gather_rows (build ~name:"explicit" (codes 41))
       (Array.init 41 Fun.id) 41);
  Database.add db (build ~name:"empty" []);
  Database.add db (build ~name:"allnull" [ [| 0; 0; 0; 0 |]; [| 7; 7; 7; 7 |] ]);
  db

let test_snapshot_roundtrip () =
  let db = mixed_db () in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snapshot.save ~path db;
  let db' = Snapshot.load ~path in
  Alcotest.(check (list string))
    "names" (Database.names db) (Database.names db');
  List.iter
    (fun name ->
      let orig = Database.find db name and got = Database.find db' name in
      check_bool (name ^ " bit-identical") true (rel_eq orig got);
      (* Loaded relations are bases with identity lineage. *)
      match got.Relation.cols.Relation.clineage with
      | Relation.Identity -> ()
      | Relation.Explicit _ -> Alcotest.fail (name ^ ": expected identity lineage"))
    (Database.names db);
  (* Determinism: re-saving the loaded database is byte-identical. *)
  let path2 = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path2) @@ fun () ->
  Snapshot.save ~path:path2 db';
  check_bool "resave byte-identical" true (read_file path = read_file path2)

let test_snapshot_mapped_copy_on_append () =
  let db = mixed_db () in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snapshot.save ~path db;
  let before = read_file path in
  let db' = Snapshot.load ~path in
  let rel = Database.find db' "t" in
  Relation.append_row rel
    [| Value.Float 9.5; Value.Int 3; Value.Str "beta"; Value.Bool true |];
  check_int "append visible" 258 (Relation.cardinality rel);
  check_bool "appended row readable" true
    (value_eq (Value.Float 9.5) (Relation.tuple rel 257).Tuple.values.(0));
  (* The mapped file must not be written through. *)
  check_string "file bytes unchanged" before (read_file path);
  let db'' = Snapshot.load ~path in
  check_int "reload unchanged" 257 (Relation.cardinality (Database.find db'' "t"))

let test_snapshot_errors () =
  let db = mixed_db () in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snapshot.save ~path db;
  let bytes = Bytes.of_string (read_file path) in
  let write_variant mutate =
    let b = Bytes.copy bytes in
    mutate b;
    let p = temp_snap () in
    let oc = open_out_bin p in
    output_bytes oc b;
    close_out oc;
    p
  in
  let expect_format what p =
    Fun.protect ~finally:(fun () -> Sys.remove p) @@ fun () ->
    match Snapshot.load ~path:p with
    | _ -> Alcotest.fail (what ^ ": expected Format_error")
    | exception Snapshot.Format_error _ -> ()
  in
  expect_format "bad magic" (write_variant (fun b -> Bytes.set b 0 'X'));
  expect_format "endianness"
    (write_variant (fun b -> Bytes.set_int64_le b 8 0x0807060504030201L));
  (let p = write_variant (fun b -> Bytes.set b 16 '\009') in
   Fun.protect ~finally:(fun () -> Sys.remove p) @@ fun () ->
   match Snapshot.load ~path:p with
   | _ -> Alcotest.fail "version: expected Version_mismatch"
   | exception Snapshot.Version_mismatch { found; expected } ->
       check_int "found" 9 found;
       check_int "expected" 1 expected);
  (* Truncation at several depths: header, descriptors, column data. *)
  List.iter
    (fun keep ->
      let p = temp_snap () in
      let oc = open_out_bin p in
      output_bytes oc (Bytes.sub bytes 0 keep);
      close_out oc;
      expect_format (Printf.sprintf "truncated to %d" keep) p)
    [ 4; 40; 96; Bytes.length bytes - 9 ];
  match Snapshot.load ~path:"/nonexistent/gus.snap" with
  | _ -> Alcotest.fail "missing file: expected Format_error"
  | exception Snapshot.Format_error _ -> ()

(* ---- 4. streaming SBox parity + pinned Query-1 ---- *)

let test_stream_query1_parity () =
  let db = Harness.db_cached ~scale:0.1 in
  let plan = Harness.query1_plan () in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let bits = Int64.bits_of_float in
  (* The oracle's sample, its revenue evaluated on the boxed rows, through
     the SBox. *)
  let oracle seed =
    let o = Row_oracle.exec db (Rng.create seed) plan in
    let f = Expr.bind_float o.Row_oracle.schema Harness.revenue_f in
    let rel =
      Relation.derived
        (Schema.make [ { Schema.name = "f"; ty = Value.TFloat } ])
        o.Row_oracle.lineage_schema
    in
    Array.iter
      (fun tup ->
        Relation.append_tuple rel
          (Tuple.make [| Value.Float (f tup) |] tup.Tuple.lineage))
      o.Row_oracle.rows;
    Sbox.of_relation ~gus ~f:(Expr.col "f") rel
  in
  List.iter
    (fun seed ->
      let c = Sbox.of_plan ~gus ~f:Harness.revenue_f db (Rng.create seed) plan
      and r = oracle seed in
      check_int (Printf.sprintf "seed %d: n_tuples" seed) r.Sbox.n_tuples
        c.Sbox.n_tuples;
      check_bool (Printf.sprintf "seed %d: estimate bits" seed) true
        (Int64.equal (bits r.Sbox.estimate) (bits c.Sbox.estimate));
      check_bool (Printf.sprintf "seed %d: total_f bits" seed) true
        (Int64.equal (bits r.Sbox.total_f) (bits c.Sbox.total_f)))
    [ 5; 17; 4242 ];
  (* The columnar fast path must still reproduce the seed implementation's
     pinned Query-1 estimate (captured before the columnar rewrite). *)
  let r =
    Sbox.of_plan ~gus ~f:Harness.revenue_f db (Rng.create 5) plan
  in
  check_int "pinned n_tuples" 399 r.Sbox.n_tuples;
  let close_rel what expected actual =
    check_bool what true
      (Float.abs (expected -. actual)
      <= 1e-9 *. Float.max 1.0 (Float.abs expected))
  in
  close_rel "pinned estimate" 30171033.0121831 r.Sbox.estimate

let test_snapshot_query_parity () =
  (* Estimates off a restored snapshot are bit-identical to estimates off
     the generated database — the serve `register {"source":"snapshot"}`
     contract. *)
  let db = Harness.db_cached ~scale:0.1 in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snapshot.save ~path db;
  let db' = Snapshot.load ~path in
  let plan = Harness.query1_plan () in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let run d = Sbox.of_plan ~gus ~f:Harness.revenue_f d (Rng.create 5) plan in
  let a = run db and b = run db' in
  check_int "n_tuples" a.Sbox.n_tuples b.Sbox.n_tuples;
  check_bool "estimate bits" true
    (Int64.equal
       (Int64.bits_of_float a.Sbox.estimate)
       (Int64.bits_of_float b.Sbox.estimate))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_select_parity; prop_project_parity; prop_join_parity;
      prop_column_values_parity; prop_sampler_parity; prop_partition_parity ]

let () =
  Alcotest.run "columnar"
    [ ("parity", qcheck_tests);
      ( "snapshot",
        [ Alcotest.test_case "round-trip bit-identical" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "mapped columns copy on append" `Quick
            test_snapshot_mapped_copy_on_append;
          Alcotest.test_case "corrupt and versioned files" `Quick
            test_snapshot_errors;
          Alcotest.test_case "restored estimates bit-identical" `Quick
            test_snapshot_query_parity ] );
      ( "streaming",
        [ Alcotest.test_case "Query-1 cols = rows + pinned" `Quick
            test_stream_query1_parity ] ) ]
