(* Tests for gus_sampling: the physical samplers and the Section-7
   multidimensional subsampler. *)

module Sampler = Gus_sampling.Sampler
module Subsample = Gus_sampling.Subsample
module Rng = Gus_util.Rng
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let int_relation ?(name = "r") ?(column = "x") n =
  let schema = Schema.make [ { Schema.name = column; ty = Value.TInt } ] in
  let rel = Relation.create_base ~name schema in
  for i = 0 to n - 1 do
    Relation.append_row rel [| Value.Int i |]
  done;
  rel

let row_ids rel =
  List.sort compare
    (Relation.fold (fun acc t -> t.Tuple.lineage.(0) :: acc) [] rel)

(* ---- validation ---- *)

let test_validate () =
  Sampler.validate (Sampler.Bernoulli 0.5);
  Sampler.validate (Sampler.Wor 0);
  let raises s =
    try Sampler.validate s; false with Invalid_argument _ -> true
  in
  check_bool "p > 1" true (raises (Sampler.Bernoulli 1.5));
  check_bool "p < 0" true (raises (Sampler.Bernoulli (-0.1)));
  check_bool "negative n" true (raises (Sampler.Wor (-1)));
  check_bool "zero block" true
    (raises (Sampler.Block { rows_per_block = 0; p = 0.5 }))

(* ---- Bernoulli ---- *)

let test_bernoulli_rate () =
  let rel = int_relation 20000 in
  let s = Sampler.apply (Sampler.Bernoulli 0.3) (Rng.create 1) rel in
  let rate = float_of_int (Relation.cardinality s) /. 20000.0 in
  check_bool "empirical rate" true (Float.abs (rate -. 0.3) < 0.02);
  (* edge rates *)
  check_int "p=0 empty" 0
    (Relation.cardinality (Sampler.apply (Sampler.Bernoulli 0.0) (Rng.create 2) rel));
  check_int "p=1 all" 20000
    (Relation.cardinality (Sampler.apply (Sampler.Bernoulli 1.0) (Rng.create 3) rel))

let test_bernoulli_preserves_lineage () =
  let rel = int_relation 100 in
  let s = Sampler.apply (Sampler.Bernoulli 0.5) (Rng.create 4) rel in
  Relation.iter
    (fun t ->
      let id = t.Tuple.lineage.(0) in
      check_bool "value matches id" true (Tuple.value t 0 = Value.Int id))
    s

(* ---- WOR ---- *)

let test_wor_exact_size () =
  let rel = int_relation 500 in
  let s = Sampler.apply (Sampler.Wor 123) (Rng.create 5) rel in
  check_int "exact size" 123 (Relation.cardinality s);
  let ids = row_ids s in
  check_int "distinct ids" 123 (List.length (List.sort_uniq compare ids))

let test_wor_oversized () =
  let rel = int_relation 10 in
  let s = Sampler.apply (Sampler.Wor 50) (Rng.create 6) rel in
  check_int "capped at population" 10 (Relation.cardinality s)

(* ---- WR ---- *)

let test_wr_size_and_duplicates () =
  let rel = int_relation 5 in
  let s = Sampler.apply (Sampler.Wr 100) (Rng.create 7) rel in
  check_int "exact draws" 100 (Relation.cardinality s);
  let distinct = List.length (List.sort_uniq compare (row_ids s)) in
  check_bool "duplicates present" true (distinct < 100)

let test_wr_empty_population () =
  let rel = int_relation 0 in
  let s = Sampler.apply (Sampler.Wr 10) (Rng.create 8) rel in
  check_int "empty" 0 (Relation.cardinality s)

(* ---- Block ---- *)

let test_block_lineage_granularity () =
  let rel = int_relation 1000 in
  let s =
    Sampler.apply (Sampler.Block { rows_per_block = 100; p = 0.5 }) (Rng.create 9) rel
  in
  (* every surviving tuple's lineage is its block id, consistent with its value *)
  Relation.iter
    (fun t ->
      let row = match Tuple.value t 0 with Value.Int i -> i | _ -> assert false in
      check_int "block id" (row / 100) t.Tuple.lineage.(0))
    s;
  (* blocks survive whole: counts per block id are 0 or 100 *)
  let counts = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      let b = t.Tuple.lineage.(0) in
      Hashtbl.replace counts b (1 + Option.value (Hashtbl.find_opt counts b) ~default:0))
    s;
  Hashtbl.iter (fun _ c -> check_int "whole block" 100 c) counts

let test_block_requires_base () =
  let rel = int_relation 10 in
  let derived = Ops.cross rel (int_relation ~name:"s" ~column:"y" 3) in
  check_bool "derived rejected" true
    (try
       ignore
         (Sampler.apply (Sampler.Block { rows_per_block = 2; p = 0.5 })
            (Rng.create 10) derived);
       false
     with Invalid_argument _ -> true)

(* Prop 5: a selection commutes with a GUS filter.  Block over a
   selection draws one coin per block, in block order, up to the block of
   the largest surviving lineage id, so with one seed it keeps exactly
   the rows a selection over the block sample keeps: the same rows, in
   the same order, with the same block lineage.  Sizing the coins by the
   selection's cardinality instead indexed past them and raised. *)
let test_block_over_select () =
  let same_rows a b =
    let rows rel = List.init (Relation.cardinality rel) (Relation.tuple rel) in
    check_int "cardinality" (Relation.cardinality b) (Relation.cardinality a);
    check_bool "same rows, order and lineage" true (rows a = rows b)
  in
  let block = Sampler.Block { rows_per_block = 4; p = 0.5 } in
  let db = Gus_tpch.Tpch.generate ~seed:1 ~scale:0.01 () in
  let pred = Expr.(col "l_quantity" > int 45) in
  let scan = Gus_core.Splan.Scan "lineitem" in
  List.iter
    (fun seed ->
      let run plan = Gus_core.Splan.exec db (Rng.create seed) plan in
      let a = run (Gus_core.Splan.Sample (block, Gus_core.Splan.Select (pred, scan))) in
      let b = run (Gus_core.Splan.Select (pred, Gus_core.Splan.Sample (block, scan))) in
      check_bool "sample non-empty" true (Relation.cardinality a > 0);
      same_rows a b)
    [ 1; 2; 3 ];
  (* The surviving ids all lie past the selection's cardinality. *)
  let rel = int_relation 1000 in
  let pred = Expr.(col "x" >= int 900) in
  List.iter
    (fun seed ->
      same_rows
        (Sampler.apply block (Rng.create seed) (Ops.select pred rel))
        (Ops.select pred (Sampler.apply block (Rng.create seed) rel)))
    [ 4; 5 ]

(* ---- Hash Bernoulli ---- *)

let test_hash_bernoulli_deterministic () =
  let rel = int_relation 1000 in
  let s1 = Sampler.apply (Sampler.Hash_bernoulli { seed = 3; p = 0.4 }) (Rng.create 1) rel in
  let s2 = Sampler.apply (Sampler.Hash_bernoulli { seed = 3; p = 0.4 }) (Rng.create 999) rel in
  check (Alcotest.list Alcotest.int) "rng-independent" (row_ids s1) (row_ids s2);
  let s3 = Sampler.apply (Sampler.Hash_bernoulli { seed = 4; p = 0.4 }) (Rng.create 1) rel in
  check_bool "seed changes the sample" true (row_ids s1 <> row_ids s3)

let test_hash_bernoulli_nested () =
  (* p=0.6 then p=0.3 with the same seed: the 0.3 sample is a subset. *)
  let rel = int_relation 2000 in
  let big = Sampler.apply (Sampler.Hash_bernoulli { seed = 5; p = 0.6 }) (Rng.create 1) rel in
  let small = Sampler.apply (Sampler.Hash_bernoulli { seed = 5; p = 0.3 }) (Rng.create 1) rel in
  let big_set = row_ids big in
  List.iter
    (fun id -> check_bool "nested" true (List.mem id big_set))
    (row_ids small)

(* ---- sampling_fraction ---- *)

let test_sampling_fraction () =
  check (Alcotest.float 1e-9) "bernoulli" 0.25
    (Sampler.sampling_fraction (Sampler.Bernoulli 0.25) ~n:100);
  check (Alcotest.float 1e-9) "wor" 0.1 (Sampler.sampling_fraction (Sampler.Wor 10) ~n:100);
  check (Alcotest.float 1e-9) "wor capped" 1.0
    (Sampler.sampling_fraction (Sampler.Wor 200) ~n:100);
  check (Alcotest.float 1e-9) "wor empty pop" 0.0
    (Sampler.sampling_fraction (Sampler.Wor 10) ~n:0)

(* ---- Subsample ---- *)

let join_fixture () =
  (* r x s cross product: lineage has two slots. *)
  let r = int_relation ~name:"r" 40 in
  let s = int_relation ~name:"s" ~column:"y" 25 in
  Ops.cross r s

let test_subsample_filter_consistency () =
  let j = join_fixture () in
  let dims =
    [ { Subsample.relation = "r"; seed = 1; p = 0.5 };
      { Subsample.relation = "s"; seed = 2; p = 0.5 } ]
  in
  let sub = Subsample.apply dims j in
  (* GUS filter behaviour: if (r_id, s_id) survived, every surviving pair
     with the same r_id agrees on r's decision — i.e. the surviving r_ids
     and s_ids form a combinatorial rectangle. *)
  let r_ids = Hashtbl.create 16 and s_ids = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      Hashtbl.replace r_ids t.Tuple.lineage.(0) ();
      Hashtbl.replace s_ids t.Tuple.lineage.(1) ())
    sub;
  check_int "rectangle" (Hashtbl.length r_ids * Hashtbl.length s_ids)
    (Relation.cardinality sub)

let test_subsample_missing_dim () =
  let j = join_fixture () in
  check_bool "missing dimension" true
    (try ignore (Subsample.apply [ { Subsample.relation = "r"; seed = 1; p = 0.5 } ] j); false
     with Invalid_argument _ -> true);
  check_bool "duplicate dimension" true
    (try
       ignore
         (Subsample.apply
            [ { Subsample.relation = "r"; seed = 1; p = 0.5 };
              { Subsample.relation = "r"; seed = 2; p = 0.5 };
              { Subsample.relation = "s"; seed = 3; p = 0.5 } ]
            j);
       false
     with Invalid_argument _ -> true);
  check_bool "bad rate" true
    (try
       ignore
         (Subsample.apply
            [ { Subsample.relation = "r"; seed = 1; p = 1.5 };
              { Subsample.relation = "s"; seed = 2; p = 0.5 } ]
            j);
       false
     with Invalid_argument _ -> true)

let test_plan_rates () =
  let r = Subsample.plan_rates ~target:100 ~current:10000 ~ndims:2 in
  check (Alcotest.float 1e-9) "sqrt of ratio" 0.1 r;
  check (Alcotest.float 1e-9) "already small" 1.0
    (Subsample.plan_rates ~target:100 ~current:50 ~ndims:2);
  check (Alcotest.float 1e-9) "empty current" 1.0
    (Subsample.plan_rates ~target:100 ~current:0 ~ndims:3);
  check_bool "ndims 0 rejected" true
    (try ignore (Subsample.plan_rates ~target:1 ~current:2 ~ndims:0); false
     with Invalid_argument _ -> true)

let test_subsample_expected_rate () =
  let j = join_fixture () in
  (* 1000 pairs; rate 0.7 per dimension -> expected keep 0.49. *)
  let dims =
    [ { Subsample.relation = "r"; seed = 11; p = 0.7 };
      { Subsample.relation = "s"; seed = 12; p = 0.7 } ]
  in
  let sub = Subsample.apply dims j in
  let rate = float_of_int (Relation.cardinality sub) /. 1000.0 in
  check_bool "near 0.49" true (Float.abs (rate -. 0.49) < 0.15)

let () =
  Alcotest.run "gus_sampling"
    [ ("validate", [ Alcotest.test_case "parameter checks" `Quick test_validate ]);
      ( "bernoulli",
        [ Alcotest.test_case "empirical rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "lineage preserved" `Quick test_bernoulli_preserves_lineage ] );
      ( "wor",
        [ Alcotest.test_case "exact size, distinct" `Quick test_wor_exact_size;
          Alcotest.test_case "oversized request" `Quick test_wor_oversized ] );
      ( "wr",
        [ Alcotest.test_case "draws and duplicates" `Quick test_wr_size_and_duplicates;
          Alcotest.test_case "empty population" `Quick test_wr_empty_population ] );
      ( "block",
        [ Alcotest.test_case "block-granular lineage" `Quick test_block_lineage_granularity;
          Alcotest.test_case "requires base" `Quick test_block_requires_base;
          Alcotest.test_case "over a selection (Prop 5)" `Quick test_block_over_select ] );
      ( "hash-bernoulli",
        [ Alcotest.test_case "deterministic in (seed,id)" `Quick test_hash_bernoulli_deterministic;
          Alcotest.test_case "nested rates" `Quick test_hash_bernoulli_nested ] );
      ( "fraction",
        [ Alcotest.test_case "sampling_fraction" `Quick test_sampling_fraction ] );
      ( "subsample",
        [ Alcotest.test_case "filter consistency (rectangle)" `Quick test_subsample_filter_consistency;
          Alcotest.test_case "dimension validation" `Quick test_subsample_missing_dim;
          Alcotest.test_case "plan_rates" `Quick test_plan_rates;
          Alcotest.test_case "expected rate" `Quick test_subsample_expected_rate ] ) ]
