(* End-to-end integration tests: the paper's worked examples through the
   whole stack, coverage sanity, and the experiment registry. *)

module Gus = Gus_core.Gus
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Interval = Gus_stats.Interval
module Summary = Gus_stats.Summary
module Sampler = Gus_sampling.Sampler
module Runner = Gus_sql.Runner
open Gus_relational

(* One-shot execution: prepare + execute, the result only. *)
let run_sql ?seed db sql =
  (Runner.run_request db (Runner.request ?seed sql)).Runner.rs_result

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

let db = lazy (Gus_tpch.Tpch.generate ~seed:101 ~scale:0.25 ())

(* ---- the paper's numeric tables, through the public entry points ---- *)

let test_example3_via_rewriter () =
  let g = Gus_experiments.Exp_query1.derived () in
  List.iter
    (fun (name, paper) ->
      let v =
        if name = "a" then g.Gus.a
        else begin
          let found = ref nan in
          Array.iteri
            (fun s bv -> if "b" ^ Gus.subset_name g s = name then found := bv)
            g.Gus.b;
          !found
        end
      in
      check_bool
        (Printf.sprintf "%s within print precision" name)
        true
        (Float.abs (v -. paper) /. paper < 5e-4))
    Gus_experiments.Exp_query1.paper_values

let test_figure4_via_rewriter () =
  let r = Gus_experiments.Exp_fig4.derived () in
  let g = (Lazy.force r.Rewrite.gus) in
  check Alcotest.int "4 relations" 4 (Gus.n_rels g);
  check_bool "a123" true (Float.abs (g.Gus.a -. 3.334e-4) /. 3.334e-4 < 5e-4);
  (* every printed coefficient matches to print precision *)
  List.iter
    (fun (names, paper) ->
      let mask =
        List.fold_left
          (fun acc n ->
            let pos = ref (-1) in
            Array.iteri (fun i r -> if r = n then pos := i) g.Gus.rels;
            Gus_util.Subset.add acc !pos)
          Gus_util.Subset.empty names
      in
      let v = Gus.b_get g mask in
      check_bool "coefficient" true (Float.abs (v -. paper) /. paper < 1e-3))
    Gus_experiments.Exp_fig4.paper_g123

let test_figure5_via_library () =
  let g = Gus_experiments.Exp_fig5.stacked () in
  check_bool "a" true (Float.abs (g.Gus.a -. 4e-5) < 1e-9)

(* ---- end-to-end estimation quality ---- *)

let test_query1_estimate_within_bounds () =
  let db = Lazy.force db in
  let plan = Gus_experiments.Harness.query1_plan ~bernoulli:0.2 ~wor:800 () in
  let f = Gus_experiments.Harness.revenue_f in
  let truth = Sbox.exact db plan ~f in
  let report, _ = Sbox.stream ~seed:77 db plan ~f in
  let ci = Sbox.interval ~coverage:0.99 Interval.Chebyshev report in
  check_bool "99% Chebyshev contains truth" true (Interval.contains ci truth)

let test_coverage_sanity () =
  (* 100 trials of a 2-way Bernoulli join: the normal 95% interval should
     cover the truth at least 85 times (fixed seeds, so deterministic). *)
  let db = Lazy.force db in
  let plan = Gus_experiments.Harness.join2_plan ~p_lineitem:0.15 ~p_orders:0.3 in
  let f = Gus_experiments.Harness.revenue_f in
  let truth = Sbox.exact db plan ~f in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let hits = ref 0 in
  for t = 1 to 100 do
    let sample = Splan.exec db (Gus_util.Rng.create (666 + t)) plan in
    let r = Sbox.of_relation ~gus ~f sample in
    if Interval.contains (Sbox.interval Interval.Normal r) truth then incr hits
  done;
  check_bool (Printf.sprintf "coverage %d/100 >= 85" !hits) true (!hits >= 85)

let test_sql_end_to_end_quantiles () =
  let db = Lazy.force db in
  let sql =
    "CREATE VIEW approx (lo, hi) AS \
     SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) AS lo, \
            QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) AS hi \
     FROM lineitem TABLESAMPLE (25 PERCENT), orders TABLESAMPLE (2000 ROWS) \
     WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0"
  in
  let truth = snd (List.hd (Runner.run_exact db sql)) in
  (* Across seeds, [lo,hi] should usually bracket the truth (90% nominal).
     Count over 40 seeds. *)
  let hits = ref 0 in
  for seed = 1 to 40 do
    let result = run_sql ~seed db sql in
    match result.Runner.cells with
    | [ lo; hi ] ->
        if lo.Runner.value <= truth && truth <= hi.Runner.value then incr hits
    | _ -> Alcotest.fail "two cells"
  done;
  check_bool (Printf.sprintf "brackets truth %d/40 >= 30" !hits) true (!hits >= 30)

let test_block_sampling_end_to_end () =
  (* Block sampling through the whole stack: unbiased and covered. *)
  let db = Lazy.force db in
  let plan =
    Splan.Sample (Sampler.Block { rows_per_block = 40; p = 0.2 }, Splan.Scan "lineitem")
  in
  let f = Expr.col "l_quantity" in
  let truth = Sbox.exact db plan ~f in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let est = Summary.create () in
  let hits = ref 0 in
  for t = 1 to 150 do
    let sample = Splan.exec db (Gus_util.Rng.create (4000 + t)) plan in
    let r = Sbox.of_relation ~gus ~f sample in
    Summary.add est r.Sbox.estimate;
    if Interval.contains (Sbox.interval Interval.Normal r) truth then incr hits
  done;
  close ~eps:(0.05 *. truth) "unbiased over blocks" truth (Summary.mean est);
  check_bool (Printf.sprintf "block coverage %d/150" !hits) true (!hits >= 120)

let test_union_of_samples_end_to_end () =
  (* Prop 7 in practice: two Bernoulli samples of lineitem, united by
     lineage, estimated with the union GUS. *)
  let db = Lazy.force db in
  let plan =
    Splan.Union_samples
      ( Splan.Sample (Sampler.Bernoulli 0.15, Splan.Scan "lineitem"),
        Splan.Sample (Sampler.Bernoulli 0.20, Splan.Scan "lineitem") )
  in
  let f = Expr.col "l_quantity" in
  let truth = Sbox.exact db plan ~f in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  close ~eps:1e-9 "union rate" (1.0 -. (0.85 *. 0.8)) gus.Gus.a;
  let est = Summary.create () in
  for t = 1 to 200 do
    let sample = Splan.exec db (Gus_util.Rng.create (5000 + t)) plan in
    Summary.add est (Sbox.of_relation ~gus ~f sample).Sbox.estimate
  done;
  close ~eps:(0.02 *. truth) "union estimate unbiased" truth (Summary.mean est)

let test_subsampled_variance_end_to_end () =
  let db = Lazy.force db in
  let plan = Gus_experiments.Harness.join2_plan ~p_lineitem:0.4 ~p_orders:0.5 in
  let f = Gus_experiments.Harness.revenue_f in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Gus_util.Rng.create 31) plan in
  let full = Sbox.of_relation ~gus ~f sample in
  let sub = Sbox.subsampled ~gus ~f ~target:2000 ~seed:77 sample in
  close "same estimate" full.Sbox.estimate sub.Sbox.estimate;
  check_bool "sd within 30% of full analysis" true
    (Float.abs ((sub.Sbox.stddev /. full.Sbox.stddev) -. 1.0) < 0.3)

let test_avg_via_sql_close_to_truth () =
  let db = Lazy.force db in
  let sql =
    "SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (30 PERCENT), orders \
     WHERE l_orderkey = o_orderkey"
  in
  let truth = snd (List.hd (Runner.run_exact db sql)) in
  let result = run_sql ~seed:8 db sql in
  let cell = List.hd result.Runner.cells in
  check_bool "AVG within 4 sd" true
    (Float.abs (cell.Runner.value -. truth) <= 4.0 *. cell.Runner.stddev)

(* ---- registry coherence ---- *)

let test_registry () =
  check Alcotest.int "16 experiments" 16 (List.length Gus_experiments.Registry.all);
  check_bool "find T3" true (Gus_experiments.Registry.find "t3" <> None);
  check_bool "unknown" true (Gus_experiments.Registry.find "Z9" = None);
  List.iter
    (fun e ->
      check_bool "id well-formed" true
        (let n = String.length e.Gus_experiments.Registry.id in
         n >= 2 && n <= 3))
    Gus_experiments.Registry.all

(* ---- failure injection ---- *)

let test_failure_modes () =
  let db = Lazy.force db in
  check_bool "WR plan rejected by analysis" true
    (try
       ignore (Rewrite.analyze_db db (Splan.Sample (Sampler.Wr 5, Splan.Scan "lineitem")));
       false
     with Rewrite.Unsupported _ -> true);
  check_bool "unknown relation at exec" true
    (try
       ignore (Splan.exec db (Gus_util.Rng.create 1) (Splan.Scan "nope"));
       false
     with Database.Unknown_relation _ -> true);
  check_bool "bad SQL surfaces Parser.Error" true
    (try ignore (run_sql db "SELECT FROM"); false
     with Gus_sql.Parser.Error _ -> true);
  (* empty sample: a 0-row sample still yields a finite report *)
  let gus = Gus.bernoulli ~rel:"lineitem" 0.5 in
  let r = Sbox.of_pairs ~gus [||] in
  close "empty estimate" 0.0 r.Sbox.estimate;
  close "empty variance" 0.0 r.Sbox.variance

let () =
  Alcotest.run "integration"
    [ ( "paper-tables",
        [ Alcotest.test_case "Example 3 (T2)" `Quick test_example3_via_rewriter;
          Alcotest.test_case "Figure 4 (T3)" `Quick test_figure4_via_rewriter;
          Alcotest.test_case "Figure 5 (T4)" `Quick test_figure5_via_library ] );
      ( "estimation",
        [ Alcotest.test_case "Query 1 in bounds" `Quick test_query1_estimate_within_bounds;
          Alcotest.test_case "coverage sanity" `Slow test_coverage_sanity;
          Alcotest.test_case "SQL quantile view" `Slow test_sql_end_to_end_quantiles;
          Alcotest.test_case "block sampling e2e" `Slow test_block_sampling_end_to_end;
          Alcotest.test_case "union of samples e2e" `Slow test_union_of_samples_end_to_end;
          Alcotest.test_case "subsampled variance e2e" `Quick test_subsampled_variance_end_to_end;
          Alcotest.test_case "AVG via SQL" `Quick test_avg_via_sql_close_to_truth ] );
      ("registry", [ Alcotest.test_case "experiment registry" `Quick test_registry ]);
      ("failures", [ Alcotest.test_case "failure modes" `Quick test_failure_modes ]) ]
