(* Tests for the SBox estimator: unbiasedness, the Y-hat correction, the
   live-relation projection, variance quality, intervals, covariance/AVG,
   subsampled estimation, and the WR baseline. *)

module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Moments = Gus_estimator.Moments
module Interval = Gus_stats.Interval
module Summary = Gus_stats.Summary
module Sampler = Gus_sampling.Sampler
module Rng = Gus_util.Rng
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

(* A small deterministic single-relation population. *)
let population n =
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TFloat } ]
  in
  let r = Relation.create_base ~name:"pop" schema in
  for i = 0 to n - 1 do
    Relation.append_row r
      [| Value.Int i; Value.Float (float_of_int ((i mod 7) + 1)) |]
  done;
  r

let vcol = Expr.col "v"

let db_small =
  lazy
    (let db = Database.create () in
     Database.add db (population 200);
     db)

let test_full_sample_is_exact () =
  (* With a = 1 (identity GUS = no sampling) the SBox returns the exact sum
     with zero variance. *)
  let pop = population 100 in
  let gus = Gus.identity [| "pop" |] in
  let r = Sbox.of_relation ~gus ~f:vcol pop in
  close "estimate = exact" (Relation.sum_column pop "v") r.Sbox.estimate;
  close "zero variance" 0.0 r.Sbox.variance;
  check Alcotest.int "tuples" 100 r.Sbox.n_tuples

let test_estimate_scale_up () =
  (* Deterministic: a fake 50% "sample" containing every other row. *)
  let pop = population 100 in
  let sample = Relation.derived ~name:"s" pop.Relation.schema [| "pop" |] in
  Relation.iter
    (fun t -> if t.Tuple.lineage.(0) mod 2 = 0 then Relation.append_tuple sample t)
    pop;
  let gus = Gus.bernoulli ~rel:"pop" 0.5 in
  let r = Sbox.of_relation ~gus ~f:vcol sample in
  let sample_sum = Relation.sum_column sample "v" in
  close "estimate = total/a" (sample_sum /. 0.5) r.Sbox.estimate;
  close "total_f recorded" sample_sum r.Sbox.total_f

let test_schema_mismatch_rejected () =
  let pop = population 10 in
  let gus = Gus.bernoulli ~rel:"other" 0.5 in
  check_bool "mismatch" true
    (try ignore (Sbox.of_relation ~gus ~f:vcol pop); false
     with Invalid_argument _ -> true)

let test_unbiased_estimate_mc () =
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.3, Splan.Scan "pop") in
  let truth = Sbox.exact db plan ~f:vcol in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let est = Summary.create () in
  for t = 1 to 600 do
    let sample = Splan.exec db (Rng.create (100 + t)) plan in
    Summary.add est (Sbox.of_relation ~gus ~f:vcol sample).Sbox.estimate
  done;
  close ~eps:(0.03 *. truth) "MC mean = truth" truth (Summary.mean est)

let test_variance_estimate_mc () =
  (* Mean estimated variance matches the exact Theorem-1 variance, and the
     MC spread of estimates matches both. *)
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.4, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let full = Splan.exec_exact db plan in
  let exact_var = Gus.variance gus ~y:(Moments.of_relation ~f:vcol full) in
  let est = Summary.create () and vars = Summary.create () in
  for t = 1 to 800 do
    let sample = Splan.exec db (Rng.create (7000 + t)) plan in
    let r = Sbox.of_relation ~gus ~f:vcol sample in
    Summary.add est r.Sbox.estimate;
    Summary.add vars r.Sbox.variance
  done;
  check_bool "mean sigma-hat within 15% of exact" true
    (Float.abs ((Summary.mean vars /. exact_var) -. 1.0) < 0.15);
  check_bool "MC variance within 25% of exact" true
    (Float.abs ((Summary.variance est /. exact_var) -. 1.0) < 0.25)

let test_y_hat_unbiased_mc () =
  (* E[Y-hat_S] = y_S for every subset, on a two-relation join. *)
  let db = Database.create () in
  Database.add db (population 60);
  let schema2 =
    Schema.make
      [ { Schema.name = "k2"; ty = Value.TInt };
        { Schema.name = "w"; ty = Value.TFloat } ]
  in
  let r2 = Relation.create_base ~name:"dim" schema2 in
  for i = 0 to 19 do
    Relation.append_row r2 [| Value.Int i; Value.Float (float_of_int (i + 1)) |]
  done;
  Database.add db r2;
  let plan =
    Splan.Equi_join
      { left = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "pop");
        right = Splan.Sample (Sampler.Bernoulli 0.6, Splan.Scan "dim");
        left_key = Expr.(Bin (Sub, col "k", Bin (Mul, int 3, col "k" / int 3)));
        right_key = Expr.(Bin (Sub, col "k2", Bin (Mul, int 17, col "k2" / int 17))) }
  in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let f = Expr.(col "v" * col "w") in
  let full = Splan.exec_exact db plan in
  let y_exact = Moments.of_relation ~f full in
  let sums = Array.map (fun _ -> Summary.create ()) y_exact in
  for t = 1 to 800 do
    let sample = Splan.exec db (Rng.create (31000 + t)) plan in
    let r = Sbox.of_relation ~gus ~f sample in
    Array.iteri (fun i yh -> Summary.add sums.(i) yh) r.Sbox.y_hat
  done;
  Array.iteri
    (fun i s ->
      let mean = Summary.mean s in
      check_bool
        (Printf.sprintf "y_hat_%d unbiased (mean %g vs %g)" i mean y_exact.(i))
        true
        (Float.abs (mean -. y_exact.(i))
        <= 0.12 *. Float.max 1.0 (Float.abs y_exact.(i))))
    sums

let test_interval_and_quantile () =
  let pop = population 100 in
  let gus = Gus.identity [| "pop" |] in
  let r = Sbox.of_relation ~gus ~f:vcol pop in
  let ci = Sbox.interval Interval.Normal r in
  check_bool "degenerate CI at exact answer" true
    (ci.Interval.lo = ci.Interval.hi && ci.Interval.lo = r.Sbox.estimate);
  close "median quantile = estimate" r.Sbox.estimate (Sbox.quantile r 0.5);
  check_bool "q monotone" true (Sbox.quantile r 0.1 <= Sbox.quantile r 0.9)

let test_negative_variance_clamped () =
  (* A pathological 1-tuple sample can produce a negative raw variance
     estimate; the report clamps it and keeps the raw value. *)
  let gus = Gus.bernoulli ~rel:"pop" 0.9 in
  let one_tuple = Relation.gather_rows (population 1) [| 0 |] 1 in
  let r = Sbox.of_relation ~gus ~f:Expr.(float 1.0) one_tuple in
  check_bool "variance non-negative" true (r.Sbox.variance >= 0.0);
  check_bool "raw recorded" true (r.Sbox.variance_raw <= r.Sbox.variance +. 1e-12)

let test_covariance_diagonal () =
  (* Cov(f,f) = Var(f) on the same sample. *)
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.3, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 11) plan in
  let r = Sbox.of_relation ~gus ~f:vcol sample in
  let cov = Sbox.covariance ~gus ~f:vcol ~g:vcol sample in
  close ~eps:1e-6 "Cov(f,f) = Var(f)" r.Sbox.variance_raw cov

let test_covariance_bilinearity () =
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.3, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 12) plan in
  let g2 = Expr.(col "v" * float 2.0) in
  let cov1 = Sbox.covariance ~gus ~f:vcol ~g:vcol sample in
  let cov2 = Sbox.covariance ~gus ~f:vcol ~g:g2 sample in
  close ~eps:(1e-9 *. Float.abs cov1) "Cov(f,2f) = 2 Cov(f,f)" (2.0 *. cov1) cov2

let test_avg_delta_method_mc () =
  (* AVG estimates should concentrate around the true average with the
     delta-method sd matching the MC spread loosely. *)
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.4, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let full = Splan.exec_exact db plan in
  let truth = Relation.sum_column full "v" /. float_of_int (Relation.cardinality full) in
  let est = Summary.create () and sds = Summary.create () in
  for t = 1 to 400 do
    let sample = Splan.exec db (Rng.create (900 + t)) plan in
    if Relation.cardinality sample > 0 then begin
      let r = Sbox.avg ~gus ~f:vcol sample in
      Summary.add est r.Sbox.ratio_estimate;
      Summary.add sds r.Sbox.ratio_stddev
    end
  done;
  close ~eps:(0.05 *. truth) "AVG unbiased-ish" truth (Summary.mean est);
  let mc_sd = sqrt (Summary.variance est) in
  check_bool "delta sd within 2x of MC sd" true
    (Summary.mean sds /. mc_sd > 0.5 && Summary.mean sds /. mc_sd < 2.0)

let test_ratio_zero_denominator () =
  let gus = Gus.bernoulli ~rel:"pop" 0.5 in
  check_bool "zero denominator" true
    (try
       ignore (Sbox.ratio ~gus ~f:(Expr.float 1.0) ~g:(Expr.float 0.0)
                 (Relation.derived ~name:"s"
                    (Schema.make [ { Schema.name = "v"; ty = Value.TFloat } ])
                    [| "pop" |]));
       false
     with Invalid_argument _ -> true)

let test_multi_linear_combination_invariant () =
  (* Var(w1 f + w2 g) computed from the covariance matrix must equal the
     variance of the combined expression analyzed directly. *)
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.3, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 13) plan in
  let f = vcol and g = Expr.(col "v" * col "v") in
  let m = Sbox.multi ~gus ~fs:[ ("f", f); ("g", g) ] sample in
  let est, sd = Sbox.linear_combination m [| 2.0; -1.0 |] in
  let combined = Expr.(Bin (Sub, Bin (Mul, float 2.0, f), g)) in
  let direct = Sbox.of_relation ~gus ~f:combined sample in
  close ~eps:(1e-6 *. Float.abs direct.Sbox.estimate) "estimate" direct.Sbox.estimate est;
  close ~eps:(1e-6 *. Float.max 1.0 (Float.abs direct.Sbox.variance_raw))
    "variance" (Float.max 0.0 direct.Sbox.variance_raw) (sd *. sd)

let test_multi_shape () =
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 14) plan in
  let m = Sbox.multi ~gus ~fs:[ ("a", vcol); ("b", vcol); ("one", Expr.float 1.0) ] sample in
  check Alcotest.int "3 labels" 3 (Array.length m.Sbox.labels);
  (* identical aggregates: correlation exactly 1 *)
  close ~eps:1e-6 "cov(a,b) = var(a)" m.Sbox.cov.(0).(0) m.Sbox.cov.(0).(1);
  close "symmetric" m.Sbox.cov.(1).(2) m.Sbox.cov.(2).(1);
  check_bool "weights length checked" true
    (try ignore (Sbox.linear_combination m [| 1.0 |]); false
     with Invalid_argument _ -> true)

let test_subsampled_close_to_full () =
  let db = Database.create () in
  Database.add db (population 5000);
  let plan = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 21) plan in
  let full = Sbox.of_relation ~gus ~f:vcol sample in
  let sub = Sbox.subsampled ~gus ~f:vcol ~target:800 ~seed:99 sample in
  close "same estimate" full.Sbox.estimate sub.Sbox.estimate;
  check_bool "subsample smaller" true (sub.Sbox.n_tuples < full.Sbox.n_tuples);
  check_bool "sd within 35%" true
    (full.Sbox.stddev = 0.0
    || Float.abs ((sub.Sbox.stddev /. full.Sbox.stddev) -. 1.0) < 0.35)

let test_subsampled_target_bigger_than_sample () =
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "pop") in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 22) plan in
  let sub = Sbox.subsampled ~gus ~f:vcol ~target:100000 ~seed:1 sample in
  check Alcotest.int "keeps everything" (Relation.cardinality sample) sub.Sbox.n_tuples

let test_run_end_to_end () =
  let db = Lazy.force db_small in
  let plan = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "pop") in
  let report, analysis = Sbox.stream ~seed:5 db plan ~f:vcol in
  check_bool "gus is Bernoulli" true
    (Gus.equal_approx (Lazy.force analysis.Rewrite.gus) (Gus.bernoulli ~rel:"pop" 0.5));
  check_bool "estimate positive" true (report.Sbox.estimate > 0.0)

let test_live_projection_matches_full () =
  (* Half-sampled join: "s" carries no randomness, so the live projection
     drops it and the kernel runs 2 moment passes instead of 4.  Over
     n = 2 the full design's run visits the same floats in the same order
     for every term that survives, so the estimate, the variance and the
     live Ŷ entries are bit-identical. *)
  let sym =
    Symalg.join (Symalg.bernoulli ~rel:"r" 0.1) (Symalg.identity [| "s" |])
  in
  let full = Symalg.to_gus sym in
  let live = Gus_analysis.Lint.live_design sym in
  check_bool "projected onto r" true (live.Gus.rels = [| "r" |]);
  let rel =
    Relation.derived
      (Schema.make [ { Schema.name = "v"; ty = Value.TFloat } ])
      [| "r"; "s" |]
  in
  for i = 0 to 119 do
    Relation.append_tuple rel
      (Tuple.make [| Value.Float (float_of_int ((i mod 5) + 1)) |]
         [| i mod 11; i mod 7 |])
  done;
  let dense = Sbox.of_relation ~gus:full ~f:vcol rel in
  let projected = Sbox.of_relation ~gus:live ~f:vcol rel in
  let bits = Int64.bits_of_float in
  check_bool "estimate bit-identical" true
    (Int64.equal (bits dense.Sbox.estimate) (bits projected.Sbox.estimate));
  check_bool "variance bit-identical at n=2" true
    (Int64.equal (bits dense.Sbox.variance) (bits projected.Sbox.variance));
  (* r is bit 0 in both universes: live masks embed as themselves *)
  Array.iteri
    (fun s yh ->
      check_bool "live y_hat bit-identical" true
        (Int64.equal (bits dense.Sbox.y_hat.(s)) (bits yh)))
    projected.Sbox.y_hat;
  (* y_hat_of_moments over the live slot's moments agrees with the report *)
  let y =
    (Moments.Acc.finalize (Moments.feed ~slots:[| 0 |] ~fs:[| vcol |] rel)).(0).(0)
  in
  Array.iteri
    (fun s v ->
      check_bool "y_hat_of_moments matches report" true
        (Int64.equal (bits projected.Sbox.y_hat.(s)) (bits v)))
    (Sbox.y_hat_of_moments ~gus:live y);
  (* a design dropping a relation the lineage lacks is refused *)
  check_bool "foreign relation refused" true
    (try
       ignore (Sbox.of_relation ~gus:(Gus.bernoulli ~rel:"t" 0.1) ~f:vcol rel);
       false
     with Invalid_argument _ -> true)

let test_query1_fixture_pinned () =
  (* End-to-end regression pin: the full Query-1 pipeline (TPC-H generator →
     sampled plan execution → SBox) must keep producing the values the seed
     implementation produced (captured at scale 0.1, exec seed 5, before the
     moments kernel rewrite).  Catches any semantic drift in the hot-path
     optimizations; tolerances only absorb float summation-order noise. *)
  let db = Gus_experiments.Harness.db_cached ~scale:0.1 in
  let plan = Gus_experiments.Harness.query1_plan () in
  let gus = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus) in
  let sample = Splan.exec db (Rng.create 5) plan in
  let r = Sbox.of_relation ~gus ~f:Gus_experiments.Harness.revenue_f sample in
  let close_rel what expected actual =
    close ~eps:(1e-9 *. Float.max 1.0 (Float.abs expected)) what expected actual
  in
  check Alcotest.int "n_tuples" 399 r.Sbox.n_tuples;
  close_rel "total_f" 2011402.2008122066 r.Sbox.total_f;
  close_rel "estimate" 30171033.0121831 r.Sbox.estimate;
  close_rel "variance" 3525763563611.75 r.Sbox.variance;
  close_rel "stddev" 1877701.6705567874 r.Sbox.stddev;
  let y_exp =
    [| 906765469458630.62; 255103066015.23785; 768145494887.45654;
       255103066015.23795 |]
  in
  check Alcotest.int "y_hat length" 4 (Array.length r.Sbox.y_hat);
  Array.iteri
    (fun i expected ->
      close_rel (Printf.sprintf "y_hat.(%d)" i) expected r.Sbox.y_hat.(i))
    y_exp

let test_wr_baseline_unbiased () =
  let pop = population 300 in
  let truth = Relation.sum_column pop "v" in
  let est = Summary.create () in
  for t = 1 to 500 do
    let sample = Sampler.apply (Sampler.Wr 60) (Rng.create (50 + t)) pop in
    let r = Wr_baseline.estimate_sum ~population:300 ~f:vcol sample in
    Summary.add est r.Wr_baseline.estimate
  done;
  close ~eps:(0.03 *. truth) "WR estimate unbiased" truth (Summary.mean est)

let test_wr_baseline_empty () =
  let pop = population 0 in
  let r =
    Wr_baseline.estimate_sum ~population:0 ~f:vcol
      (Sampler.apply (Sampler.Wr 5) (Rng.create 1) pop)
  in
  close "empty estimate" 0.0 r.Wr_baseline.estimate

let () =
  Alcotest.run "gus_estimator.sbox"
    [ ( "estimate",
        [ Alcotest.test_case "identity GUS = exact" `Quick test_full_sample_is_exact;
          Alcotest.test_case "scale-up" `Quick test_estimate_scale_up;
          Alcotest.test_case "schema mismatch" `Quick test_schema_mismatch_rejected;
          Alcotest.test_case "unbiased (MC)" `Slow test_unbiased_estimate_mc;
          Alcotest.test_case "run end-to-end" `Quick test_run_end_to_end;
          Alcotest.test_case "live projection = full, bitwise" `Quick
            test_live_projection_matches_full;
          Alcotest.test_case "Query-1 fixture pinned to seed values" `Quick
            test_query1_fixture_pinned ] );
      ( "variance",
        [ Alcotest.test_case "sigma-hat quality (MC)" `Slow test_variance_estimate_mc;
          Alcotest.test_case "Y-hat unbiased per subset (MC)" `Slow test_y_hat_unbiased_mc;
          Alcotest.test_case "negative clamped" `Quick test_negative_variance_clamped ] );
      ( "intervals",
        [ Alcotest.test_case "interval & quantile" `Quick test_interval_and_quantile ] );
      ( "covariance-avg",
        [ Alcotest.test_case "Cov(f,f) = Var" `Quick test_covariance_diagonal;
          Alcotest.test_case "bilinearity" `Quick test_covariance_bilinearity;
          Alcotest.test_case "AVG delta method (MC)" `Slow test_avg_delta_method_mc;
          Alcotest.test_case "ratio zero denominator" `Quick test_ratio_zero_denominator;
          Alcotest.test_case "multi: linear combination" `Quick test_multi_linear_combination_invariant;
          Alcotest.test_case "multi: shape" `Quick test_multi_shape ] );
      ( "subsampled",
        [ Alcotest.test_case "close to full-sample analysis" `Quick test_subsampled_close_to_full;
          Alcotest.test_case "oversized target" `Quick test_subsampled_target_bigger_than_sample ] );
      ( "wr-baseline",
        [ Alcotest.test_case "unbiased on single relation" `Slow test_wr_baseline_unbiased;
          Alcotest.test_case "empty sample" `Quick test_wr_baseline_empty ] ) ]
