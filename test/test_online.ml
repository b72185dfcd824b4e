(* Tests for the online-aggregation driver and the intermediate-size
   estimator. *)

module Online = Gus_online.Online
module Size = Gus_estimator.Size_estimator
module Sbox = Gus_estimator.Sbox
module Splan = Gus_core.Splan
module Interval = Gus_stats.Interval
module Sampler = Gus_sampling.Sampler
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

let db = lazy (Gus_tpch.Tpch.generate ~seed:55 ~scale:0.2 ())

let join_plan =
  Splan.Equi_join
    { left = Splan.Scan "lineitem";
      right = Splan.Scan "orders";
      left_key = Expr.col "l_orderkey";
      right_key = Expr.col "o_orderkey" }

let revenue = Expr.(col "l_extendedprice" * (float 1.0 - col "l_discount"))

(* ---- Online ---- *)

let test_converges_to_exact () =
  let db = Lazy.force db in
  let truth = Sbox.exact db join_plan ~f:revenue in
  let cps = Online.run ~seed:3 db ~plan:join_plan ~f:revenue ~checkpoints:5 in
  let last = List.nth cps (List.length cps - 1) in
  close ~eps:(1e-9 *. truth) "exact at 100%" truth last.Online.report.Sbox.estimate;
  close "zero width at 100%" 0.0 (Interval.width last.Online.interval);
  List.iter
    (fun (_, f) -> close "all consumed" 1.0 f)
    last.Online.fractions

let test_width_shrinks () =
  let db = Lazy.force db in
  let cps = Online.run ~seed:4 db ~plan:join_plan ~f:revenue ~checkpoints:6 in
  let widths = List.map (fun cp -> Interval.width cp.Online.interval) cps in
  (* Compare first vs last-but-one: strong monotone decrease overall. *)
  match (widths, List.rev widths) with
  | first :: _, last :: prev :: _ ->
      check_bool "last width below first" true (last < first);
      check_bool "penultimate below first" true (prev < first)
  | _ -> Alcotest.fail "not enough checkpoints"

let test_coverage_along_the_way () =
  let db = Lazy.force db in
  let truth = Sbox.exact db join_plan ~f:revenue in
  (* Over several random orders, count mid-scan interval hits. *)
  let hits = ref 0 and total = ref 0 in
  for seed = 1 to 12 do
    let cps = Online.run ~seed db ~plan:join_plan ~f:revenue ~checkpoints:4 in
    List.iter
      (fun cp ->
        let all_done = List.for_all (fun (_, f) -> f >= 1.0) cp.Online.fractions in
        if not all_done then begin
          incr total;
          if Interval.contains cp.Online.interval truth then incr hits
        end)
      cps
  done;
  check_bool
    (Printf.sprintf "mid-scan coverage %d/%d" !hits !total)
    true
    (float_of_int !hits /. float_of_int !total >= 0.8)

let test_step_api () =
  let db = Lazy.force db in
  let t = Online.create ~seed:9 db ~plan:join_plan ~f:revenue in
  check_bool "not finished initially" false (Online.finished t);
  let cp = Online.step t ~rows:100 in
  check Alcotest.int "rows read from two relations" 200 cp.Online.rows_read;
  check_bool "still unfinished" false (Online.finished t);
  check_bool "bad rows" true
    (try ignore (Online.step t ~rows:0); false with Invalid_argument _ -> true)

let test_strips_samples () =
  (* Sampling operators in the plan are ignored: the driver owns sampling. *)
  let db = Lazy.force db in
  let sampled =
    Splan.Equi_join
      { left = Splan.Sample (Sampler.Bernoulli 0.01, Splan.Scan "lineitem");
        right = Splan.Scan "orders";
        left_key = Expr.col "l_orderkey";
        right_key = Expr.col "o_orderkey" }
  in
  let cps = Online.run ~seed:5 db ~plan:sampled ~f:revenue ~checkpoints:2 in
  let last = List.nth cps (List.length cps - 1) in
  let truth = Sbox.exact db join_plan ~f:revenue in
  close ~eps:(1e-9 *. truth) "full answer despite Sample node" truth
    last.Online.report.Sbox.estimate

(* ---- Shedding ---- *)

module Shedding = Gus_online.Shedding

let shed_gus_of rels rates =
  List.fold_left
    (fun acc name ->
      let r = List.assoc name rates in
      let g = Gus_core.Gus.bernoulli ~rel:name r in
      match acc with None -> Some g | Some a -> Some (Gus_core.Gus.join a g))
    None rels
  |> Option.get

let test_shedding_proportional () =
  let rates =
    Shedding.proportional_rates
      ~arrivals:[ ("a", 900); ("b", 100) ] ~capacity:500
  in
  List.iter (fun (_, r) -> close "shared rate 0.5" 0.5 r) rates;
  let full = Shedding.proportional_rates ~arrivals:[ ("a", 10) ] ~capacity:100 in
  close "clamped to 1" 1.0 (List.assoc "a" full)

let test_shedding_optimize_respects_budget () =
  let db = Lazy.force db in
  (* Moments from the real workload so optimization is meaningful. *)
  let report, analysis = Sbox.stream ~seed:3 db
    (Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "lineitem")) ~f:revenue in
  ignore analysis;
  let y = report.Sbox.y_hat in
  let arrivals = [ ("lineitem", 12000) ] in
  let rates, v =
    Shedding.optimize_rates
      ~gus_of:(shed_gus_of [ "lineitem" ])
      ~y ~arrivals ~capacity:3000 ()
  in
  close ~eps:1e-6 "single stream rate = C/N" 0.25 (List.assoc "lineitem" rates);
  check_bool "variance positive" true (v > 0.0);
  (* capacity beyond arrivals: keep everything, zero variance *)
  let rates1, v1 =
    Shedding.optimize_rates ~gus_of:(shed_gus_of [ "lineitem" ]) ~y ~arrivals
      ~capacity:100000 ()
  in
  close "all kept" 1.0 (List.assoc "lineitem" rates1);
  close "no variance" 0.0 v1

let test_shedding_optimize_beats_proportional () =
  (* Two-stream join: the optimizer should never be worse than the naive
     uniform split on its own objective. *)
  let db = Lazy.force db in
  let join =
    Splan.equi_join (Splan.scan "lineitem") (Splan.scan "orders")
      ~on:("l_orderkey", "o_orderkey")
  in
  let full = Splan.exec_exact db join in
  let y = Gus_estimator.Moments.of_relation ~f:revenue full in
  let arrivals = [ ("lineitem", 12000); ("orders", 3000) ] in
  let gus_of = shed_gus_of [ "lineitem"; "orders" ] in
  let _, v_opt =
    Shedding.optimize_rates ~gus_of ~y ~arrivals ~capacity:3000 ()
  in
  let naive = Shedding.proportional_rates ~arrivals ~capacity:3000 in
  let v_naive = Gus_core.Gus.variance (gus_of naive) ~y in
  check_bool
    (Printf.sprintf "optimized %.3g <= naive %.3g" v_opt v_naive)
    true (v_opt <= v_naive +. 1e-6)

let test_shedding_gus_of_rates () =
  (* The serving layer's bridge into the optimizer: rates name a subset
     of the plan's relations, absent ones stay at rate 1 (kept whole) —
     so a shed execution only widens variance through the relations it
     actually degraded. *)
  let y = [| 4.0; 2.0; 2.0; 1.0 |] in
  let full = Shedding.gus_of_rates [ "a"; "b" ] [ ("a", 1.0) ] in
  close "keeping everything has zero variance" 0.0
    (Gus_core.Gus.variance full ~y);
  (* synthetic overload sweep: deeper shedding, strictly wider variance *)
  let var f =
    Gus_core.Gus.variance
      (Shedding.gus_of_rates [ "a"; "b" ] [ ("a", 1.0 /. f) ])
      ~y
  in
  let v2 = var 2.0 and v4 = var 4.0 and v16 = var 16.0 in
  check_bool "overload 2x adds variance" true (v2 > 0.0);
  check_bool "4x wider than 2x" true (v4 > v2);
  check_bool "16x wider than 4x" true (v16 > v4)

let test_shedding_validation () =
  let fails f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "zero capacity" true
    (fails (fun () ->
         Shedding.optimize_rates
           ~gus_of:(shed_gus_of [ "a" ])
           ~y:[| 0.0; 0.0 |] ~arrivals:[ ("a", 10) ] ~capacity:0 ()));
  check_bool "too many streams" true
    (fails (fun () ->
         Shedding.optimize_rates
           ~gus_of:(shed_gus_of [ "a" ])
           ~y:[| 0.0; 0.0 |]
           ~arrivals:[ ("a", 1); ("b", 1); ("c", 1); ("d", 1) ]
           ~capacity:2 ()))

let test_shedding_simulate () =
  let db = Lazy.force db in
  let windows = 4 in
  let capacity = 1200 in
  let reports =
    Shedding.simulate ~seed:3 db ~plan:join_plan ~f:revenue ~windows ~capacity
  in
  check Alcotest.int "one report per window" windows (List.length reports);
  let truths = Shedding.window_truth db ~plan:join_plan ~f:revenue ~windows in
  let covered = ref 0 in
  List.iter2
    (fun r truth ->
      (* throughput respected in expectation: allow 25% stochastic slack *)
      let total_kept = List.fold_left (fun acc (_, k) -> acc + k) 0 r.Shedding.kept in
      check_bool
        (Printf.sprintf "window %d kept %d <= 1.25 * capacity" r.Shedding.window total_kept)
        true
        (float_of_int total_kept <= 1.25 *. float_of_int capacity);
      if Gus_stats.Interval.contains r.Shedding.interval truth then incr covered)
    reports truths;
  check_bool
    (Printf.sprintf "windows covered %d/%d" !covered windows)
    true (!covered >= windows - 1)

(* ---- Progressive ---- *)

module Progressive = Gus_online.Progressive

let test_progressive_meets_target () =
  let db = Lazy.force db in
  let rounds =
    Progressive.run ~seed:2 db ~plan:join_plan ~f:revenue ~target_rel_width:0.08
  in
  let last = List.nth rounds (List.length rounds - 1) in
  check_bool "target met or exact" true
    (last.Progressive.met || last.Progressive.rate >= 1.0);
  (* rates strictly grow *)
  let rec growing = function
    | a :: (b :: _ as rest) -> a.Progressive.rate < b.Progressive.rate && growing rest
    | _ -> true
  in
  check_bool "rates grow" true (growing rounds);
  (* earlier rounds did not meet the target (otherwise they'd have stopped) *)
  List.iteri
    (fun i r ->
      if i < List.length rounds - 1 then
        check_bool "intermediate rounds not met" false r.Progressive.met)
    rounds

let test_progressive_nested_samples () =
  (* Same seed, growing rate: each round's result contains the previous
     round's lineage pairs. *)
  let db = Lazy.force db in
  let rounds =
    Progressive.run ~seed:5 ~initial_rate:0.05 ~growth:4.0 db ~plan:join_plan
      ~f:revenue ~target_rel_width:1e-9
  in
  check_bool "several rounds" true (List.length rounds >= 2);
  let tuple_counts = List.map (fun r -> r.Progressive.report.Sbox.n_tuples) rounds in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  check_bool "sample grows" true (nondecreasing tuple_counts)

let test_progressive_exact_when_tiny_target () =
  let db = Lazy.force db in
  let rounds =
    Progressive.run ~seed:3 ~initial_rate:0.2 ~growth:3.0 ~max_rounds:6 db
      ~plan:join_plan ~f:revenue ~target_rel_width:1e-12
  in
  let last = List.nth rounds (List.length rounds - 1) in
  close "rate reaches 1" 1.0 last.Progressive.rate;
  let truth = Sbox.exact db join_plan ~f:revenue in
  close ~eps:(1e-9 *. truth) "exact answer" truth
    last.Progressive.report.Sbox.estimate;
  close "zero width" 0.0 last.Progressive.rel_width

let test_progressive_validation () =
  let db = Lazy.force db in
  let fails f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "bad target" true
    (fails (fun () ->
         Progressive.run db ~plan:join_plan ~f:revenue ~target_rel_width:0.0));
  check_bool "bad growth" true
    (fails (fun () ->
         Progressive.run ~growth:1.0 db ~plan:join_plan ~f:revenue
           ~target_rel_width:0.1))

(* ---- Size estimator ---- *)

let test_size_prediction_reasonable () =
  let db = Lazy.force db in
  let truth = float_of_int (Relation.cardinality (Splan.exec_exact db join_plan)) in
  let p = Size.predict_with_rates ~seed:2 db ~rate:0.2 join_plan in
  check_bool "prediction within 30%" true
    (Float.abs (p.Size.estimate -. truth) < 0.3 *. truth);
  check_bool "interval contains truth" true (Interval.contains p.Size.interval truth);
  check_bool "positive sample" true (p.Size.sample_tuples > 0)

let test_size_higher_rate_tighter () =
  let db = Lazy.force db in
  let loose = Size.predict_with_rates ~seed:3 db ~rate:0.05 join_plan in
  let tight = Size.predict_with_rates ~seed:3 db ~rate:0.5 join_plan in
  check_bool "more sampling, narrower interval" true
    (Interval.width tight.Size.interval < Interval.width loose.Size.interval)

let test_size_rate_validation () =
  let db = Lazy.force db in
  check_bool "rate 0 rejected" true
    (try ignore (Size.predict_with_rates db ~rate:0.0 join_plan); false
     with Invalid_argument _ -> true);
  check_bool "rate > 1 rejected" true
    (try ignore (Size.predict_with_rates db ~rate:1.5 join_plan); false
     with Invalid_argument _ -> true)

let test_size_predict_on_sampling_plan () =
  (* predict analyzes the plan as given (with its own TABLESAMPLEs). *)
  let db = Lazy.force db in
  let plan =
    Splan.Equi_join
      { left = Splan.Sample (Sampler.Bernoulli 0.3, Splan.Scan "lineitem");
        right = Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "orders");
        left_key = Expr.col "l_orderkey";
        right_key = Expr.col "o_orderkey" }
  in
  let truth = float_of_int (Relation.cardinality (Splan.exec_exact db plan)) in
  let p = Size.predict ~seed:4 db plan in
  check_bool "contains truth" true (Interval.contains p.Size.interval truth)

let () =
  Alcotest.run "gus_online"
    [ ( "online",
        [ Alcotest.test_case "converges to exact" `Quick test_converges_to_exact;
          Alcotest.test_case "width shrinks" `Quick test_width_shrinks;
          Alcotest.test_case "mid-scan coverage" `Slow test_coverage_along_the_way;
          Alcotest.test_case "step API" `Quick test_step_api;
          Alcotest.test_case "strips Sample nodes" `Quick test_strips_samples ] );
      ( "shedding",
        [ Alcotest.test_case "proportional rates" `Quick test_shedding_proportional;
          Alcotest.test_case "optimize respects budget" `Quick test_shedding_optimize_respects_budget;
          Alcotest.test_case "optimize beats proportional" `Quick test_shedding_optimize_beats_proportional;
          Alcotest.test_case "gus_of_rates bridge" `Quick
            test_shedding_gus_of_rates;
          Alcotest.test_case "validation" `Quick test_shedding_validation;
          Alcotest.test_case "simulate windows" `Quick test_shedding_simulate ] );
      ( "progressive",
        [ Alcotest.test_case "meets target" `Quick test_progressive_meets_target;
          Alcotest.test_case "nested samples" `Quick test_progressive_nested_samples;
          Alcotest.test_case "exact at rate 1" `Quick test_progressive_exact_when_tiny_target;
          Alcotest.test_case "validation" `Quick test_progressive_validation ] );
      ( "size-estimator",
        [ Alcotest.test_case "reasonable prediction" `Quick test_size_prediction_reasonable;
          Alcotest.test_case "rate tightens interval" `Quick test_size_higher_rate_tighter;
          Alcotest.test_case "rate validation" `Quick test_size_rate_validation;
          Alcotest.test_case "explicit sampling plan" `Quick test_size_predict_on_sampling_plan ] ) ]
