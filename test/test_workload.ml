(* Tests for the TPC-H-derived workload corpus: both variants of every
   query parse, plan and run; sampled estimates respect their Chebyshev
   intervals; the exact variant has zero variance. *)

module Workload = Gus_experiments.Workload
module Runner = Gus_sql.Runner

(* One-shot execution: prepare + execute, the result only. *)
let run_sql ?seed db sql =
  (Runner.run_request db (Runner.request ?seed sql)).Runner.rs_result
module Interval = Gus_stats.Interval

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let db = lazy (Gus_tpch.Tpch.generate ~seed:20130630 ~scale:0.3 ())

let test_corpus_shape () =
  check_int "six queries" 6 (List.length Workload.all);
  List.iter
    (fun q ->
      check_bool (q.Workload.id ^ " sampled has TABLESAMPLE") true
        (String.length q.Workload.sampled > String.length q.Workload.exact);
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool (q.Workload.id ^ " exact is sample-free") false
        (contains q.Workload.exact "TABLESAMPLE");
      check_bool (q.Workload.id ^ " sampled keeps the marker out") false
        (contains q.Workload.sampled "[SAMPLE:"))
    Workload.all;
  check_bool "find W3" true (Workload.find "w3" <> None);
  check_bool "find unknown" true (Workload.find "W9" = None)

let test_exact_variant_zero_variance () =
  let db = Lazy.force db in
  List.iter
    (fun q ->
      let result = run_sql db q.Workload.exact in
      List.iter
        (fun cell ->
          check (Alcotest.float 1e-9)
            (q.Workload.id ^ "/" ^ cell.Runner.label ^ " zero sd")
            0.0 cell.Runner.stddev)
        result.Runner.cells)
    Workload.all

let test_exact_matches_run_exact () =
  let db = Lazy.force db in
  List.iter
    (fun q ->
      let result = run_sql db q.Workload.exact in
      let truths = Runner.run_exact db q.Workload.exact in
      List.iter2
        (fun cell (label, truth) ->
          check Alcotest.string (q.Workload.id ^ " label") label cell.Runner.label;
          check_bool
            (Printf.sprintf "%s/%s matches" q.Workload.id label)
            true
            (Float.abs (cell.Runner.value -. truth)
            <= 1e-6 *. Float.max 1.0 (Float.abs truth)))
        result.Runner.cells truths)
    Workload.all

let test_sampled_within_chebyshev () =
  let db = Lazy.force db in
  (* 99% Chebyshev intervals over all queries x 3 seeds: allow one miss. *)
  let misses = ref 0 and total = ref 0 in
  List.iter
    (fun q ->
      let truths = Runner.run_exact db q.Workload.exact in
      for seed = 1 to 3 do
        let result = run_sql ~seed:(seed * 997) db q.Workload.sampled in
        List.iteri
          (fun i cell ->
            let _, truth = List.nth truths i in
            incr total;
            (* rebuild a 99% chebyshev interval from the cell's sd *)
            let k = Gus_stats.Normal.chebyshev_factor 0.99 in
            let lo = cell.Runner.value -. (k *. cell.Runner.stddev) in
            let hi = cell.Runner.value +. (k *. cell.Runner.stddev) in
            if not (lo <= truth && truth <= hi) then incr misses)
          result.Runner.cells
      done)
    Workload.all;
  check_bool
    (Printf.sprintf "chebyshev misses %d/%d" !misses !total)
    true
    (!misses <= 1)

let test_nonempty_answers () =
  (* Every query has a non-trivial answer on the test database (guards
     against a filter accidentally selecting nothing). *)
  let db = Lazy.force db in
  List.iter
    (fun q ->
      let truths = Runner.run_exact db q.Workload.exact in
      List.iter
        (fun (label, v) ->
          check_bool
            (Printf.sprintf "%s/%s nonzero" q.Workload.id label)
            true (v <> 0.0))
        truths)
    Workload.all

let () =
  Alcotest.run "workload"
    [ ( "corpus",
        [ Alcotest.test_case "shape" `Quick test_corpus_shape;
          Alcotest.test_case "exact variant zero variance" `Quick test_exact_variant_zero_variance;
          Alcotest.test_case "exact matches run_exact" `Quick test_exact_matches_run_exact;
          Alcotest.test_case "sampled within Chebyshev" `Quick test_sampled_within_chebyshev;
          Alcotest.test_case "non-empty answers" `Quick test_nonempty_answers ] ) ]
