module Runner = Gus_sql.Runner
module Interval = Gus_stats.Interval
module Summary = Gus_stats.Summary
module Tablefmt = Gus_util.Tablefmt

let run ?(scale = 1.0) ?(trials = 60) () =
  Harness.section "E10" "Estimate quality across the TPC-H-derived workload";
  let db = Harness.db_cached ~scale in
  let t =
    Tablefmt.create
      ~headers:
        [ "query"; "shape"; "aggregate"; "truth"; "mean rel.err %"; "coverage" ]
  in
  List.iter
    (fun q ->
      let truths = Runner.run_exact db q.Workload.exact in
      (* Fan the trials out, then fold the per-trial results into the
         per-aggregate accumulators in trial order. *)
      let results =
        Harness.map_trials_par ~pool:(Gus_util.Pool.default ()) ~trials ~seed:131
          (fun _rng tr ->
            (Runner.run_request db
               (Runner.request ~seed:((tr + 1) * 131) q.Workload.sampled))
              .Runner.rs_result)
      in
      let errs = List.map (fun _ -> Summary.create ()) truths in
      let hits = Array.make (List.length truths) 0 in
      Array.iter
        (fun result ->
          List.iteri
            (fun i cell ->
              let _, truth = List.nth truths i in
              Summary.add (List.nth errs i)
                (Summary.relative_error ~truth cell.Runner.value);
              if Interval.contains cell.Runner.ci95_normal truth then
                hits.(i) <- hits.(i) + 1)
            result.Runner.cells)
        results;
      List.iteri
        (fun i (label, truth) ->
          Tablefmt.add_row t
            [ (if i = 0 then q.Workload.id else "");
              (if i = 0 then q.Workload.tpch_ancestor ^ "-like" else "");
              label;
              Harness.fcell truth;
              Printf.sprintf "%.2f" (100.0 *. Summary.mean (List.nth errs i));
              Printf.sprintf "%.2f" (float_of_int hits.(i) /. float_of_int trials) ])
        truths;
      Tablefmt.add_sep t)
    Workload.all;
  Tablefmt.print t;
  Printf.printf
    "\nexpected shape: single-digit mean relative error at the configured \
     sampling rates and ~0.95 coverage on every query shape (1-4 relations, \
     string/range selections, the skewed part join, AVG and COUNT included).\n"
