(* A grouped approximate report through the SQL frontend: per-group
   estimates each carry their own confidence interval, because group
   membership is a selection on tuple content and selections commute with
   the GUS operator (Prop 5).

   Run with:  dune exec examples/group_by_report.exe *)

module Runner = Gus_sql.Runner

let sql =
  "SELECT SUM(l_extendedprice * (1.0 - l_discount)) AS revenue, \
          COUNT(*) AS items, AVG(l_quantity) AS avg_qty \
   FROM lineitem TABLESAMPLE (15 PERCENT), orders TABLESAMPLE (30 PERCENT) \
   WHERE l_orderkey = o_orderkey \
   GROUP BY l_returnflag"

let () =
  let db = Gus_tpch.Tpch.generate ~seed:19 ~scale:1.0 () in
  print_endline "query:";
  print_endline sql;
  print_newline ();
  let result =
    (Runner.run_request db (Runner.request ~seed:23 sql)).Runner.rs_result
  in
  let exact = Runner.run_exact_groups db sql in
  Printf.printf "%-6s %-9s %14s %22s %14s\n" "flag" "metric" "estimate"
    "95% interval" "exact";
  List.iter
    (fun g ->
      let truths = List.assoc g.Runner.keys exact in
      List.iter
        (fun c ->
          let ci = c.Runner.ci95_normal in
          Printf.printf "%-6s %-9s %14.4g [%9.4g, %9.4g] %14.4g\n"
            (String.concat "," g.Runner.keys)
            c.Runner.label c.Runner.value ci.Gus_stats.Interval.lo
            ci.Gus_stats.Interval.hi
            (List.assoc c.Runner.label truths))
        g.Runner.group_cells)
    result.Runner.groups;
  Printf.printf
    "\n(%d result tuples sampled; groups never seen in the sample would be \
     missing from the report - the usual small-group caveat of AQP.)\n"
    result.Runner.n_sample_tuples
