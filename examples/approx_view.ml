(* The paper's introduction, verbatim: an APPROX view that returns
   [0.05, 0.95] quantile bounds for an aggregate over TABLESAMPLEd tables,
   through the SQL frontend.

   Run with:  dune exec examples/approx_view.exe *)

let sql =
  "CREATE VIEW approx (lo, hi) AS\n\
   SELECT QUANTILE(SUM(l_discount * (1.0 - l_tax)), 0.05) AS lo,\n\
  \       QUANTILE(SUM(l_discount * (1.0 - l_tax)), 0.95) AS hi\n\
   FROM lineitem TABLESAMPLE (10 PERCENT),\n\
  \     orders TABLESAMPLE (1000 ROWS)\n\
   WHERE l_orderkey = o_orderkey AND\n\
  \      l_extendedprice > 100.0;"

let () =
  let db = Gus_tpch.Tpch.generate ~seed:3 ~scale:1.0 () in
  print_endline "query:";
  print_endline sql;
  print_newline ();
  let result =
    (Gus_sql.Runner.run_request db (Gus_sql.Runner.request ~seed:13 sql))
      .Gus_sql.Runner.rs_result
  in
  let lo, hi =
    match result.Gus_sql.Runner.cells with
    | [ lo; hi ] -> (lo.Gus_sql.Runner.value, hi.Gus_sql.Runner.value)
    | _ -> assert false
  in
  Printf.printf "APPROX view: lo = %.6g, hi = %.6g\n" lo hi;
  Printf.printf "(5%% chance the true answer is below lo, 95%% below hi)\n\n";
  let truth =
    List.assoc "lo"
      (Gus_sql.Runner.run_exact db sql)
  in
  Printf.printf "true answer: %.6g  -> inside [lo, hi]: %b\n" truth
    (lo <= truth && truth <= hi)
