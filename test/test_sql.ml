(* Tests for the SQL dialect frontend: lexer, parser, planner, runner. *)

module Token = Gus_sql.Token
module Lexer = Gus_sql.Lexer
module Ast = Gus_sql.Ast
module Parser = Gus_sql.Parser
module Planner = Gus_sql.Planner
module Runner = Gus_sql.Runner
module Splan = Gus_core.Splan
module Sampler = Gus_sampling.Sampler
open Gus_relational

(* One-shot execution: prepare + execute, the result only. *)
let run_sql ?seed db sql =
  (Runner.run_request db (Runner.request ?seed sql)).Runner.rs_result

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

(* ---- lexer ---- *)

let token_testable = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Token.to_string t)) ( = )

let test_lex_basic () =
  check (Alcotest.list token_testable) "select star"
    [ Token.SELECT; Token.STAR; Token.FROM; Token.IDENT "t"; Token.EOF ]
    (Lexer.tokenize "SELECT * FROM t")

let test_lex_numbers () =
  check (Alcotest.list token_testable) "ints and floats"
    [ Token.INT 42; Token.FLOAT 1.5; Token.FLOAT 0.001; Token.FLOAT 2e3; Token.EOF ]
    (Lexer.tokenize "42 1.5 0.001 2e3")

let test_lex_operators () =
  check (Alcotest.list token_testable) "comparison ops"
    [ Token.LE; Token.GE; Token.NEQ; Token.NEQ; Token.LT; Token.GT; Token.EQ; Token.EOF ]
    (Lexer.tokenize "<= >= <> != < > =")

let test_lex_strings () =
  check (Alcotest.list token_testable) "string with escape"
    [ Token.STRING "it's"; Token.EOF ]
    (Lexer.tokenize "'it''s'")

let test_lex_comments_case () =
  check (Alcotest.list token_testable) "comment skipped, case folded"
    [ Token.SELECT; Token.IDENT "x"; Token.EOF ]
    (Lexer.tokenize "select -- a comment\n X")

let test_lex_errors () =
  check_bool "unterminated string" true
    (try ignore (Lexer.tokenize "'abc"); false with Lexer.Error _ -> true);
  check_bool "bad char" true
    (try ignore (Lexer.tokenize "SELECT @"); false with Lexer.Error _ -> true)

(* ---- parser ---- *)

let test_parse_minimal () =
  let q = Parser.parse "SELECT SUM(x) FROM t" in
  check_int "one item" 1 (List.length q.Ast.items);
  check_int "one from" 1 (List.length q.Ast.from);
  check_bool "no where" true (q.Ast.where = None);
  check_bool "no view" true (q.Ast.view = None)

let test_parse_paper_intro_query () =
  let q =
    Parser.parse
      "CREATE VIEW approx (lo, hi) AS \
       SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05), \
              QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) \
       FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) \
       WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;"
  in
  check_bool "view parsed" true (q.Ast.view = Some ("approx", [ "lo"; "hi" ]));
  check_int "two quantile items" 2 (List.length q.Ast.items);
  (match q.Ast.items with
  | [ { agg = Ast.Quantile (Ast.Sum _, q1); _ }; { agg = Ast.Quantile (Ast.Sum _, q2); _ } ] ->
      close "q1" 0.05 q1;
      close "q2" 0.95 q2
  | _ -> Alcotest.fail "expected two quantile items");
  match q.Ast.from with
  | [ { relation = "lineitem"; sample = Some (Ast.Percent 10.0) };
      { relation = "orders"; sample = Some (Ast.Rows 1000) } ] ->
      ()
  | _ -> Alcotest.fail "from items mis-parsed"

let test_parse_aliases () =
  let q = Parser.parse "SELECT SUM(x) AS total, COUNT(*) n FROM t" in
  match q.Ast.items with
  | [ { alias = Some "total"; _ }; { agg = Ast.Count_star; alias = Some "n" } ] -> ()
  | _ -> Alcotest.fail "aliases mis-parsed"

let test_parse_aggregates () =
  let q = Parser.parse "SELECT SUM(a), COUNT(*), COUNT(b), AVG(c) FROM t" in
  match List.map (fun i -> i.Ast.agg) q.Ast.items with
  | [ Ast.Sum _; Ast.Count_star; Ast.Count _; Ast.Avg _ ] -> ()
  | _ -> Alcotest.fail "aggregate list"

let test_parse_tablesample_variants () =
  let q =
    Parser.parse
      "SELECT SUM(x) FROM a TABLESAMPLE BERNOULLI (5 PERCENT), \
       b TABLESAMPLE SYSTEM (20 PERCENT), c TABLESAMPLE (15 ROWS) REPEATABLE (7), d"
  in
  match List.map (fun f -> f.Ast.sample) q.Ast.from with
  | [ Some (Ast.Percent 5.0); Some (Ast.System_percent 20.0); Some (Ast.Rows 15); None ] -> ()
  | _ -> Alcotest.fail "tablesample variants"

let test_parse_expression_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  check Alcotest.string "mul binds tighter" "(1 + (2 * 3))" (Expr.to_string e);
  let e2 = Parser.parse_expr "(1 + 2) * 3" in
  check Alcotest.string "parens" "((1 + 2) * 3)" (Expr.to_string e2);
  let e3 = Parser.parse_expr "a = 1 AND b < 2 OR c > 3" in
  check Alcotest.string "bool precedence" "(((a = 1) AND (b < 2)) OR (c > 3))"
    (Expr.to_string e3);
  let e4 = Parser.parse_expr "NOT a = 1" in
  check_bool "NOT parses" true (match e4 with Expr.Not _ -> true | _ -> false)

let test_parse_unary_minus () =
  let e = Parser.parse_expr "-x + 1" in
  check Alcotest.string "unary minus" "(-(x) + 1)" (Expr.to_string e)

let test_parse_errors () =
  let fails sql = try ignore (Parser.parse sql); false with Parser.Error _ -> true in
  check_bool "missing FROM" true (fails "SELECT SUM(x)");
  check_bool "bare column agg" true (fails "SELECT x FROM t");
  check_bool "trailing junk" true (fails "SELECT SUM(x) FROM t extra stuff here");
  check_bool "bad quantile level" true
    (fails "SELECT QUANTILE(SUM(x), 1.5) FROM t");
  check_bool "nested quantile" true
    (fails "SELECT QUANTILE(QUANTILE(SUM(x), 0.5), 0.5) FROM t");
  check_bool "percent out of range" true
    (fails "SELECT SUM(x) FROM t TABLESAMPLE (150 PERCENT)");
  check_bool "system rows" true
    (fails "SELECT SUM(x) FROM t TABLESAMPLE SYSTEM (10 ROWS)");
  check_bool "fractional rows" true
    (fails "SELECT SUM(x) FROM t TABLESAMPLE (1.5 ROWS)")

let test_parse_pp_roundtrip () =
  let sql =
    "SELECT SUM(a * b) AS s FROM t TABLESAMPLE (10 PERCENT), u WHERE x = y"
  in
  let q = Parser.parse sql in
  let printed = Format.asprintf "@[%a@]" Ast.pp_query q in
  let q2 = Parser.parse printed in
  check_bool "parse(pp(parse sql)) = parse sql" true (q = q2)

(* qcheck: pretty-print/parse roundtrip over random expressions. *)

let expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ (int_range 0 1000 >|= Expr.int);
        (float_range 0.0 100.0 >|= fun f -> Expr.float (Float.round (f *. 100.0) /. 100.0));
        oneofl [ Expr.col "a"; Expr.col "b"; Expr.col "c_name" ];
        return (Expr.bool true);
        return Expr.null ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      oneof
        [ leaf;
          (let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ] in
           let* l = go (depth - 1) in
           let* r = go (depth - 1) in
           return (Expr.Bin (op, l, r)));
          (let* op = oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
           let* l = go (depth - 1) in
           let* r = go (depth - 1) in
           return (Expr.Cmp (op, l, r)));
          (let* l = go (depth - 1) in
           let* r = go (depth - 1) in
           return (Expr.And (l, r)));
          (let* l = go (depth - 1) in
           let* r = go (depth - 1) in
           return (Expr.Or (l, r)));
          (go (depth - 1) >|= fun e -> Expr.Not e);
          (go (depth - 1) >|= fun e -> Expr.Neg e) ]
  in
  go 3

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"expression pp/parse roundtrip" ~count:300 expr_gen
    (fun e ->
      let printed = Expr.to_string e in
      let reparsed = Parser.parse_expr printed in
      (* Compare via re-printing: integer literals may reparse as the same
         value but the AST uses a canonical form already, so ASTs should
         match exactly. *)
      reparsed = e || Expr.to_string reparsed = printed)

let prop_query_roundtrip =
  QCheck2.Test.make ~name:"query pp/parse roundtrip" ~count:200
    QCheck2.Gen.(pair expr_gen (int_range 1 99))
    (fun (e, pct) ->
      let q =
        { Ast.view = None;
          items = [ { Ast.agg = Ast.Sum e; alias = Some "s" } ];
          from = [ { Ast.relation = "t"; sample = Some (Ast.Percent (float_of_int pct)) } ];
          where = Some e;
          group_by = [] }
      in
      let printed = Format.asprintf "@[%a@]" Ast.pp_query q in
      let reparsed = Parser.parse printed in
      (* Integer-valued float literals legitimately reparse as ints
         (%g prints 42.0 as "42"), so compare by print-fixpoint. *)
      reparsed = q
      || Format.asprintf "@[%a@]" Ast.pp_query reparsed = printed)

let sql_qcheck = List.map QCheck_alcotest.to_alcotest [ prop_expr_roundtrip; prop_query_roundtrip ]

(* ---- planner ---- *)

let db = lazy (Gus_tpch.Tpch.generate ~seed:9 ~scale:0.05 ())

let compile sql = (Planner.compile (Lazy.force db) (Parser.parse sql)).Planner.plan

let test_plan_single_table () =
  match compile "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT)" with
  | Splan.Sample (Sampler.Bernoulli p, Splan.Scan "lineitem") ->
      close "rate" 0.1 p
  | p -> Alcotest.failf "unexpected plan %s" (Format.asprintf "%a" Splan.pp p)

let test_plan_join_detected () =
  match
    compile
      "SELECT SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey"
  with
  | Splan.Equi_join { left = Splan.Scan "lineitem"; right = Splan.Scan "orders"; _ } -> ()
  | p -> Alcotest.failf "expected equi join, got %s" (Format.asprintf "%a" Splan.pp p)

let test_plan_single_table_predicate_pushed () =
  match
    compile
      "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT), orders \
       WHERE l_orderkey = o_orderkey AND l_quantity > 5"
  with
  | Splan.Equi_join { left = Splan.Select (_, Splan.Sample _); _ } -> ()
  | p -> Alcotest.failf "predicate not pushed: %s" (Format.asprintf "%a" Splan.pp p)

let test_plan_cross_when_no_key () =
  match compile "SELECT SUM(l_quantity) FROM lineitem, part" with
  | Splan.Cross _ -> ()
  | p -> Alcotest.failf "expected cross, got %s" (Format.asprintf "%a" Splan.pp p)

let test_plan_residual_predicate () =
  (* A non-key multi-relation predicate lands in a top selection. *)
  match
    compile
      "SELECT SUM(l_quantity) FROM lineitem, orders \
       WHERE l_orderkey = o_orderkey AND l_quantity < o_totalprice"
  with
  | Splan.Select (_, Splan.Equi_join _) -> ()
  | p -> Alcotest.failf "expected top selection, got %s" (Format.asprintf "%a" Splan.pp p)

let test_plan_errors () =
  let fails sql =
    try ignore (compile sql); false with Planner.Error _ -> true
  in
  check_bool "unknown relation" true (fails "SELECT SUM(x) FROM nope");
  check_bool "unknown column" true
    (fails "SELECT SUM(nope_col) FROM lineitem WHERE nope_col > 1");
  check_bool "self join" true (fails "SELECT SUM(l_quantity) FROM lineitem, lineitem");
  check_bool "system percent maps to block" true
    (match compile "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (10 PERCENT)" with
    | Splan.Sample (Sampler.Block { p; _ }, _) -> Float.abs (p -. 0.1) < 1e-12
    | _ -> false)

let test_sampler_of_spec () =
  check_bool "100 percent is no-op" true (Planner.sampler_of_spec (Ast.Percent 100.0) = None);
  check_bool "system 100 is no-op" true
    (Planner.sampler_of_spec (Ast.System_percent 100.0) = None);
  check_bool "rows" true (Planner.sampler_of_spec (Ast.Rows 5) = Some (Sampler.Wor 5))

(* ---- runner ---- *)

let test_run_exact_no_sampling () =
  let db = Lazy.force db in
  let result =
    run_sql db "SELECT SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem"
  in
  let exact =
    Runner.run_exact db "SELECT SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem"
  in
  List.iter2
    (fun cell (label, truth) ->
      check Alcotest.string "label" label cell.Runner.label;
      close ~eps:1e-6 "no sampling = exact" truth cell.Runner.value;
      close "zero sd" 0.0 cell.Runner.stddev)
    result.Runner.cells exact

let test_run_sampled_reasonable () =
  let db = Lazy.force db in
  let sql =
    "SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (30 PERCENT), orders \
     WHERE l_orderkey = o_orderkey"
  in
  let result = run_sql ~seed:3 db sql in
  let truth = snd (List.hd (Runner.run_exact db sql)) in
  let cell = List.hd result.Runner.cells in
  check_bool "estimate within 6 sd" true
    (Float.abs (cell.Runner.value -. truth) <= 6.0 *. cell.Runner.stddev);
  check_bool "chebyshev contains truth" true
    (Gus_stats.Interval.contains cell.Runner.ci95_chebyshev truth)

let test_run_quantile_brackets () =
  let db = Lazy.force db in
  let sql =
    "SELECT QUANTILE(SUM(l_quantity), 0.05) AS lo, QUANTILE(SUM(l_quantity), 0.95) AS hi \
     FROM lineitem TABLESAMPLE (50 PERCENT)"
  in
  let result = run_sql ~seed:4 db sql in
  match result.Runner.cells with
  | [ lo; hi ] -> check_bool "lo < hi" true (lo.Runner.value < hi.Runner.value)
  | _ -> Alcotest.fail "two cells expected"

let test_run_avg_count () =
  let db = Lazy.force db in
  let sql =
    "SELECT AVG(l_quantity), COUNT(l_quantity) FROM lineitem TABLESAMPLE (40 PERCENT)"
  in
  let result = run_sql ~seed:5 db sql in
  let truth = Runner.run_exact db sql in
  List.iter2
    (fun cell (_, t) ->
      check_bool "within 20%" true (Float.abs (cell.Runner.value -. t) < 0.2 *. t))
    result.Runner.cells truth

let test_parse_group_by () =
  let q = Parser.parse "SELECT SUM(x) FROM t GROUP BY k, j + 1" in
  check_int "two keys" 2 (List.length q.Ast.group_by);
  let q2 = Parser.parse "SELECT SUM(x) FROM t" in
  check_int "no keys" 0 (List.length q2.Ast.group_by)

let test_run_group_by_exact () =
  (* Without sampling, per-group estimates equal the exact group sums. *)
  let db = Lazy.force db in
  let sql = "SELECT SUM(l_quantity) AS q FROM lineitem GROUP BY l_returnflag" in
  let result = run_sql db sql in
  let exact = Runner.run_exact_groups db sql in
  check_bool "no whole-query cells" true (result.Runner.cells = []);
  check_int "three flags" 3 (List.length result.Runner.groups);
  List.iter
    (fun g ->
      let truth = List.assoc "q" (List.assoc g.Runner.keys exact) in
      let cell = List.hd g.Runner.group_cells in
      close ~eps:1e-6 "group value exact" truth cell.Runner.value;
      close "zero sd" 0.0 cell.Runner.stddev)
    result.Runner.groups

let test_run_group_by_sampled () =
  let db = Lazy.force db in
  let sql =
    "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (40 PERCENT) \
     GROUP BY l_returnflag"
  in
  let result = run_sql ~seed:7 db sql in
  let exact = Runner.run_exact_groups db sql in
  check_int "three flags observed" 3 (List.length result.Runner.groups);
  List.iter
    (fun g ->
      let truth = List.assoc "q" (List.assoc g.Runner.keys exact) in
      let cell = List.hd g.Runner.group_cells in
      check_bool "group estimate within 5 sd" true
        (Float.abs (cell.Runner.value -. truth) <= 5.0 *. cell.Runner.stddev))
    result.Runner.groups

(* GROUP BY answers pinned bit for bit (estimate and stddev as %h hex,
   seed 11): string, int and float keys, two keys at once, a join with
   an unsampled table, a join with both sides sampled, WOR and SYSTEM
   sampling, and several aggregates in one statement.  The values were
   captured while groups were still copied tuple by tuple into row
   storage; building them by gathering columns must not move a bit. *)
let group_by_pins =
  [
    ( "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (30 PERCENT) GROUP BY l_returnflag",
      898,
      [ "R|q|0x1.a8a2aaaaaaaabp+14|0x1.6e3b34e092d1fp+10";
        "A|q|0x1.7bbd555555556p+14|0x1.5ce9582f21748p+10";
        "N|q|0x1.accp+14|0x1.766e40f9a514bp+10" ] );
    ( "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (25 PERCENT) GROUP BY l_linenumber",
      741,
      [ "1|s|0x1.194ca28b10a15p+22|0x1.5234ef5f18f69p+18";
        "3|s|0x1.898f467d2e8eep+21|0x1.41b4d21470913p+18";
        "2|s|0x1.b99d4fd174043p+21|0x1.45ad29654dba7p+18";
        "4|s|0x1.49a50655b08d8p+21|0x1.1ce2b7dec21f2p+18";
        "7|s|0x1.09066637e20fcp+19|0x1.bb217f3508bdp+16";
        "6|s|0x1.ac14e978b05cp+20|0x1.e1fbb9301ee62p+17";
        "5|s|0x1.0c3a82b16f2d6p+21|0x1.2085d8b838cd2p+18" ] );
    ( "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (20 PERCENT) GROUP BY l_discount",
      594,
      [ "0.04|n|0x1.18p+8|0x1.0bbb307acafdbp+5";
        "0.06|n|0x1.eap+7|0x1.f4e115049ec26p+4";
        "0.09|n|0x1.13p+8|0x1.095479c7e6581p+5";
        "0.03|n|0x1.eap+7|0x1.f4e115049ec26p+4";
        "0.08|n|0x1.eap+7|0x1.f4e115049ec26p+4";
        "0.05|n|0x1.0ep+8|0x1.06e825da8fc2bp+5";
        "0.02|n|0x1.3bp+8|0x1.1bf8c9d2ed1a2p+5";
        "0|n|0x1.72p+8|0x1.33c42213ee0c9p+5";
        "0.01|n|0x1.ep+7|0x1.efbdeb14f4edap+4";
        "0.1|n|0x1.0ep+8|0x1.06e825da8fc2bp+5";
        "0.07|n|0x1.aep+7|0x1.d5364c8cb8f86p+4" ] );
    ( "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (30 PERCENT) GROUP BY l_returnflag, l_linenumber",
      898,
      [ "R,1|q|0x1.97b5555555556p+12|0x1.65c9d0fe9e509p+9";
        "A,3|q|0x1.108p+12|0x1.208b1425a1acbp+9";
        "R,2|q|0x1.3c0aaaaaaaaabp+12|0x1.3c6d004896ab9p+9";
        "N,4|q|0x1.10b5555555556p+12|0x1.35fb4c1f3dcf3p+9";
        "N,7|q|0x1.1dd5555555556p+10|0x1.2b308ca8b20b4p+8";
        "N,1|q|0x1.eaap+12|0x1.9e4868b283e13p+9";
        "R,6|q|0x1.1155555555556p+11|0x1.9f2376c61bfb7p+8";
        "A,1|q|0x1.a4p+12|0x1.73e09b45d031p+9";
        "N,2|q|0x1.38b5555555556p+12|0x1.331d3fed49c6cp+9";
        "A,2|q|0x1.366aaaaaaaaabp+12|0x1.42cdf7045543ap+9";
        "A,6|q|0x1.a32aaaaaaaaabp+10|0x1.7477be3cf3ad1p+8";
        "R,3|q|0x1.4995555555556p+12|0x1.3d1139f23d206p+9";
        "A,4|q|0x1.9f6aaaaaaaaabp+11|0x1.001430fb44211p+9";
        "R,4|q|0x1.2d0aaaaaaaaabp+12|0x1.3c734b1a3ca5cp+9";
        "A,5|q|0x1.3a95555555556p+11|0x1.a961d69eeacf3p+8";
        "R,5|q|0x1.324p+11|0x1.b630803cafa2ep+8";
        "N,3|q|0x1.ba8p+11|0x1.0625640931bcdp+9";
        "N,6|q|0x1.0e6aaaaaaaaabp+11|0x1.965ca5fb0b553p+8";
        "N,5|q|0x1.a615555555556p+11|0x1.01a179d1d7c19p+9";
        "A,7|q|0x1.72p+9|0x1.f550571fc335p+7";
        "R,7|q|0x1.b3p+9|0x1.01b5c29a9265cp+8" ] );
    ( "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (20 PERCENT), orders WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority",
      594,
      [ "3-MEDIUM|s|0x1.a66672d41b348p+21|0x1.6e679fc0aba83p+18";
        "2-HIGH|s|0x1.2b1f77c5bcde4p+22|0x1.d0599b4fdb0d3p+18";
        "5-LOW|s|0x1.e129382bf7657p+21|0x1.82cc562092317p+18";
        "4-NOT SPECIFIED|s|0x1.9562196ce87b6p+21|0x1.64f5ce40dc699p+18";
        "1-URGENT|s|0x1.48863cbd2dee9p+21|0x1.27b747ce0f891p+18" ] );
    ( "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (2000 ROWS), orders TABLESAMPLE (50 PERCENT) WHERE l_orderkey = o_orderkey GROUP BY l_returnflag",
      1028,
      [ "R|n|0x1.007147ae147aep+10|0x1.ce52f66167797p+5";
        "A|n|0x1.04451eb851eb8p+10|0x1.cf7aac97f971dp+5";
        "N|n|0x1.0e38b43958106p+10|0x1.db1ca01be17c7p+5" ] );
    ( "SELECT SUM(l_quantity) AS q, AVG(l_extendedprice) AS a, COUNT(*) AS n FROM lineitem TABLESAMPLE SYSTEM (20 PERCENT) GROUP BY l_returnflag",
      500,
      [ "R|q|0x1.554p+14|0x1.120156e321fa9p+13";
        "R|a|0x1.69c59f2b4a439p+12|0x1.b1270bd924703p+8";
        "R|n|0x1.c7p+9|0x1.6c5cc9f9be4afp+8";
        "A|q|0x1.25d4p+14|0x1.df2ea256ea92ep+12";
        "A|a|0x1.7fd5a207b1d79p+12|0x1.cc9f28afb35d5p+7";
        "A|n|0x1.798p+9|0x1.328fc375259a1p+8";
        "N|q|0x1.51a8p+14|0x1.0f93ba7368b28p+13";
        "N|a|0x1.85f7b69eab61cp+12|0x1.2458ce97e7301p+8";
        "N|n|0x1.a18p+9|0x1.502f39a2345e2p+8" ] );
  ]

let test_run_group_by_pinned () =
  let db = Lazy.force db in
  List.iter
    (fun (sql, n_tuples, expected) ->
      let result = run_sql ~seed:11 db sql in
      check_int (sql ^ ": tuples") n_tuples result.Runner.n_sample_tuples;
      let got =
        List.concat_map
          (fun g ->
            List.map
              (fun c ->
                Printf.sprintf "%s|%s|%h|%h"
                  (String.concat "," g.Runner.keys)
                  c.Runner.label c.Runner.value c.Runner.stddev)
              g.Runner.group_cells)
          result.Runner.groups
      in
      check (Alcotest.list Alcotest.string) sql expected got)
    group_by_pins

(* One kernel run feeds every item, and a value's moments do not depend
   on the other values in the run: adding an AVG or a second SUM never
   moves the first item's bits, with or without GROUP BY. *)
let test_run_extra_items_keep_bits () =
  let db = Lazy.force db in
  let bits = Int64.bits_of_float in
  (* The first cell of the whole query, or of every group. *)
  let first (r : Runner.result) =
    match r.Runner.cells with
    | c :: _ -> [ c ]
    | [] -> List.map (fun g -> List.hd g.Runner.group_cells) r.Runner.groups
  in
  List.iter
    (fun group_by ->
      let from =
        " FROM lineitem TABLESAMPLE (30 PERCENT), orders TABLESAMPLE (50 \
         PERCENT) WHERE l_orderkey = o_orderkey" ^ group_by
      in
      let alone = run_sql ~seed:5 db ("SELECT SUM(l_quantity) AS q" ^ from) in
      let more =
        run_sql ~seed:5 db
          ("SELECT SUM(l_quantity) AS q, AVG(l_extendedprice) AS a, \
            SUM(o_totalprice) AS t" ^ from)
      in
      check_bool "non-empty" true (first alone <> []);
      List.iter2
        (fun (a : Runner.cell) (b : Runner.cell) ->
          check_bool "estimate bits" true (bits a.Runner.value = bits b.Runner.value);
          check_bool "stddev bits" true (bits a.Runner.stddev = bits b.Runner.stddev))
        (first alone) (first more))
    [ ""; " GROUP BY l_returnflag" ]

let test_run_deterministic_seed () =
  let db = Lazy.force db in
  let sql = "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (20 PERCENT)" in
  let a = run_sql ~seed:6 db sql and b = run_sql ~seed:6 db sql in
  close "same seed same estimate"
    (List.hd a.Runner.cells).Runner.value
    (List.hd b.Runner.cells).Runner.value

(* Differential test: for random conjunctive queries, the planner's
   sample-free execution must agree with a brute-force evaluator (cross
   product of the FROM relations, then one big filter). *)

let tiny_db =
  lazy
    (Gus_tpch.Tpch.generate ~seed:4242 ~scale:0.02
       ~config:{ Gus_tpch.Tpch.default_config with
                 customers_per_scale = 200; orders_per_customer = 4;
                 max_lines_per_order = 3 } ())

let brute_force_sum db relations pred f =
  let rels = List.map (Database.find db) relations in
  let product =
    match rels with
    | [] -> invalid_arg "empty"
    | first :: rest -> List.fold_left Ops.cross first rest
  in
  let keep =
    match pred with
    | None -> fun _ -> true
    | Some p -> Expr.bind_predicate product.Relation.schema p
  in
  let ev = Expr.bind_float product.Relation.schema f in
  Relation.fold (fun acc tup -> if keep tup then acc +. ev tup else acc) 0.0 product

let random_query_gen =
  let open QCheck2.Gen in
  let joins =
    [ ([ "lineitem" ], []);
      ([ "lineitem"; "orders" ], [ "l_orderkey = o_orderkey" ]);
      ([ "orders"; "customer" ], [ "o_custkey = c_custkey" ]);
      ([ "lineitem"; "orders"; "customer" ],
       [ "l_orderkey = o_orderkey"; "o_custkey = c_custkey" ]) ]
  in
  let filters =
    [ "l_quantity > 25"; "l_discount <= 0.05"; "o_totalprice < 20000";
      "c_nationkey < 12"; "l_extendedprice > 2000"; "o_orderdate >= 1000" ]
  in
  let* shape = oneofl joins in
  let relations, keys = shape in
  let applicable =
    List.filter
      (fun f ->
        let prefix = String.sub f 0 1 in
        List.exists (fun r -> String.sub r 0 1 = prefix) relations)
      filters
  in
  let* chosen = list_size (int_range 0 (List.length applicable))
                  (oneofl applicable) in
  let chosen = List.sort_uniq compare chosen in
  return (relations, keys @ chosen)

let prop_planner_matches_brute_force =
  QCheck2.Test.make ~name:"planner agrees with brute force" ~count:60
    random_query_gen
    (fun (relations, preds) ->
      let db = Lazy.force tiny_db in
      let where = if preds = [] then "" else " WHERE " ^ String.concat " AND " preds in
      let sql =
        "SELECT SUM(l_quantity) AS s FROM " ^ String.concat ", " relations ^ where
      in
      (* Only run when lineitem is in scope for the aggregate. *)
      if not (List.mem "lineitem" relations) then true
      else begin
        let planner_answer = List.assoc "s" (Runner.run_exact db sql) in
        let pred =
          if preds = [] then None
          else Some (Parser.parse_expr (String.concat " AND " preds))
        in
        let reference =
          brute_force_sum db relations pred (Expr.col "l_quantity")
        in
        Float.abs (planner_answer -. reference)
        <= 1e-6 *. Float.max 1.0 (Float.abs reference)
      end)

let differential_qcheck =
  List.map QCheck_alcotest.to_alcotest [ prop_planner_matches_brute_force ]

(* ---- one estimator route at any width ---- *)

(* 28 relations, 3 sampled: past the dense 2^26 wall for the full design,
   2^3 moment passes for the live one.  The unsampled relations hold one
   row each, so the cross product stays 6^3 rows. *)
let wide_db, wide_sql =
  let n = 28 and sampled = [ 3; 11; 20 ] in
  let db = Database.create () in
  for i = 0 to n - 1 do
    let col = Printf.sprintf "c%02d" i in
    let rel =
      Relation.create_base ~name:(Printf.sprintf "w%02d" i)
        (Schema.make [ { Schema.name = col; ty = Value.TFloat } ])
    in
    let rows = if List.mem i sampled then 6 else 1 in
    for r = 0 to rows - 1 do
      let v = float_of_int (((i + (3 * r)) mod 7) + 1) in
      Relation.append_row rel [| Value.Float v |]
    done;
    Database.add db rel
  done;
  let from =
    List.init n (fun i ->
        Printf.sprintf "w%02d%s" i
          (if List.mem i sampled then " TABLESAMPLE (50 PERCENT)" else ""))
  in
  ( db,
    "SELECT SUM(c03 + c11 * c20 + c00) AS s FROM " ^ String.concat ", " from )

let test_run_wide_live_route () =
  (* Runner.execute — what `gusdb query`/`serve` run — estimates on the
     live projection, so it answers where the full design cannot even be
     materialized, bit-identically to Sbox.stream on the same plan and
     seed (both feed the same sample to the same kernel). *)
  let p = Runner.prepare wide_db wide_sql in
  let bits = Int64.bits_of_float in
  List.iter
    (fun seed ->
      let rs = Runner.execute wide_db p { Runner.default_params with seed } in
      let cell = List.hd rs.Runner.rs_result.Runner.cells in
      let report, _ =
        Gus_estimator.Sbox.stream ~seed wide_db p.Runner.pr_plan
          ~f:Expr.(col "c03" + (col "c11" * col "c20") + col "c00")
      in
      check_int "live design" 3
        (Array.length report.Gus_estimator.Sbox.gus.Gus_core.Gus.rels);
      check_bool "estimate bit-identical" true
        (Int64.equal (bits cell.Runner.value)
           (bits report.Gus_estimator.Sbox.estimate));
      check_bool "stddev bit-identical" true
        (Int64.equal (bits cell.Runner.stddev)
           (bits report.Gus_estimator.Sbox.stddev));
      (* EXPLAIN draws the same sample and evaluates it the same way *)
      let ex =
        Runner.execute wide_db p { Runner.default_params with seed; explain = true }
      in
      let ex_cell = List.hd ex.Runner.rs_result.Runner.cells in
      check_bool "explain estimate bit-identical" true
        (Int64.equal (bits ex_cell.Runner.value) (bits cell.Runner.value));
      check_bool "explain stddev bit-identical" true
        (Int64.equal (bits ex_cell.Runner.stddev) (bits cell.Runner.stddev)))
    [ 1; 2; 3 ]

(* ---- per-row allocation on the execute path ---- *)

module Metrics = Gus_obs.Metrics

(* The workload corpus's four sampled shapes, each with its number of
   live relations.  [probe_pins] are the [inttbl.probe_len] count and
   sum that seeds 1-3 add at each scale (data seed 1), recorded while
   the probe loop still observed every probe one at a time. *)
let alloc_statements =
  [ ("q01", 1, "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT)");
    ( "q02", 1,
      "SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (20 PERCENT), orders \
       WHERE l_orderkey = o_orderkey" );
    ( "q03", 2,
      "SELECT COUNT(*) FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE \
       (25 PERCENT) WHERE l_orderkey = o_orderkey" );
    ( "q06", 1,
      "SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) GROUP BY \
       l_returnflag" ) ]

let probe_pins =
  [ ((0.1, "q01"), (1775, 2078)); ((0.1, "q02"), (3623, 4365));
    ((0.1, "q03"), (1428, 1725)); ((0.1, "q06"), (9209, 11660));
    ((1.0, "q01"), (17906, 23188)); ((1.0, "q02"), (36133, 46460));
    ((1.0, "q03"), (13335, 16807)); ((1.0, "q06"), (90957, 110839)) ]

let counter_named name = Metrics.counter_value (Metrics.counter name)
let probe_len () = List.assoc "inttbl.probe_len" (Metrics.all_histograms ())

(* Per statement and scale: minor words, sampler input rows, probe
   count and sum, kernel tuples, over three executes with metrics on. *)
let measure_executes ~scale =
  let db = Gus_tpch.Tpch.generate ~seed:1 ~scale () in
  List.map
    (fun (name, _, sql) ->
      let p = Runner.prepare db sql in
      let exec seed = ignore (Runner.execute db p { Runner.default_params with seed }) in
      exec 0;
      let snap () =
        ( Gc.minor_words (),
          counter_named "sampler.rows_in",
          Metrics.histogram_count (probe_len ()),
          Metrics.histogram_sum (probe_len ()),
          counter_named "moments.acc.tuples" )
      in
      let w0, r0, c0, s0, t0 = snap () in
      List.iter exec [ 1; 2; 3 ];
      let w1, r1, c1, s1, t1 = snap () in
      (name, (w1 -. w0, r1 - r0, c1 - c0, s1 -. s0, t1 - t0)))
    alloc_statements

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

(* Metrics on, as [serve] runs: the sampler's draws, the int-key join,
   GROUP BY and the moments kernel allocate nothing per row, so the
   minor words an execute adds grow by less than 0.1 per extra sampler
   input row between scale 0.1 and scale 1.  Boxing the draw alone
   costs 8 words per row; with a boxed RNG state, an [Int64]-hashed join
   table, per-row key strings and per-probe histogram updates these
   statements cost 9-23. *)
let test_alloc_per_row () =
  with_metrics @@ fun () ->
  let small = measure_executes ~scale:0.1 and large = measure_executes ~scale:1.0 in
  List.iter
    (fun (name, _, _) ->
      let w_s, r_s, _, _, _ = List.assoc name small
      and w_l, r_l, _, _, _ = List.assoc name large in
      let per_row = (w_l -. w_s) /. float_of_int (r_l - r_s) in
      check_bool
        (Printf.sprintf "%s: %.0f -> %.0f minor words for %d -> %d sampler rows (%.3f/row) < 0.1"
           name w_s w_l r_s r_l per_row)
        true
        (r_l > r_s && per_row < 0.1))
    alloc_statements

(* The kernel counts probe lengths per table and flushes them once per
   pass: [inttbl.probe_len] still gets one probe per kernel tuple per
   non-empty subset mask, with the pinned count and sum. *)
let test_probe_len_per_pass () =
  with_metrics @@ fun () ->
  List.iter
    (fun scale ->
      List.iter
        (fun (name, (_, _, count, sum, tuples)) ->
          let _, live, _ = List.find (fun (n, _, _) -> n = name) alloc_statements in
          let pin_count, pin_sum = List.assoc (scale, name) probe_pins in
          let what s = Printf.sprintf "scale %g %s: %s" scale name s in
          check_int (what "one probe per tuple per mask")
            (tuples * ((1 lsl live) - 1)) count;
          check_int (what "pinned count") pin_count count;
          check (Alcotest.float 0.0) (what "pinned sum") (float_of_int pin_sum) sum)
        (measure_executes ~scale))
    [ 0.1; 1.0 ]

let () =
  Alcotest.run "gus_sql"
    [ ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "comments/case" `Quick test_lex_comments_case;
          Alcotest.test_case "errors" `Quick test_lex_errors ] );
      ( "parser",
        [ Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "paper intro query" `Quick test_parse_paper_intro_query;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "tablesample variants" `Quick test_parse_tablesample_variants;
          Alcotest.test_case "expression precedence" `Quick test_parse_expression_precedence;
          Alcotest.test_case "unary minus" `Quick test_parse_unary_minus;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_parse_pp_roundtrip ] );
      ("qcheck", sql_qcheck);
      ("differential", differential_qcheck);
      ( "planner",
        [ Alcotest.test_case "single table" `Quick test_plan_single_table;
          Alcotest.test_case "join detection" `Quick test_plan_join_detected;
          Alcotest.test_case "predicate pushdown" `Quick test_plan_single_table_predicate_pushed;
          Alcotest.test_case "cross product fallback" `Quick test_plan_cross_when_no_key;
          Alcotest.test_case "residual predicate" `Quick test_plan_residual_predicate;
          Alcotest.test_case "errors" `Quick test_plan_errors;
          Alcotest.test_case "sampler_of_spec" `Quick test_sampler_of_spec ] );
      ( "runner",
        [ Alcotest.test_case "no sampling = exact" `Quick test_run_exact_no_sampling;
          Alcotest.test_case "sampled reasonable" `Quick test_run_sampled_reasonable;
          Alcotest.test_case "quantile brackets" `Quick test_run_quantile_brackets;
          Alcotest.test_case "avg/count" `Quick test_run_avg_count;
          Alcotest.test_case "group by parsing" `Quick test_parse_group_by;
          Alcotest.test_case "group by exact" `Quick test_run_group_by_exact;
          Alcotest.test_case "group by sampled" `Quick test_run_group_by_sampled;
          Alcotest.test_case "deterministic in seed" `Quick test_run_deterministic_seed;
          Alcotest.test_case "28 relations, 3 sampled = Sbox.stream" `Quick
            test_run_wide_live_route;
          Alcotest.test_case "group by pinned bits" `Quick test_run_group_by_pinned;
          Alcotest.test_case "extra items keep the first item's bits" `Quick
            test_run_extra_items_keep_bits;
          Alcotest.test_case "no per-row allocation, metrics on" `Quick
            test_alloc_per_row;
          Alcotest.test_case "probe lengths flushed per pass" `Quick
            test_probe_len_per_pass ] ) ]
