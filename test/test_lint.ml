(* Tests for the static SOA-soundness linter (Gus_analysis.Lint):

   1. Unit tests pinning each GUSxxx code to a minimal trigger plan,
      including one plan that fires three distinct codes at once.
   2. A QCheck property over random plan trees (valid and invalid shapes
      mixed) asserting that the linter is total, that Rewrite.analyze
      raises Unsupported exactly when the linter reports an Error, and
      that every diagnostic path resolves back into the plan.
   3. Every statement of the example workload (examples/workload) lints
      exactly as the test-side dense engine does over the materialized
      design: root diagnostics, [a], pass counts and the variance bound,
      bit for bit. *)

module Gus = Gus_core.Gus
module Splan = Gus_core.Splan
module Lint = Gus_analysis.Lint
module D = Gus_analysis.Diagnostic
module Rewrite = Gus_analysis.Rewrite
module Sampler = Gus_sampling.Sampler
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let card = function
  | "r" -> 100
  | "s" -> 1000
  | "t" -> 50
  | _ -> 100

let b01 = Sampler.Bernoulli 0.1
let b05 = Sampler.Bernoulli 0.5

let join l r =
  Splan.Equi_join
    { left = l; right = r; left_key = Expr.col "k"; right_key = Expr.col "k" }

(* Substring check (no external string library in the test deps). *)
let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let codes_of report =
  List.map (fun d -> D.code_id d.D.code) report.Lint.diagnostics

let has_code id report = List.mem id (codes_of report)

(* ---- the diagnostic registry ---- *)

let test_registry () =
  check_int "18 codes" 18 (List.length D.all_codes);
  let ids = List.map D.code_id D.all_codes in
  check (Alcotest.list Alcotest.string) "stable ids"
    [ "GUS001"; "GUS002"; "GUS003"; "GUS004"; "GUS005"; "GUS006"; "GUS007";
      "GUS008"; "GUS009"; "GUS010"; "GUS011"; "GUS012"; "GUS013"; "GUS014";
      "GUS015"; "GUS016"; "GUS017"; "GUS018" ]
    ids;
  List.iter
    (fun c ->
      check_bool "has title" true (String.length (D.title c) > 0);
      check_bool "has citation" true (String.length (D.citation c) > 0))
    D.all_codes

let test_path_rendering () =
  check_string "root" "$" (D.path_to_string []);
  check_string "nested" "$.0.1" (D.path_to_string [ 0; 1 ]);
  check_bool "preorder" true (D.compare_path [ 0 ] [ 0; 1 ] < 0)

(* ---- one code per minimal trigger ---- *)

let test_clean_plan () =
  let plan =
    join (Splan.Sample (b01, Splan.Scan "r")) (Splan.Sample (b05, Splan.Scan "s"))
  in
  let report = Lint.run ~card plan in
  check_int "no diagnostics" 0 (List.length report.Lint.diagnostics);
  match report.Lint.analysis with
  | None -> Alcotest.fail "clean plan must be analyzable"
  | Some a ->
      let expected =
        Gus.join (Gus.bernoulli ~rel:"r" 0.1) (Gus.bernoulli ~rel:"s" 0.5)
      in
      check_bool "gus matches rewriter" true (Gus.equal_approx (Lazy.force a.Lint.gus) expected)

let test_self_join_gus001 () =
  let report = Lint.run ~card (join (Splan.Scan "r") (Splan.Scan "r")) in
  check_bool "GUS001" true (has_code "GUS001" report);
  check_bool "not analyzable" true (report.Lint.analysis = None)

let test_union_mismatch_gus002 () =
  let plan =
    Splan.Union_samples
      (Splan.Sample (b01, Splan.Scan "r"), Splan.Sample (b01, Splan.Scan "s"))
  in
  check_bool "GUS002" true (has_code "GUS002" (Lint.run ~card plan))

let test_wor_over_derived_gus003 () =
  (* WOR over an input that is itself sampled: N is a random variable. *)
  let plan =
    Splan.Sample (Sampler.Wor 10, Splan.Sample (b01, Splan.Scan "r"))
  in
  check_bool "GUS003" true (has_code "GUS003" (Lint.run ~card plan))

let test_wor_over_fixed_gus018 () =
  (* WOR over a sample-free but cardinality-changing derived input: N is
     fixed yet not statically known, a dedicated error distinct from the
     random-input case. *)
  let plan =
    Splan.Sample
      (Sampler.Wor 10, Splan.Select (Expr.(col "x" > int 0), Splan.Scan "r"))
  in
  let report = Lint.run ~card plan in
  check_bool "GUS018" true (has_code "GUS018" report);
  check_bool "not GUS003" false (has_code "GUS003" report);
  check_bool "error: not analyzable" true (report.Lint.analysis = None)

let test_wor_over_preserving_projection () =
  (* A Project chain keeps rows 1:1 with the base table, so WOR's N
     resolves through the skeleton to card "r" = 100 and a = 10/100. *)
  let plan =
    Splan.Sample
      (Sampler.Wor 10,
       Splan.Project ([ ("x", Expr.col "x") ], Splan.Scan "r"))
  in
  let report = Lint.run ~card plan in
  check_bool "no GUS018" false (has_code "GUS018" report);
  check_bool "no GUS003" false (has_code "GUS003" report);
  match report.Lint.analysis with
  | None -> Alcotest.fail "must be analyzable"
  | Some a ->
      check (Alcotest.float 1e-12) "a = n/N" 0.1 (Lazy.force a.Lint.gus).Gus.a

let test_block_over_derived_gus004 () =
  let block = Sampler.Block { rows_per_block = 10; p = 0.5 } in
  let plan = Splan.Sample (block, join (Splan.Scan "r") (Splan.Scan "s")) in
  check_bool "GUS004" true (has_code "GUS004" (Lint.run ~card plan))

let test_hash_over_derived_gus005 () =
  let hash = Sampler.Hash_bernoulli { seed = 7; p = 0.5 } in
  let plan = Splan.Sample (hash, join (Splan.Scan "r") (Splan.Scan "s")) in
  check_bool "GUS005" true (has_code "GUS005" (Lint.run ~card plan))

let test_wr_gus006 () =
  let report = Lint.run ~card (Splan.Sample (Sampler.Wr 5, Splan.Scan "r")) in
  check_bool "GUS006" true (has_code "GUS006" report)

let test_distinct_gus007 () =
  let plan = Splan.Distinct (Splan.Sample (b01, Splan.Scan "r")) in
  check_bool "GUS007" true (has_code "GUS007" (Lint.run ~card plan));
  (* DISTINCT over a sample-free input is fine. *)
  let ok = Splan.Distinct (Splan.Scan "r") in
  check_int "sample-free distinct clean" 0
    (List.length (Lint.run ~card ok).Lint.diagnostics)

let test_probability_range_gus008 () =
  let too_big = Splan.Sample (Sampler.Bernoulli 1.5, Splan.Scan "r") in
  check_bool "p > 1" true (has_code "GUS008" (Lint.run ~card too_big));
  let n_over_cap = Splan.Sample (Sampler.Wor 200, Splan.Scan "r") in
  check_bool "n > N" true (has_code "GUS008" (Lint.run ~card n_over_cap))

let test_zero_probability_gus009 () =
  let plan = Splan.Sample (Sampler.Bernoulli 0.0, Splan.Scan "r") in
  let report = Lint.run ~card plan in
  check_bool "GUS009" true (has_code "GUS009" report);
  check_bool "error severity" true
    (List.exists (fun d -> D.severity d = D.Error) report.Lint.diagnostics)

let test_small_a_gus010 () =
  let plan = Splan.Sample (Sampler.Bernoulli 1e-5, Splan.Scan "r") in
  let report = Lint.run ~card plan in
  check_bool "GUS010" true (has_code "GUS010" report);
  check_bool "only a warning: still analyzable" true
    (report.Lint.analysis <> None);
  (* The threshold is configurable. *)
  let lax =
    Lint.run ~config:{ Lint.default_config with Lint.small_a = 1e-9 } ~card plan
  in
  check_bool "below-threshold config silences it" false (has_code "GUS010" lax)

(* The threshold comparison is strict, 0 disables the warning entirely,
   and invalid configs are rejected rather than silently accepted. *)
let test_small_a_boundaries () =
  let plan = Splan.Sample (Sampler.Bernoulli 1e-3, Splan.Scan "r") in
  let with_threshold small_a =
    Lint.run ~config:{ Lint.default_config with Lint.small_a } ~card plan
  in
  check_bool "a = threshold: no warning (strict <)" false
    (has_code "GUS010" (with_threshold 1e-3));
  check_bool "a just below threshold: warns" true
    (has_code "GUS010" (with_threshold 1.0000001e-3));
  check_bool "small_a = 0 disables the warning" false
    (has_code "GUS010" (with_threshold 0.0));
  let rejects config =
    match Lint.run ~config ~card plan with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative small_a rejected" true
    (rejects { Lint.default_config with Lint.small_a = -1.0 });
  check_bool "negative variance_bound rejected" true
    (rejects { Lint.default_config with Lint.variance_bound = -1.0 });
  check_bool "NaN cost_budget rejected" true
    (rejects { Lint.default_config with Lint.cost_budget = Float.nan })

(* [run] stays total when every base relation is empty: WOR's a = n/N has
   no denominator, selections/joins see cardinality-zero intervals. *)
let test_totality_on_empty_relations () =
  let zero_card _ = 0 in
  let plans =
    [ Splan.Sample (b01, Splan.Scan "r");
      Splan.Sample (Sampler.Wor 10, Splan.Scan "r");
      Splan.Sample (Sampler.Wor 0, Splan.Scan "r");
      join (Splan.Sample (b01, Splan.Scan "r")) (Splan.Scan "s");
      Splan.Sample
        (Sampler.Wor 1,
         Splan.Project ([ ("x", Expr.col "x") ], Splan.Scan "r")) ]
  in
  List.iter
    (fun plan ->
      let report = Lint.run ~card:zero_card plan in
      ignore (Lint.summary report);
      ignore (Lint.to_json report))
    plans

let test_redundant_gus011 () =
  let keep_all = Splan.Sample (Sampler.Bernoulli 1.0, Splan.Scan "r") in
  let report = Lint.run ~card keep_all in
  check_bool "GUS011" true (has_code "GUS011" report);
  check_bool "hint only: analyzable" true (report.Lint.analysis <> None);
  let full_wor = Splan.Sample (Sampler.Wor 100, Splan.Scan "r") in
  check_bool "WOR n = N" true (has_code "GUS011" (Lint.run ~card full_wor))

let test_pushdown_gus012 () =
  let pred = Expr.(col "x" > int 3) in
  let above = Splan.Sample (b01, Splan.Select (pred, Splan.Scan "r")) in
  let report = Lint.run ~card above in
  check_bool "GUS012 hint" true (has_code "GUS012" report);
  check_bool "hint only: analyzable" true (report.Lint.analysis <> None);
  let below = Splan.Select (pred, Splan.Sample (b01, Splan.Scan "r")) in
  check_bool "already pushed: no hint" false
    (has_code "GUS012" (Lint.run ~card below));
  (* WOR cannot commute below a selection (it would change n/N), so no
     pushdown hint there. *)
  let wor_above = Splan.Sample (Sampler.Wor 10, Splan.Select (pred, Splan.Scan "r")) in
  check_bool "no hint for WOR" false (has_code "GUS012" (Lint.run ~card wor_above))

let test_analysis_limit_gus013 () =
  (* More base relations than Subset.max_mask_bits: even the symbolic
     engine runs out — subset masks no longer fit an OCaml int. *)
  let n = Gus_util.Subset.max_mask_bits + 1 in
  let plan = ref (Splan.Scan "r0") in
  for i = 1 to n - 1 do
    plan := Splan.Cross (!plan, Splan.Scan (Printf.sprintf "r%d" i))
  done;
  let report = Lint.run ~card (Splan.Sample (b01, !plan)) in
  check_bool "GUS013" true (has_code "GUS013" report);
  (* Just inside the mask limit the symbolic engine analyzes fine, far
     past the dense 2^n wall. *)
  let m = Gus_util.Subset.max_mask_bits in
  let wide = ref (Splan.Scan "r0") in
  for i = 1 to m - 1 do
    wide := Splan.Cross (!wide, Splan.Scan (Printf.sprintf "r%d" i))
  done;
  let ok = Lint.run ~card (Splan.Sample (b01, !wide)) in
  check_bool "62 rels symbolically analyzable" true (ok.Lint.analysis <> None)

let test_enumeration_cost_gus014 () =
  let plan =
    Splan.Cross
      (Splan.Sample (b01, Splan.Scan "r"),
       Splan.Cross (Splan.Sample (b05, Splan.Scan "s"), Splan.Scan "t"))
  in
  let tight =
    Lint.run ~config:{ Lint.default_config with Lint.cost_budget = 10.0 }
      ~card plan
  in
  check_bool "GUS014 under a tight budget" true (has_code "GUS014" tight);
  check_bool "warning only: analyzable" true (tight.Lint.analysis <> None);
  check_bool "default budget is silent here" false
    (has_code "GUS014" (Lint.run ~card plan))

let test_variance_bound_gus015 () =
  let tiny = Splan.Sample (Sampler.Bernoulli 1e-5, Splan.Scan "r") in
  let report = Lint.run ~card tiny in
  (* A single Bernoulli(p) has worst-case Var/E^2 = 1/p - 1. *)
  check_bool "GUS015" true (has_code "GUS015" report);
  check_bool "hint only: analyzable" true (report.Lint.analysis <> None);
  let fine = Splan.Sample (b01, Splan.Scan "r") in
  check_bool "10% sample is silent" false (has_code "GUS015" (Lint.run ~card fine))

let test_zero_coefficients_gus016 () =
  (* s is never sampled, so every coefficient of a subset containing it
     is provably zero and the kernel can skip those passes. *)
  let plan = join (Splan.Sample (b01, Splan.Scan "r")) (Splan.Scan "s") in
  let report = Lint.run ~card plan in
  check_bool "GUS016" true (has_code "GUS016" report);
  (match report.Lint.analysis with
  | None -> Alcotest.fail "must be analyzable"
  | Some a ->
      let c = a.Lint.cost in
      check_int "dead = bit of s" 2 c.Gus_analysis.Cost.dead;
      check_int "2 of 3 passes skipped" 2 c.Gus_analysis.Cost.skipped);
  (* Fully sampled: nothing is inert, no hint. *)
  let alive =
    join (Splan.Sample (b01, Splan.Scan "r")) (Splan.Sample (b05, Splan.Scan "s"))
  in
  check_bool "no inert relation: silent" false
    (has_code "GUS016" (Lint.run ~card alive));
  (* Sample-free plans answer exactly; the identity GUS must not fire
     cost noise. *)
  check_int "sample-free plan clean" 0
    (List.length (Lint.run ~card (join (Splan.Scan "r") (Splan.Scan "s"))).Lint.diagnostics)

let test_stacked_samplers_gus017 () =
  let plan =
    Splan.Sample (b01, Splan.Sample (b05, Splan.Scan "r"))
  in
  let report = Lint.run ~card plan in
  check_bool "GUS017" true (has_code "GUS017" report);
  check_bool "hint only: analyzable" true (report.Lint.analysis <> None);
  (* The attached fix merges the pair into one Bernoulli(0.05). *)
  let fixed, applied = Lint.apply_fixes ~card plan in
  check_int "one fix applied" 1 (List.length applied);
  (match fixed with
  | Splan.Sample (Sampler.Bernoulli p, Splan.Scan "r") ->
      check (Alcotest.float 1e-12) "merged a" 0.05 p
  | _ -> Alcotest.fail "expected a single merged Bernoulli over the scan");
  check_bool "fixed plan has no GUS017" false
    (has_code "GUS017" (Lint.run ~card fixed))

(* ---- several codes in one plan, reported all at once ---- *)

let test_multiple_codes_one_plan () =
  let plan =
    Splan.Distinct
      (Splan.Sample (Sampler.Wr 5, Splan.Cross (Splan.Scan "r", Splan.Scan "r")))
  in
  let report = Lint.run ~card plan in
  let distinct_codes = List.sort_uniq compare (codes_of report) in
  check_bool "at least 3 distinct codes" true (List.length distinct_codes >= 3);
  List.iter
    (fun c -> check_bool (c ^ " present") true (has_code c report))
    [ "GUS001"; "GUS006"; "GUS007" ];
  (* Rewrite.Unsupported carries every code in one message. *)
  (match Rewrite.analyze ~card plan with
  | exception Rewrite.Unsupported msg ->
      List.iter
        (fun c ->
          check_bool (c ^ " in message") true
            (contains_sub msg c))
        [ "GUS001"; "GUS006"; "GUS007" ]
  | _ -> Alcotest.fail "analyze must reject");
  (* All paths resolve into the plan. *)
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "path %s resolves" (D.path_to_string d.D.path))
        true
        (Splan.subtree plan d.D.path <> None))
    report.Lint.diagnostics

(* ---- satellite: typed Union_samples lineage error ---- *)

let test_union_lineage_mismatch_exception () =
  let plan = Splan.Union_samples (Splan.Scan "r", Splan.Scan "s") in
  match Splan.lineage_schema plan with
  | _ -> Alcotest.fail "must raise"
  | exception Splan.Union_lineage_mismatch { left; right } ->
      check (Alcotest.list Alcotest.string) "left" [ "r" ] left;
      check (Alcotest.list Alcotest.string) "right" [ "s" ] right

(* ---- report rendering ---- *)

let test_report_rendering () =
  let plan = Splan.Sample (Sampler.Wr 5, Splan.Scan "r") in
  let report = Lint.run ~card plan in
  check_string "summary" "1 error(s), 0 warning(s), 0 hint(s)"
    (Lint.summary report);
  let json = Lint.to_json report in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in json") true (contains_sub json needle))
    [ "\"errors\": 1"; "\"analyzable\": false"; "GUS006" ];
  let annotated = Format.asprintf "%a" Lint.pp_annotated_plan (plan, report) in
  check_bool "marker on offending line" true
    (contains_sub annotated "<-- GUS006")

(* ---- property: linter totality and agreement with the rewriter ---- *)

let sampler_gen =
  QCheck2.Gen.(
    oneof
      [ (float_range (-0.2) 1.2 >|= fun p -> Sampler.Bernoulli p);
        (int_range (-2) 150 >|= fun n -> Sampler.Wor n);
        (int_range 1 20 >|= fun n -> Sampler.Wr n);
        ( pair (int_range 1 20) (float_range 0.0 1.1) >|= fun (b, p) ->
          Sampler.Block { rows_per_block = b; p } );
        ( pair (int_range 0 99) (float_range 0.0 1.1) >|= fun (seed, p) ->
          Sampler.Hash_bernoulli { seed; p } ) ])

let plan_gen =
  QCheck2.Gen.(
    let scan = oneofl [ "r"; "s"; "t" ] >|= fun r -> Splan.Scan r in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scan
           else
             let sub = self (n / 2) in
             oneof
               [ scan;
                 (sub >|= fun q -> Splan.Select (Expr.(col "x" > int 0), q));
                 (map2 (fun s q -> Splan.Sample (s, q)) sampler_gen sub);
                 (sub >|= fun q -> Splan.Distinct q);
                 map2
                   (fun l r ->
                     Splan.Equi_join
                       { left = l; right = r; left_key = Expr.col "k";
                         right_key = Expr.col "k" })
                   sub sub;
                 map2 (fun l r -> Splan.Cross (l, r)) sub sub;
                 map2 (fun l r -> Splan.Union_samples (l, r)) sub sub ]))

let prop_lint_total_and_consistent plan =
  (* The linter never raises and agrees with the rewriter wrapper. *)
  let report = Lint.run ~card plan in
  let errors = Lint.errors report in
  (* Every diagnostic carries a registered code and a resolvable path. *)
  List.iter
    (fun d ->
      assert (List.mem d.D.code D.all_codes);
      assert (Splan.subtree plan d.D.path <> None))
    report.Lint.diagnostics;
  match Rewrite.analyze ~card plan with
  | result ->
      (* Accepted plans have no Error findings and the same GUS. *)
      errors = []
      && report.Lint.analysis <> None
      && Gus.equal_approx (Lazy.force result.Rewrite.gus)
           (match report.Lint.analysis with
           | Some a -> (Lazy.force a.Lint.gus)
           | None -> assert false)
  | exception Rewrite.Unsupported msg ->
      (* Rejected plans produce at least one Error with a stable code that
         appears verbatim in the exception message. *)
      errors <> []
      && report.Lint.analysis = None
      && List.for_all
           (fun d -> contains_sub msg (D.code_id d.D.code))
           errors

let lint_property =
  QCheck2.Test.make ~name:"lint total; Unsupported <-> >=1 Error" ~count:500
    plan_gen prop_lint_total_and_consistent

(* ---- the symbolic engine against the dense oracle ---- *)

let test_workload_matches_dense () =
  let db = Gus_experiments.Harness.db_cached ~scale:0.01 in
  let rep = Gus_service.Workload_lint.run db "../examples/workload" in
  check_bool "workload found" true
    (List.length rep.Gus_service.Workload_lint.entries >= 6);
  List.iter
    (fun (e : Gus_service.Workload_lint.entry) ->
      let p = Gus_sql.Runner.prepare db e.Gus_service.Workload_lint.sql in
      match
        Dense_oracle.lint_mismatch p.Gus_sql.Runner.pr_plan
          p.Gus_sql.Runner.pr_lint
      with
      | None -> ()
      | Some what ->
          Alcotest.failf "%s #%d: %s" e.Gus_service.Workload_lint.file
            e.Gus_service.Workload_lint.query_index what)
    rep.Gus_service.Workload_lint.entries

let () =
  Alcotest.run "gus_analysis.lint"
    [ ( "registry",
        [ Alcotest.test_case "codes and citations" `Quick test_registry;
          Alcotest.test_case "path rendering" `Quick test_path_rendering ] );
      ( "codes",
        [ Alcotest.test_case "clean plan" `Quick test_clean_plan;
          Alcotest.test_case "GUS001 self-join" `Quick test_self_join_gus001;
          Alcotest.test_case "GUS002 union mismatch" `Quick test_union_mismatch_gus002;
          Alcotest.test_case "GUS003 WOR over derived" `Quick test_wor_over_derived_gus003;
          Alcotest.test_case "GUS018 WOR over fixed derived" `Quick test_wor_over_fixed_gus018;
          Alcotest.test_case "WOR over preserving projection" `Quick test_wor_over_preserving_projection;
          Alcotest.test_case "GUS004 block over derived" `Quick test_block_over_derived_gus004;
          Alcotest.test_case "GUS005 hash over derived" `Quick test_hash_over_derived_gus005;
          Alcotest.test_case "GUS006 with replacement" `Quick test_wr_gus006;
          Alcotest.test_case "GUS007 distinct over sample" `Quick test_distinct_gus007;
          Alcotest.test_case "GUS008 probability range" `Quick test_probability_range_gus008;
          Alcotest.test_case "GUS009 zero probability" `Quick test_zero_probability_gus009;
          Alcotest.test_case "GUS010 small a" `Quick test_small_a_gus010;
          Alcotest.test_case "GUS011 redundant sampler" `Quick test_redundant_gus011;
          Alcotest.test_case "GUS012 pushdown hint" `Quick test_pushdown_gus012;
          Alcotest.test_case "GUS013 analysis limit" `Quick test_analysis_limit_gus013;
          Alcotest.test_case "GUS014 enumeration cost" `Quick test_enumeration_cost_gus014;
          Alcotest.test_case "GUS015 variance bound" `Quick test_variance_bound_gus015;
          Alcotest.test_case "GUS016 zero coefficients" `Quick test_zero_coefficients_gus016;
          Alcotest.test_case "GUS017 stacked samplers" `Quick test_stacked_samplers_gus017 ] );
      ( "config",
        [ Alcotest.test_case "small_a boundaries" `Quick test_small_a_boundaries;
          Alcotest.test_case "total on empty relations" `Quick test_totality_on_empty_relations ] );
      ( "reports",
        [ Alcotest.test_case "several codes at once" `Quick test_multiple_codes_one_plan;
          Alcotest.test_case "union lineage exception" `Quick test_union_lineage_mismatch_exception;
          Alcotest.test_case "summary / json / annotations" `Quick test_report_rendering ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest lint_property ] );
      ( "dense-oracle",
        [ Alcotest.test_case "workload statements = dense engine" `Quick
            test_workload_matches_dense ] ) ]
