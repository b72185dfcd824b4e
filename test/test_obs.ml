(* Observability tests:

   1. Span nesting: enter/leave/span/instant reconstruct into the
      expected tree, including unbalanced enters closing at the last
      recorded descendant.
   2. Per-domain buffers: pool lanes trace concurrently and merge in
      ascending domain-id order at export time.
   3. Histogram buckets are upper-inclusive ([v <= le]) with an implicit
      +inf overflow bucket.
   4. QCheck: a traced+metered Sbox.of_plan run is bit-identical to an
      untraced one (estimate/total_f/n_tuples and the moment vector) —
      instrumentation must never perturb the RNG stream or the
      reduction order.
   5. exec_profiled draws in the same order as exec: same seed, same
      sample, plus well-formed per-node profiles.
   6. Histogram quantiles: linear interpolation pinned at bucket
      boundaries, +inf overflow saturation, empty histogram.
   7. Promexp: name mangling and the text exposition's counter / gauge /
      histogram lines, plus the atomic file dump.
   8. Journal: ring overwrite + dropped accounting, exact NDJSON lines
      (shortest round-trip floats, symbolic non-finites), the SLO
      breach predicate, and the rate limiter. *)

module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Relation = Gus_relational.Relation
module Sbox = Gus_estimator.Sbox
module Harness = Gus_experiments.Harness
module Pool = Gus_util.Pool
module Rng = Gus_util.Rng
module Trace = Gus_obs.Trace
module Metrics = Gus_obs.Metrics
module Promexp = Gus_obs.Promexp
module Journal = Gus_obs.Journal

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

(* Tracing state is process-global; every test leaves it disabled and
   empty so suites cannot leak events into each other. *)
let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    f

(* ---- 1. span nesting ---- *)

let test_span_nesting () =
  with_tracing (fun () ->
      Trace.span "outer" (fun () ->
          Trace.span "first" (fun () -> ());
          Trace.instant "mark";
          Trace.span ~args:(fun () -> [ ("k", "v") ]) "second" (fun () -> ())));
  (match Trace.trees () with
  | [ (_, [ outer ]) ] -> (
      check_string "root name" "outer" outer.Trace.sname;
      check_bool "root duration >= 0" true (outer.Trace.dur_ns >= 0);
      match outer.Trace.children with
      | [ a; b; c ] ->
          check_string "child 1" "first" a.Trace.sname;
          check_string "child 2" "mark" b.Trace.sname;
          check_int "instant has zero duration" 0 b.Trace.dur_ns;
          check_string "child 3" "second" c.Trace.sname;
          check_bool "lazy args recorded" true
            (List.mem_assoc "k" c.Trace.sargs);
          check_bool "children start in record order" true
            (a.Trace.start_ns <= b.Trace.start_ns
            && b.Trace.start_ns <= c.Trace.start_ns);
          check_bool "children nest inside parent" true
            (outer.Trace.start_ns <= a.Trace.start_ns
            && c.Trace.start_ns + c.Trace.dur_ns
               <= outer.Trace.start_ns + outer.Trace.dur_ns)
      | cs -> Alcotest.failf "expected 3 children, got %d" (List.length cs))
  | forests ->
      Alcotest.failf "expected one domain with one root, got %d forests"
        (List.length forests));
  Trace.clear ();
  check_int "clear drops everything" 0 (Trace.event_count ())

let test_unbalanced_enter_closes_at_last_event () =
  with_tracing (fun () ->
      Trace.enter "open-forever";
      (* Never left: the tree builder must close it at [inner]'s end. *)
      Trace.span "inner" (fun () -> ()));
  (match Trace.trees () with
  | [ (_, [ root ]) ] ->
      check_string "unclosed span survives" "open-forever" root.Trace.sname;
      let inner = List.hd root.Trace.children in
      check_int "extends to last descendant"
        (inner.Trace.start_ns + inner.Trace.dur_ns - root.Trace.start_ns)
        root.Trace.dur_ns
  | _ -> Alcotest.fail "expected a single root");
  Trace.clear ();
  (* A leave with no open span must be dropped, not crash or invent
     nodes. *)
  with_tracing (fun () ->
      Trace.span "solo" (fun () -> ());
      Trace.leave "stray");
  (match Trace.trees () with
  | [ (_, [ solo ]) ] -> check_string "stray leave dropped" "solo" solo.Trace.sname
  | _ -> Alcotest.fail "stray leave corrupted the forest");
  Trace.clear ()

(* ---- 2. per-domain buffers merge in ascending domain order ---- *)

let test_per_domain_merge_order () =
  let pool = Pool.create ~size:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  with_tracing (fun () ->
      (* Three lanes: caller domain plus two workers, each recording its
         own pool.lane span into its own buffer. *)
      Pool.run_chunks pool ~lo:0 ~hi:30 (fun _ _ -> ()));
  let forests = Trace.trees () in
  let ids = List.map fst forests in
  check_bool "domain ids strictly ascending" true
    (List.sort_uniq compare ids = ids);
  let lanes =
    List.concat_map
      (fun (_, roots) ->
        List.filter (fun t -> t.Trace.sname = "pool.lane") roots)
      forests
  in
  check_int "one lane span per lane" 3 (List.length lanes);
  let lane_ids =
    List.sort compare
      (List.map (fun t -> List.assoc "lane" t.Trace.sargs) lanes)
  in
  Alcotest.(check (list string)) "lanes 0..2 all present"
    [ "0"; "1"; "2" ] lane_ids;
  Trace.clear ()

(* ---- 3. histogram bucket boundaries ---- *)

let test_histogram_buckets () =
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test.bounds" in
  Metrics.reset ();
  Metrics.set_enabled true;
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.5 ];
  Metrics.set_enabled false;
  check_int "count" 6 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 13.5 (Metrics.histogram_sum h);
  (* Upper-inclusive: 1.0 lands in le=1, 2.0 in le=2, 4.0 in le=4, and
     only 4.5 overflows.  Counts are cumulative. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative (le, count)"
    [ (1., 2); (2., 4); (4., 5); (infinity, 6) ]
    (Metrics.bucket_counts h);
  Metrics.reset ();
  check_int "reset zeroes count" 0 (Metrics.histogram_count h)

let test_disabled_updates_are_dropped () =
  let c = Metrics.counter "test.disabled" in
  Metrics.reset ();
  Metrics.incr c;
  Metrics.add c 41;
  check_int "updates while disabled don't count" 0 (Metrics.counter_value c);
  Metrics.set_enabled true;
  Metrics.incr c;
  Metrics.set_enabled false;
  check_int "enabled update counts" 1 (Metrics.counter_value c);
  Metrics.reset ()

(* ---- 4. traced run is bit-identical to untraced ---- *)

let db () = Harness.db_cached ~scale:0.1
let analyze db plan = (Lazy.force (Rewrite.analyze_db db plan).Rewrite.gus)

let prop_traced_equals_untraced =
  QCheck2.Test.make ~name:"traced Sbox.of_plan = untraced (bit-identical)"
    ~count:10
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let db = db () in
      let plan = Harness.query1_plan () in
      let gus = analyze db plan in
      let run () =
        Sbox.of_plan ~gus ~f:Harness.revenue_f db (Rng.create seed) plan
      in
      let off = run () in
      Trace.set_enabled true;
      Metrics.set_enabled true;
      let on =
        Fun.protect
          ~finally:(fun () ->
            Trace.set_enabled false;
            Metrics.set_enabled false;
            Trace.clear ();
            Metrics.reset ())
          run
      in
      let traced_something = Trace.event_count () in
      ignore traced_something;
      off.Sbox.n_tuples = on.Sbox.n_tuples
      && off.Sbox.total_f = on.Sbox.total_f
      && off.Sbox.estimate = on.Sbox.estimate
      && off.Sbox.variance = on.Sbox.variance
      && off.Sbox.y_hat = on.Sbox.y_hat)

(* ---- 5. exec_profiled draws like exec ---- *)

let test_exec_profiled_matches_exec () =
  let db = db () in
  let plan = Harness.query1_plan () in
  List.iter
    (fun seed ->
      let plain = Splan.exec db (Rng.create seed) plan in
      let profiled, profs = Splan.exec_profiled db (Rng.create seed) plan in
      (* Bit-identical sample: exec_profiled and exec are the same
         walk, consuming the RNG in the same order. *)
      check_int
        (Printf.sprintf "seed %d: same cardinality" seed)
        (Relation.cardinality plain)
        (Relation.cardinality profiled);
      let gus = analyze db plan in
      let a = Sbox.of_relation ~gus ~f:Harness.revenue_f plain in
      let b = Sbox.of_relation ~gus ~f:Harness.revenue_f profiled in
      check_bool
        (Printf.sprintf "seed %d: bit-identical estimate" seed)
        true
        (a.Sbox.estimate = b.Sbox.estimate && a.Sbox.y_hat = b.Sbox.y_hat);
      (* Profile shape: one entry per node, root last (post-order), root
         counts the final cardinality and dominates every wall time. *)
      let root =
        match List.rev profs with
        | r :: _ -> r
        | [] -> Alcotest.fail "no profiles"
      in
      check_bool
        (Printf.sprintf "seed %d: root path empty" seed)
        true (root.Splan.np_path = []);
      check_int
        (Printf.sprintf "seed %d: root rows_out" seed)
        (Relation.cardinality profiled)
        root.Splan.np_rows_out;
      List.iter
        (fun p ->
          check_bool "wall times non-negative" true (p.Splan.np_wall_ns >= 0);
          check_bool "inclusive root wall dominates" true
            (p.Splan.np_wall_ns <= root.Splan.np_wall_ns
            || p.Splan.np_path = []))
        profs)
    [ 3; 11; 42 ]

(* ---- 6. histogram quantiles ---- *)

let check_float = Alcotest.check (Alcotest.float 1e-9)

let test_quantiles () =
  let h = Metrics.histogram ~buckets:[| 100.; 200.; 400. |] "test.quantile" in
  Metrics.reset ();
  check_bool "empty histogram is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  Metrics.set_enabled true;
  (* 50 in (0,100], 30 in (100,200], 15 in (200,400], 5 overflow *)
  let observe n v = for _ = 1 to n do Metrics.observe h v done in
  observe 50 50.;
  observe 30 150.;
  observe 15 300.;
  observe 5 1000.;
  Metrics.set_enabled false;
  (* rank 50 exhausts the first bucket exactly: its upper bound *)
  check_float "p50 at bucket boundary" 100. (Metrics.quantile h 0.5);
  check_float "p80 at bucket boundary" 200. (Metrics.quantile h 0.8);
  (* rank 90 is 10 of the 15 observations into (200, 400] *)
  check_float "p90 interpolates" (200. +. (200. *. 10. /. 15.))
    (Metrics.quantile h 0.9);
  (* the +inf overflow bucket saturates at the largest finite bound *)
  check_float "p99 saturates" 400. (Metrics.quantile h 0.99);
  check_float "q=1 saturates" 400. (Metrics.quantile h 1.);
  check_float "q clamped below" (Metrics.quantile h 0.) (Metrics.quantile h (-3.));
  Metrics.reset ();
  (* everything in overflow: the histogram can only answer its last bound *)
  let o = Metrics.histogram ~buckets:[| 1. |] "test.quantile.overflow" in
  Metrics.set_enabled true;
  List.iter (Metrics.observe o) [ 5.; 6.; 7. ];
  Metrics.set_enabled false;
  check_float "overflow-only" 1. (Metrics.quantile o 0.5);
  Metrics.reset ()

(* ---- 7. Prometheus exposition ---- *)

let test_promexp_render () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter "promtest.hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.set_gauge (Metrics.gauge "promtest.depth") 2.5;
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "promtest.lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 9. ];
  Metrics.set_enabled false;
  check_string "mangle" "gus_cache_hits" (Promexp.mangle "cache.hits");
  let lines = String.split_on_char '\n' (Promexp.render ()) in
  let has l =
    if not (List.mem l lines) then Alcotest.failf "exposition lacks %S" l
  in
  has "# TYPE gus_promtest_hits_total counter";
  has "gus_promtest_hits_total 2";
  has "# TYPE gus_promtest_depth gauge";
  has "gus_promtest_depth 2.5";
  has "# TYPE gus_promtest_lat histogram";
  has "gus_promtest_lat_bucket{le=\"1\"} 1";
  has "gus_promtest_lat_bucket{le=\"2\"} 2";
  has "gus_promtest_lat_bucket{le=\"+Inf\"} 3";
  has "gus_promtest_lat_sum 11";
  has "gus_promtest_lat_count 3";
  (* the dump is atomic: the temp file never survives, the target holds
     exactly one render *)
  let path = Filename.temp_file "gus_prom" ".prom" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Promexp.write_file path;
      check_bool "tmp renamed away" false (Sys.file_exists (path ^ ".tmp"));
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let body = really_input_string ic n in
      close_in ic;
      check_string "file holds the exposition" (Promexp.render ()) body);
  Metrics.reset ()

(* ---- 8. Journal ring, NDJSON, SLOs, limiter ---- *)

let mk_exec ?(estimate = 2.) ?(variance = Float.nan) ?(stddev = 0.)
    ?(rel_ci = 0.) id seed =
  Journal.Exec
    { Journal.id;
      dataset = "d";
      version = 1;
      sql = "SELECT 1";
      sql_hash = Journal.sql_hash "SELECT 1";
      seed;
      rates = [ ("lineitem", 0.1) ];
      explain = false;
      exact = false;
      cached = false;
      estimate;
      variance;
      stddev;
      rel_ci;
      top = Some { Journal.path = [ 0; 1 ]; label = "Bernoulli(0.1)"; share = 0.75 };
      wall_ns = 1234;
      breach = false }

let test_journal_ring () =
  let j = Journal.create ~capacity:3 () in
  check_int "capacity" 3 (Journal.capacity j);
  for i = 0 to 4 do
    let id = Journal.next_id j in
    check_int "ids count up" i id;
    Journal.record j (mk_exec id i)
  done;
  check_int "length bounded" 3 (Journal.length j);
  check_int "overwrites counted" 2 (Journal.dropped j);
  let ids =
    List.map
      (function
        | Journal.Exec e -> e.Journal.id
        | Journal.Register r -> r.id
        | Journal.Shed s -> s.Journal.shed_id)
      (Journal.events j)
  in
  Alcotest.(check (list int)) "oldest first, oldest gone" [ 2; 3; 4 ] ids

let test_journal_ndjson () =
  (* FNV-1a 64-bit offset basis: the hash of the empty string *)
  check_string "fnv-1a empty" "cbf29ce484222325"
    (Journal.hash_hex (Journal.sql_hash ""));
  check_string "register line"
    {|{"ev":"register","id":0,"dataset":"t","version":1,"source":{"source":"tpch","scale":0.05,"seed":1}}|}
    (Journal.to_ndjson
       (Journal.Register
          { id = 0;
            dataset = "t";
            version = 1;
            source = {|{"source":"tpch","scale":0.05,"seed":1}|} }));
  (* exact exec line: integral floats print bare, non-finites print as
     symbolic strings, the hash as 16 hex digits *)
  check_string "exec line"
    (Printf.sprintf
       {|{"ev":"exec","id":1,"dataset":"d","version":1,"sql":"SELECT 1","sql_hash":"%s","seed":7,"rates":{"lineitem":0.1},"explain":false,"exact":false,"cached":false,"estimate":2,"variance":"nan","stddev":0,"rel_ci":0,"top":{"path":[0,1],"node":"Bernoulli(0.1)","share":0.75},"wall_ns":1234,"breach":false}|}
       (Journal.hash_hex (Journal.sql_hash "SELECT 1")))
    (Journal.to_ndjson (mk_exec 1 7))

let test_slo_predicate () =
  check_float "rel ci half-width" 0.196
    (Journal.rel_ci_half_width ~estimate:100. ~stddev:10.);
  check_float "negative estimate uses magnitude" 0.196
    (Journal.rel_ci_half_width ~estimate:(-100.) ~stddev:10.);
  check_float "exact answer has zero width" 0.
    (Journal.rel_ci_half_width ~estimate:0. ~stddev:0.);
  check_bool "zero estimate with spread is inf" true
    (Journal.rel_ci_half_width ~estimate:0. ~stddev:1. = Float.infinity);
  let slo = { Journal.max_rel_ci = Some 0.05; max_latency_ms = Some 1. } in
  check_bool "ci breach" true (Journal.breach slo ~rel_ci:0.06 ~wall_ns:0);
  check_bool "latency breach" true
    (Journal.breach slo ~rel_ci:0.01 ~wall_ns:2_000_000);
  check_bool "at threshold is fine" false
    (Journal.breach slo ~rel_ci:0.05 ~wall_ns:1_000_000);
  check_bool "nan rel_ci never breaches" false
    (Journal.breach slo ~rel_ci:Float.nan ~wall_ns:0);
  check_bool "no_slo never breaches" false
    (Journal.breach Journal.no_slo ~rel_ci:Float.infinity ~wall_ns:max_int)

let test_limiter () =
  let l = Journal.limiter ~interval_ns:1_000 () in
  check_bool "first permit fires" true (Journal.permit l ~now_ns:0 = Some 0);
  check_bool "inside interval suppressed" true
    (Journal.permit l ~now_ns:400 = None);
  check_bool "still suppressed" true (Journal.permit l ~now_ns:999 = None);
  check_bool "reopens with suppressed count" true
    (Journal.permit l ~now_ns:1_000 = Some 2);
  check_bool "closes again" true (Journal.permit l ~now_ns:1_001 = None);
  (* default limiter must fire on its very first call even with a huge
     monotonic clock value (no first-permit overflow) *)
  let d = Journal.limiter () in
  check_bool "default first permit" true
    (Journal.permit d ~now_ns:(1 lsl 60) = Some 0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_traced_equals_untraced ]

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced enter" `Quick
            test_unbalanced_enter_closes_at_last_event;
          Alcotest.test_case "per-domain merge order" `Quick
            test_per_domain_merge_order ] );
      ( "metrics",
        [ Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "disabled updates dropped" `Quick
            test_disabled_updates_are_dropped;
          Alcotest.test_case "quantiles" `Quick test_quantiles ] );
      ( "promexp",
        [ Alcotest.test_case "text exposition" `Quick test_promexp_render ] );
      ( "journal",
        [ Alcotest.test_case "ring overwrite" `Quick test_journal_ring;
          Alcotest.test_case "ndjson lines" `Quick test_journal_ndjson;
          Alcotest.test_case "slo predicate" `Quick test_slo_predicate;
          Alcotest.test_case "rate limiter" `Quick test_limiter ] );
      ("identity", qcheck_tests);
      ( "profiling",
        [ Alcotest.test_case "exec_profiled = exec" `Quick
            test_exec_profiled_matches_exec ] ) ]
