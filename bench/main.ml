(* Benchmark harness: regenerates every table/figure of the paper
   (T1-T4 exactly, E1-E7 in shape; see DESIGN.md's experiment index) and
   runs Bechamel micro-benchmarks over the SBox's hot paths.

   Usage:
     dune exec bench/main.exe            # quick experiments + micro-benches
     dune exec bench/main.exe -- --full  # full-size experiments
     dune exec bench/main.exe -- -e T3   # one experiment
     dune exec bench/main.exe -- --micro # micro-benchmarks only
     dune exec bench/main.exe -- --micro --json          # + BENCH_moments.json
     dune exec bench/main.exe -- --micro --quota 0.1     # shorter per-bench quota
     dune exec bench/main.exe -- --micro --pool-size 4   # fix the lane count *)

open Bechamel
open Toolkit
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Subset = Gus_util.Subset
module Moments = Gus_estimator.Moments
module Sbox = Gus_estimator.Sbox
module Pool = Gus_util.Pool
module Exp = Gus_experiments
module Service = Gus_service
module Json = Gus_service.Json

(* Numbers recorded on main before each optimization landed, same machine,
   measured inside a full --micro pass so the GC context matches fresh runs
   (trials-q1: the 5-trial materializing trial loop at scale 0.1, measured
   immediately before the streaming rewrite; in a cold process it reads
   ~7.2e6, the shared-heap context costs both implementations alike).
   Written into BENCH_moments.json so every later run carries the perf
   trajectory with it, and compared against fresh runs by the CI soft
   regression gate. *)
let baseline_main_ns =
  [ ("sbox/moments-2rel-10k", 4.95e6);
    ("sbox/moments-4rel-10k", 38.16e6);
    ("sbox/exec-query1-sampled", 2.13308e6);
    (* Measured immediately before the Gus_obs instrumentation landed:
       the reference for the "<2% overhead when disabled" claim, and what
       CI's hard overhead gate compares fresh runs against. *)
    ("sbox/stream-query1", 2.26286e6);
    ("harness/trials-q1", 10.83e6);
    (* Row-engine numbers measured immediately before the columnar storage
       swap: full SF-0.1 generation into boxed tuple rows, and a SUM scan
       walking those rows one Value at a time.  The columnar engine is read
       against these (scan-sum is the ≥5x acceptance row). *)
    ("tpch/load-sf0.1", 12.92e6);
    ("tpch/scan-sum-sf0.1", 62.61e3);
    (* Dense-engine rewrite numbers measured immediately before the
       symbolic coefficient algebra landed: every Rewrite.analyze call
       materialized the full 2^n b-vector.  The rewrite-n6/n10 rows run
       the symbolic engine against these. *)
    ("sbox/rewrite-n6", 129.669e3);
    ("sbox/rewrite-n10", 515.02e3);
    (* Prepared-execution number measured immediately before the serving
       journal / SLO telemetry landed: the reference for the journal-off
       overhead gate (CI holds a fresh service/prepared-q1 within 5% of
       this, like obs/stream-query1-traced against sbox/stream-query1's
       pre-instrumentation baseline). *)
    ("service/prepared-q1", 107.39e3);
    (* Measured immediately before typed columns became the only layout
       (median of three full --micro passes): grouped SQL copied every
       sampled tuple into row-backed groups, and the row-at-a-time
       operators wrote boxed tuple rows. *)
    ("sql/group-by-q06-sf0.1", 11.24e6);
    ("ops/theta-join-sf0.1", 10.22e6) ]

(* Where [baseline_main_ns] was measured.  ns-per-run is meaningless
   across machines, so both CI gates compare a fresh run against the
   baselines only when the fresh run's environment matches this record
   ([git_rev] aside); otherwise they skip with a notice. *)
let baseline_environment =
  [ ("ocaml_version", `S "5.1.1");
    ("recommended_domains", `I 1);
    ("pool_lanes", `I 2) ]

let git_rev () =
  try
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let micro_pool = lazy (Pool.create ~size:(max 2 (Pool.default_size ())))

(* One micro-benchmark: full display name, the staged body, a per-row
   quota floor and a per-row warmup count.  Allocation-heavy benches churn
   the major heap enough that the OLS fit needs a longer quota to
   stabilize (the committed exec-query1-sampled once recorded r² < 0);
   very fast bodies (the sub-100us service / scan / rewrite rows) need
   both a floor and many untimed warmup calls, or cold caches and the
   small sample count collapse the fit (the committed tpch/scan-sum-sf0.1
   and service/cache-hit-q1 once recorded r² << 0).  Benches sharing an
   effective quota are measured as one Bechamel group. *)
type spec = {
  name : string;
  quota_floor : float;
  warmup : int;
  body : unit -> unit;
}

let heavy_quota_floor = 1.0
let fit_quota_floor = 2.0
let fit_warmup = 256


let micro_specs ~quota () =
  (* Shared fixtures, built once. *)
  let plan6 = Exp.Exp_runtime.chain_plan ~n:6 in
  let plan10 = Exp.Exp_runtime.chain_plan ~n:10 in
  let card = Exp.Exp_runtime.chain_card in
  let gus10 = (Lazy.force (Rewrite.analyze ~card plan10).Rewrite.gus) in
  let rng = Gus_util.Rng.create 99 in
  let pairs n m =
    Array.init m (fun _ ->
        (Array.init n (fun _ -> Gus_util.Rng.int rng 1000), Gus_util.Rng.float rng))
  in
  let pairs2_10k = pairs 2 10_000 in
  let pairs4_10k = pairs 4 10_000 in
  (* 10-relation lineage: the dense kernel's 1023 subset passes. *)
  let pairs10_10k = pairs 10 10_000 in
  (* The moments kernel's passes over an accumulator filled once from a
     pairs array, with [values f] as each tuple's values. *)
  let kernel ~n_rels ?(values = fun f -> [| f |]) pairs =
    let k = Array.length (values 0.0) in
    let acc = Moments.Acc.create ~hint:(Array.length pairs) ~k ~n_rels () in
    Array.iter (fun (l, f) -> Moments.Acc.add_values acc l (values f)) pairs;
    fun () -> ignore (Moments.Acc.finalize acc)
  in
  (* 20-relation lineage, 3 sampled: past the dense wall (the moments
     kernel would need 2^20 passes and the rewrite a 2^20 b-vector).  The
     symbolic row projects the factorized design onto its 3 live
     relations and estimates through the SBox's one route: 2^3 passes
     over the native 20-column lineages — estimate, y-hat and variance
     included. *)
  let wide_rels = Array.init 20 (Printf.sprintf "w%02d") in
  let wide_sample =
    let open Gus_relational in
    let rel =
      Relation.derived
        (Schema.make [ { Schema.name = "f"; ty = Value.TFloat } ])
        wide_rels
    in
    Array.iter
      (fun (l, f) ->
        Relation.append_tuple rel (Tuple.make [| Value.Float f |] l))
      (pairs 20 10_000);
    rel
  in
  let wide_sampled = [ 4; 9; 14 ] in
  let wide_sym () =
    let leaf i =
      let rel = wide_rels.(i) in
      let id = Symalg.identity [| rel |] in
      if List.mem i wide_sampled then
        Symalg.compact (Symalg.bernoulli ~rel 0.5) id
      else id
    in
    let s = ref (leaf 0) in
    for i = 1 to 19 do
      s := Symalg.join !s (leaf i)
    done;
    !s
  in
  let pool = Lazy.force micro_pool in
  let db = Exp.Harness.db_cached ~scale:0.3 in
  let q1 = Exp.Harness.query1_plan () in
  let q1_gus = (Lazy.force (Rewrite.analyze_db db q1).Rewrite.gus) in
  let q1_sample = Splan.exec db (Gus_util.Rng.create 5) q1 in
  let db01 = Exp.Harness.db_cached ~scale:0.1 in
  (* Serving-layer fixtures: one engine, one dataset, one SQL text.  The
     cold row re-runs parse → plan → lint → execute every iteration; the
     prepared row amortizes the front half into a reusable handle (what
     [gusdb serve] does per [prepare]); the cache-hit row answers the
     same (handle, params, seed) from the engine's LRU without executing
     at all.  Scale 0.01 keeps execution small enough that the prepare
     overhead is visible in the cold/prepared gap. *)
  let serve_sql =
    "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (20 PERCENT)"
  in
  let db001 = Exp.Harness.db_cached ~scale:0.01 in
  let engine = Service.Engine.create ~cache_capacity:8 () in
  ignore
    (Service.Engine.register_db engine ~name:"bench"
       ~source:(Service.Catalog.In_memory "tpch-0.01") db001);
  let serve_cat = Service.Engine.catalog engine in
  (* Telemetry-on twin of the engine above: a journal ring plus SLO
     thresholds attached, so every execution additionally computes
     sampling-rate provenance, the Theorem-1 top variance-share node and
     the breach predicate, then records a ring event. *)
  let journal_engine =
    Service.Engine.create ~cache_capacity:8
      ~journal:(Gus_obs.Journal.create ~capacity:4096 ())
      ~slo:{ Gus_obs.Journal.max_rel_ci = Some 0.5; max_latency_ms = Some 50. }
      ()
  in
  ignore
    (Service.Engine.register_db journal_engine ~name:"bench"
       ~source:(Service.Catalog.In_memory "tpch-0.01") db001);
  let journal_handle =
    Service.Prepared.prepare
      (Service.Engine.catalog journal_engine)
      ~dataset:"bench" serve_sql
  in
  let warm_handle = Service.Prepared.prepare serve_cat ~dataset:"bench" serve_sql in
  let ov = Service.Prepared.default_overrides in
  (* Session-layer twin of the cache-hit row: the same request, but as an
     NDJSON line through Session.handle (parse + dispatch + render). *)
  let bench_session = Service.Session.create engine in
  (match
     Service.Session.handle bench_session
       (Printf.sprintf
          "{\"op\":\"prepare\",\"dataset\":\"bench\",\"sql\":%s,\"name\":\"sq\"}"
          (Json.to_string (Json.Str serve_sql)))
   with
  | Some r when Json.member "ok" (Json.of_string r) = Some (Json.Bool true) ->
      ()
  | r -> failwith ("bench: session prepare failed: " ^ Option.value r ~default:"<none>"));
  let session_exec_line = "{\"op\":\"execute\",\"handle\":\"sq\",\"seed\":0}" in
  (* Row-at-a-time operators and the grouped SQL path at SF 0.1.  q06 is
     the example workload's GROUP BY (AVG over a 50% sample, grouped by
     return flag): one Runner.execute per run, parse/plan/lint amortized
     into the prepared handle, as the server runs it.  The theta join
     nested-loops part x customer (200 x 150 pairs at SF 0.1) and keeps
     about a quarter of them. *)
  let q06 =
    Gus_sql.Runner.prepare db01
      "SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) \
       GROUP BY l_returnflag"
  in
  let q06_params = { Gus_sql.Runner.default_params with seed = 6 } in
  let part01 = Gus_relational.Database.find db01 "part" in
  let customer01 = Gus_relational.Database.find db01 "customer" in
  let theta_pred = Gus_relational.Expr.(col "p_size" < col "c_nationkey") in
  (* TPC-H scale sweep: generation, base-scan aggregate.  lineitem at
     SF 0.1 is the base relation every honest downstream number rests on. *)
  let lineitem01 =
    Gus_relational.Database.find (Exp.Harness.db_cached ~scale:0.1) "lineitem"
  in
  (* Snapshot fixture: one write of the SF-0.1 database, restored per
     iteration.  Restore is O(columns) header parsing + mmap, so the row
     reads directly against tpch/load-sf0.1 (the ≥10x acceptance pair). *)
  let snap01 = Filename.temp_file "gusdb-bench-sf01" ".snap" in
  at_exit (fun () -> try Sys.remove snap01 with Sys_error _ -> ());
  Gus_relational.Snapshot.save ~path:snap01 db01;
  (* SF-1 sweep rows cost ~130ms per load iteration; they only carry
     signal with a real quota, so they ride behind --quota >= 1. *)
  let sf1 =
    if quota < 1.0 then []
    else begin
      let db1 = Exp.Harness.db_cached ~scale:1.0 in
      let lineitem1 = Gus_relational.Database.find db1 "lineitem" in
      let snap1 = Filename.temp_file "gusdb-bench-sf1" ".snap" in
      at_exit (fun () -> try Sys.remove snap1 with Sys_error _ -> ());
      Gus_relational.Snapshot.save ~path:snap1 db1;
      [ { name = "tpch/load-sf1";
          quota_floor = heavy_quota_floor;
      warmup = 1;
          body =
            (fun () ->
              ignore (Gus_tpch.Tpch.generate ~seed:20130630 ~scale:1.0 ())) };
        { name = "tpch/scan-sum-sf1";
          quota_floor = fit_quota_floor;
      warmup = fit_warmup;
          body =
            (fun () ->
              ignore
                (Gus_relational.Relation.sum_column lineitem1 "l_extendedprice")) };
        { name = "tpch/snapshot-restore-sf1";
          quota_floor = heavy_quota_floor;
      warmup = 1;
          body = (fun () -> ignore (Gus_relational.Snapshot.load ~path:snap1)) } ]
    end
  in
  sf1
  @ [ { name = "tpch/load-sf0.1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () -> ignore (Gus_tpch.Tpch.generate ~seed:20130630 ~scale:0.1 ())) };
    { name = "tpch/scan-sum-sf0.1";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body =
        (fun () ->
          ignore (Gus_relational.Relation.sum_column lineitem01 "l_extendedprice")) };
    { name = "tpch/snapshot-restore-sf0.1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body = (fun () -> ignore (Gus_relational.Snapshot.load ~path:snap01)) };
    { name = "sql/group-by-q06-sf0.1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body = (fun () -> ignore (Gus_sql.Runner.execute db01 q06 q06_params)) };
    { name = "ops/theta-join-sf0.1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          ignore (Gus_relational.Ops.theta_join theta_pred part01 customer01)) };
    { name = "sbox/rewrite-n6";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body = (fun () -> ignore (Rewrite.analyze ~card plan6)) };
    { name = "sbox/rewrite-n10";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body = (fun () -> ignore (Rewrite.analyze ~card plan10)) };
    { name = "sbox/c-coeffs-n10";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body = (fun () -> ignore (Gus.c_coefficients gus10)) };
    { name = "sbox/moments-2rel-10k";
      quota_floor = fit_quota_floor;
      warmup = 1;
      body = kernel ~n_rels:2 pairs2_10k };
    { name = "sbox/moments-4rel-10k";
      quota_floor = fit_quota_floor;
      warmup = 1;
      body = kernel ~n_rels:4 pairs4_10k };
    (* Two values per tuple (f twice): the k = 2 run behind covariance
       and AVG. *)
    { name = "sbox/bilinear-4rel-10k";
      quota_floor = fit_quota_floor;
      warmup = 1;
      body = kernel ~n_rels:4 ~values:(fun f -> [| f; f |]) pairs4_10k };
    (* Every one of the 2^10 − 1 subset passes: what a 10-relation
       lineage would cost without the live projection. *)
    { name = "sbox/moments-dense-n10";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body = kernel ~n_rels:10 pairs10_10k };
    (* The headline symbolic row: everything from factorized design to
       variance on a 20-relation lineage no dense path can touch.  Read
       against sbox/moments-dense-n10 — same kernel, same 10k tuples,
       half the relation count on the dense side, and the symbolic run
       is still two orders of magnitude faster because it only ever
       visits the 2^3 live subsets. *)
    { name = "sbox/moments-sym-n20";
      quota_floor = fit_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          let gus = Gus_analysis.Lint.live_design (wide_sym ()) in
          let f = Gus_relational.Expr.col "f" in
          ignore (Sbox.of_relation ~gus ~f wide_sample)) };
    { name = "sbox/sbox-query1-e2e";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          ignore
            (Sbox.of_relation ~gus:q1_gus ~f:Exp.Harness.revenue_f q1_sample)) };
    { name = "sbox/exec-query1-sampled";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body = (fun () -> ignore (Splan.exec db (Gus_util.Rng.create 6) q1)) };
    (* The whole estimate: Splan.exec of the same plan and seed, then the
       live lineage columns and revenue values through the moments kernel
       (Sbox.of_plan).  Its exec reads only the revenue and join-key
       columns, while exec-query1-sampled gathers every column, so
       exec-query1-sampled + sbox-query1-e2e bound it from above rather
       than adding up to it. *)
    { name = "sbox/stream-query1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          ignore
            (Sbox.of_plan ~gus:q1_gus ~f:Exp.Harness.revenue_f db
               (Gus_util.Rng.create 6) q1)) };
    (* Same body as stream-query1 but with tracing and metrics live for
       every iteration: read against sbox/stream-query1 (instrumentation
       compiled in but disabled) for the cost of turning observability on,
       and against the recorded pre-instrumentation baseline for the cost
       of having it compiled in at all. *)
    { name = "obs/stream-query1-traced";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          Gus_obs.Trace.set_enabled true;
          Gus_obs.Metrics.set_enabled true;
          Fun.protect
            ~finally:(fun () ->
              Gus_obs.Trace.set_enabled false;
              Gus_obs.Metrics.set_enabled false;
              Gus_obs.Trace.clear ())
            (fun () ->
              ignore
                (Sbox.of_plan ~gus:q1_gus ~f:Exp.Harness.revenue_f db
                   (Gus_util.Rng.create 6) q1))) };
    (* Monte-Carlo harness: 5 streaming trials (incl. the exact pass), at
       scale 0.1 to match the recorded pre-streaming baseline. *)
    { name = "harness/trials-q1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          ignore
            (Exp.Harness.trials ~trials:5 ~seed:1 db01 q1
               ~f:Exp.Harness.revenue_f)) };
    { name = "harness/trials-q1-par";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          ignore
            (Exp.Harness.trials_par ~pool ~trials:5 ~seed:1 db01 q1
               ~f:Exp.Harness.revenue_f)) };
    (* Prepare-vs-cold: the serving layer's reason to exist, read as a
       triple — cold > prepared > cache-hit.  CI's within-run check
       asserts the ordering from these three rows. *)
    { name = "service/cold-q1";
      quota_floor = heavy_quota_floor;
      warmup = 1;
      body =
        (fun () ->
          let h = Service.Prepared.prepare serve_cat ~dataset:"bench" serve_sql in
          ignore (Service.Prepared.execute serve_cat h ov)) };
    { name = "service/prepared-q1";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body = (fun () -> ignore (Service.Prepared.execute serve_cat warm_handle ov)) };
    { name = "service/cache-hit-q1";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body =
        (fun () ->
          ignore
            (Service.Engine.execute_prepared engine ~label:"q" warm_handle ov))
    };
    (* The same cache-hit request through the full session layer — NDJSON
       parse, dispatch, handle resolution, response render.  Read against
       service/cache-hit-q1 for the wire + session tax; CI's 5% gate on
       service/prepared-q1 holds the refactor itself to (near) zero. *)
    { name = "service/session-q1";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body =
        (fun () ->
          ignore (Service.Session.handle bench_session session_exec_line)) };
    (* Cache-hit row with the flight recorder live: read against
       service/cache-hit-q1 for the journal's marginal per-request cost
       (provenance + top-node attribution + ring write).  The cost of the
       telemetry being compiled in but OFF is service/prepared-q1 against
       its recorded pre-journal baseline — CI's hard 5% gate. *)
    { name = "service/journal-overhead";
      quota_floor = fit_quota_floor;
      warmup = fit_warmup;
      body =
        (fun () ->
          ignore
            (Service.Engine.execute_prepared journal_engine ~label:"q"
               journal_handle ov)) } ]

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  if Float.is_nan x || x = infinity || x = neg_infinity then "null"
  else Printf.sprintf "%.6g" x

let json_env_fields fields =
  String.concat ", "
    (List.map
       (fun (k, v) ->
         match v with
         | `S s -> Printf.sprintf "\"%s\": \"%s\"" k (json_escape s)
         | `I n -> Printf.sprintf "\"%s\": %d" k n)
       fields)

let write_json ~path ~quota rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"gus-bench-moments/v2\",\n";
  out "  \"generated_by\": \"dune exec bench/main.exe -- --micro --json\",\n";
  out "  \"unit\": \"ns/run\",\n";
  out "  \"quota_s\": %s,\n" (json_float quota);
  out "  \"pool_lanes\": %d,\n" (Pool.size (Lazy.force micro_pool));
  out "  \"recommended_domains\": %d,\n" (Pool.recommended_size ());
  (* Provenance: ns-per-run rows are only comparable within one
     environment, so the file records where it was generated and where
     the baselines came from; CI matches the two before gating. *)
  out "  \"environment\": { %s },\n"
    (json_env_fields
       [ ("ocaml_version", `S Sys.ocaml_version);
         ("recommended_domains", `I (Pool.recommended_size ()));
         ("pool_lanes", `I (Pool.size (Lazy.force micro_pool)));
         ("git_rev", `S (git_rev ())) ]);
  out "  \"baseline_environment\": { %s },\n"
    (json_env_fields baseline_environment);
  out "  \"baseline_main_ns\": {\n";
  List.iteri
    (fun i (name, ns) ->
      out "    \"%s\": %s%s\n" (json_escape name) (json_float ns)
        (if i = List.length baseline_main_ns - 1 then "" else ","))
    baseline_main_ns;
  out "  },\n";
  out "  \"results\": [\n";
  List.iteri
    (fun i (name, est, r2) ->
      let low_fit = Float.is_nan r2 || r2 < 0.5 in
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s%s}%s\n"
        (json_escape name) (json_float est) (json_float r2)
        (if low_fit then ", \"low_fit\": true" else "")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let bench_group ~quota specs =
  if specs = [] then []
  else begin
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
    in
    (* Per-bench warmup: one untimed call apiece, so first-touch effects
       (lazy fixtures, page faults, branch-predictor cold start) land
       outside the measured window.  The compaction then resets the major
       heap so earlier allocation-heavy benches don't tax this group's
       GC pacing. *)
    List.iter
      (fun s ->
        for _ = 1 to s.warmup do
          s.body ()
        done)
      specs;
    Gc.compact ();
    let tests =
      Test.make_grouped ~name:"" ~fmt:"%s%s"
        (List.map (fun s -> Test.make ~name:s.name (Staged.stage s.body)) specs)
    in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  end

let run_micro ~quota ~json () =
  print_endline "\n=== Bechamel micro-benchmarks (monotonic clock) ===\n";
  let specs = micro_specs ~quota () in
  (* Benches sharing an effective quota (requested quota floored per row)
     are measured as one group, so floored rows keep their fits stable
     under a short --quota while unfloored rows stay cheap. *)
  let effective s = Float.max quota s.quota_floor in
  let quotas =
    List.sort_uniq compare (List.map effective specs)
  in
  let rows =
    List.concat_map
      (fun q -> bench_group ~quota:q (List.filter (fun s -> effective s = q) specs))
      quotas
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let rows =
    List.map
      (fun (name, r) ->
        let est =
          match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan
        in
        let r2 = match Analyze.OLS.r_square r with Some r2 -> r2 | None -> nan in
        (name, est, r2))
      rows
  in
  let t = Gus_util.Tablefmt.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun (name, est, r2) ->
      let r2_cell = if Float.is_nan r2 then "-" else Printf.sprintf "%.3f" r2 in
      let human =
        if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Gus_util.Tablefmt.add_row t [ name; human; r2_cell ])
    rows;
  Gus_util.Tablefmt.print t;
  if json then write_json ~path:"BENCH_moments.json" ~quota rows

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let micro_only = List.mem "--micro" args in
  let json = List.mem "--json" args in
  let find_opt_arg flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let quota =
    match find_opt_arg "--quota" with
    | None -> 0.5
    | Some s -> (
        match float_of_string_opt s with
        | Some q when q > 0.0 -> q
        | _ ->
            Printf.eprintf "invalid --quota %s\n" s;
            exit 1)
  in
  (match find_opt_arg "--pool-size" with
  | None -> ()
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Pool.set_default_size n
      | _ ->
          Printf.eprintf "invalid --pool-size %s\n" s;
          exit 1));
  let single = find_opt_arg "-e" in
  Printf.printf
    "GUS sampling algebra - benchmark harness (paper tables T1-T4, \
     experiments E1-E7)\n";
  (match (micro_only, single) with
  | true, _ -> ()
  | _, Some id -> begin
      match Exp.Registry.find id with
      | Some e -> if full then e.Exp.Registry.run () else e.Exp.Registry.quick ()
      | None ->
          Printf.eprintf "unknown experiment %s; known: %s\n" id
            (String.concat ", "
               (List.map (fun e -> e.Exp.Registry.id) Exp.Registry.all));
          exit 1
    end
  | false, None -> Exp.Registry.run_all ~quick:(not full) ());
  if single = None then run_micro ~quota ~json ()
