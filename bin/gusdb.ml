(* gusdb — command-line front end to the GUS sampling-algebra library.

   Subcommands:
     gen          generate a synthetic TPC-H-style database and write CSVs
     snapshot     write or inspect a mmap-able binary snapshot of the
                  database (restore via --data FILE or serve `register`)
     query        run a dialect query (with TABLESAMPLE) and print the
                  estimate with confidence intervals, next to ground truth
     plan         show a query's sampling plan, its SOA rewrite trace and
                  the resulting top GUS operator
     serve        long-lived NDJSON serving loop — one session over
                  stdin/stdout or many concurrent sessions over --tcp
                  (register / prepare / execute / batch / stats), with
                  optional --journal flight recording, --slo-* accuracy
                  thresholds, --prom-out Prometheus exposition and
                  Section-8 load shedding under overload
     loadgen      closed-loop load generator for serve --tcp: p50/p99
                  latency, achieved qps and shed fraction
     replay       re-execute a serve journal and assert bit-identical
                  estimates
     experiments  run the paper-reproduction experiments

   Flags shared across subcommands live in Cli_common. *)

open Cmdliner
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Gus = Gus_core.Gus
module Json = Gus_service.Json
module C = Cli_common
open Gus_relational

let db_of ~scale ~seed = Gus_tpch.Tpch.generate ~seed ~scale ()

(* ---- gen ---- *)

let gen_cmd =
  let out_arg =
    let doc = "Output directory for the CSV files." in
    Arg.(value & opt string "data" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let run scale seed out =
    let db = db_of ~scale ~seed in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun name ->
        let rel = Database.find db name in
        let path = Filename.concat out (name ^ ".csv") in
        Csv.save ~path rel;
        Printf.printf "%s: %d rows -> %s\n" name (Relation.cardinality rel) path)
      (Database.names db)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic TPC-H-style database.")
    Term.(const run $ C.scale_arg $ C.seed_arg $ out_arg)

(* ---- snapshot ---- *)

let snapshot_cmd =
  let out_arg =
    let doc = "Write a binary snapshot of the database to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let info_arg =
    let doc = "Load the snapshot at $(docv) and print its contents instead \
               of writing one." in
    Arg.(value & opt (some string) None & info [ "info" ] ~docv:"FILE" ~doc)
  in
  let print_db db =
    List.iter
      (fun name ->
        let rel = Database.find db name in
        Printf.printf "  %-10s %8d rows  %d columns\n" name
          (Relation.cardinality rel)
          (Schema.arity rel.Relation.schema))
      (Database.names db)
  in
  let run scale data out info_path =
    C.or_fail @@ fun () ->
    match (out, info_path) with
    | None, None ->
        Printf.eprintf
          "gusdb snapshot: either -o FILE (write) or --info FILE (inspect) \
           is required\n";
        exit 124
    | _, Some path ->
        let db = Snapshot.load ~path in
        Printf.printf "%s: format v%d, %d relations, %d rows\n" path
          Snapshot.version
          (List.length (Database.names db))
          (Database.total_rows db);
        print_db db
    | Some path, None ->
        let db = C.db_source ~scale data in
        Snapshot.save ~path db;
        let size = (Unix.stat path).Unix.st_size in
        Printf.printf "wrote %s: %d relations, %d rows, %d bytes\n" path
          (List.length (Database.names db))
          (Database.total_rows db) size;
        print_db db
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Write (or inspect) a versioned binary snapshot of the \
             database.  Restoring a snapshot (query/serve with a snapshot \
             path, or register with source \"snapshot\") memory-maps the \
             column data instead of re-generating or re-parsing it.")
    Term.(const run $ C.scale_arg $ C.data_arg $ out_arg $ info_arg)

(* ---- query ---- *)

let sql_arg =
  let doc = "The query text (the paper's dialect: SELECT aggregates FROM \
             relations with TABLESAMPLE, WHERE conjunctions)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let query_cmd =
  let exact_arg =
    let doc = "Also evaluate the query exactly (no sampling) for comparison." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let explain_arg =
    let doc = "EXPLAIN ANALYZE: execute the plan with per-node profiling \
               and print the tree annotated with wall time, row counts, \
               sampling rates (a, b0) and variance contributions." in
    Arg.(value & flag & info [ "explain-analyze" ] ~doc)
  in
  let run scale seed sql exact explain json data pool_size trace_out
      metrics_out =
   C.or_fail ~json @@ fun () ->
    C.apply_pool_size pool_size;
    let db = C.db_source ~scale data in
    C.with_obs ~trace_out ~metrics_out @@ fun () ->
    let rs =
      Gus_sql.Runner.run_request db
        (Gus_sql.Runner.request ~seed ~exact ~explain sql)
    in
    if json then
      print_endline
        (Json.to_string
           (Json.obj
              [ ("ok", Some (Json.Bool true));
                ( "result",
                  Some
                    (Gus_service.Wire.result_json rs.Gus_sql.Runner.rs_result)
                );
                ("exact", Gus_service.Wire.exact_json rs) ]))
    else begin
      (match rs.Gus_sql.Runner.rs_explain with
      | Some ex -> Format.printf "%a@." Gus_sql.Runner.pp_explain ex
      | None ->
          Format.printf "%a@." Gus_sql.Runner.pp_result
            rs.Gus_sql.Runner.rs_result);
      if exact then begin
        Format.printf "@.ground truth (sampling ignored):@.";
        List.iter
          (fun (label, v) -> Format.printf "  %s = %.6g@." label v)
          rs.Gus_sql.Runner.rs_exact;
        List.iter
          (fun (keys, cells) ->
            List.iter
              (fun (label, v) ->
                Format.printf "  [%s] %s = %.6g@." (String.concat ", " keys)
                  label v)
              cells)
          rs.Gus_sql.Runner.rs_exact_groups
      end
    end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Estimate an aggregate query over samples.")
    Term.(const run $ C.scale_arg $ C.seed_arg $ sql_arg $ exact_arg
          $ explain_arg $ C.json_arg $ C.data_arg $ C.pool_size_arg
          $ C.trace_out_arg $ C.metrics_out_arg)

(* ---- plan ---- *)

let plan_cmd =
  let run scale sql data =
   C.or_fail @@ fun () ->
    let db = C.db_source ~scale data in
    let query = Gus_sql.Parser.parse sql in
    let { Gus_sql.Planner.plan; _ } = Gus_sql.Planner.compile db query in
    Format.printf "sampling plan:@.%a@." Splan.pp_tree plan;
    let analysis = Rewrite.analyze_db db plan in
    Format.printf "SOA rewrite (%d steps):@."
      (List.length analysis.Rewrite.steps);
    List.iter
      (fun (what, g) ->
        Format.printf "  %-40s a = %.6g@." what g.Gus_core.Symalg.a)
      analysis.Rewrite.steps;
    (* Wide plans have no dense materialization: fall back to the
       symbolic sum-of-products rendering. *)
    (match Rewrite.dense analysis with
    | g -> Format.printf "@.top GUS quasi-operator:@.  @[%a@]@." Gus.pp g
    | exception Gus.Incompatible _ ->
        Format.printf "@.top GUS quasi-operator (symbolic):@.  @[%a@]@."
          Gus_core.Symalg.pp analysis.Rewrite.sym);
    Format.printf "@.sample-free skeleton:@.%a@." Splan.pp_tree
      analysis.Rewrite.skeleton
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Show the sampling plan, its SOA-equivalence rewrite and top GUS.")
    Term.(const run $ C.scale_arg $ sql_arg $ C.data_arg)

(* ---- lint ---- *)

let lint_cmd =
  let module Lint = Gus_analysis.Lint in
  let module D = Gus_analysis.Diagnostic in
  let sql_opt_arg =
    let doc = "The query text to lint (omit with $(b,--codes))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let small_a_arg =
    let doc = "Warn (GUS010) when the plan's effective sampling fraction is \
               positive but below $(docv)." in
    Arg.(value & opt float Lint.default_config.Lint.small_a
         & info [ "small-a" ] ~docv:"A" ~doc)
  in
  let variance_bound_arg =
    let doc = "Hint (GUS015) when the Theorem-1 worst-case relative \
               variance bound reaches $(docv)." in
    Arg.(value & opt float Lint.default_config.Lint.variance_bound
         & info [ "variance-bound" ] ~docv:"B" ~doc)
  in
  let cost_budget_arg =
    let doc = "Warn (GUS014) when the predicted coefficient-enumeration \
               cost (live moment passes x estimated groups) exceeds $(docv)." in
    Arg.(value & opt float Lint.default_config.Lint.cost_budget
         & info [ "cost-budget" ] ~docv:"C" ~doc)
  in
  let fix_arg =
    let doc = "Apply every machine-applicable fix attached to the \
               diagnostics (to a fixpoint), print the rewritten plan and \
               re-lint it.  Every fix preserves the skeleton and the \
               estimator's expectation." in
    Arg.(value & flag & info [ "fix" ] ~doc)
  in
  let codes_arg =
    let doc = "List every diagnostic code with its severity, summary and \
               paper citation, then exit." in
    Arg.(value & flag & info [ "codes" ] ~doc)
  in
  let print_codes () =
    List.iter
      (fun code ->
        Printf.printf "%s %-7s %-55s [%s]\n" (D.code_id code)
          (D.severity_label (D.severity_of_code code))
          (D.title code) (D.citation code))
      D.all_codes
  in
  let run scale sql json small_a variance_bound cost_budget codes fix data =
    if codes then print_codes ()
    else
      match sql with
      | None ->
          Printf.eprintf "gusdb lint: a query is required (or use --codes)\n";
          exit 124
      | Some sql ->
          C.or_fail ~json @@ fun () ->
          let db = C.db_source ~scale data in
          let config = { Lint.small_a; variance_bound; cost_budget } in
          let { Gus_sql.Runner.pr_plan = plan; pr_lint = report; _ } =
            Gus_sql.Runner.prepare ~lint_config:config db sql
          in
          if json then print_endline (Lint.to_json report)
          else begin
            Format.printf "sampling plan:@.%a@." Lint.pp_annotated_plan
              (plan, report);
            Format.printf "%a" Lint.pp_report report
          end;
          if fix then begin
            let card r =
              Relation.cardinality (Database.find db r)
            in
            let fixed, applied = Lint.apply_fixes ~config ~card plan in
            if applied = [] then Format.printf "@.no applicable fixes.@."
            else begin
              Format.printf "@.applied %d fix(es):@." (List.length applied);
              List.iter
                (fun f ->
                  Format.printf "  %s@." f.Gus_analysis.Fix.summary)
                applied;
              let report' = Lint.run ~config ~card fixed in
              Format.printf "fixed plan:@.%a@." Lint.pp_annotated_plan
                (fixed, report');
              Format.printf "%s@." (Lint.summary report')
            end
          end;
          if Lint.errors report <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically check a query's sampling plan against the GUS \
             algebra's preconditions (Props 5-9, Section 9) without \
             executing it, reporting every violation, warning and hint at \
             once.")
    Term.(const run $ C.scale_arg $ sql_opt_arg $ C.json_arg $ small_a_arg
          $ variance_bound_arg $ cost_budget_arg $ codes_arg $ fix_arg
          $ C.data_arg)

(* ---- lint-workload ---- *)

let lint_workload_cmd =
  let dir_arg =
    let doc = "Directory holding the SQL corpus ($(b,*.sql) files, \
               recursively)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run scale dir data =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "gusdb lint-workload: no such directory %s\n" dir;
      exit 124
    end;
    C.or_fail ~json:true @@ fun () ->
    let db = C.db_source ~scale data in
    let rep = Gus_service.Workload_lint.run db dir in
    print_endline (Json.to_string (Gus_service.Workload_lint.to_json rep));
    exit (Gus_service.Workload_lint.exit_code rep)
  in
  Cmd.v
    (Cmd.info "lint-workload"
       ~doc:"Lint every query of a SQL corpus directory into one \
             aggregated JSON report.  Exit codes are a stable CI \
             contract: 0 all clean, 1 at least one error-severity \
             finding or unparsable query, 124 no such directory.")
    Term.(const run $ C.scale_arg $ dir_arg $ C.data_arg)

(* ---- serve ---- *)

let serve_cmd =
  let cache_capacity_arg =
    let doc = "Capacity of the response LRU cache (entries)." in
    Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let journal_arg =
    let doc = "Record every register/execute/batch item to $(docv) as \
               NDJSON (the flight-recorder journal `gusdb replay` \
               re-executes and verifies bit-identically)." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let journal_capacity_arg =
    let doc = "In-memory journal ring capacity (events); older events \
               are overwritten (and counted) once full." in
    Arg.(value & opt int 4096 & info [ "journal-capacity" ] ~docv:"N" ~doc)
  in
  let slo_rel_ci_arg =
    let doc = "Accuracy SLO: flag executions whose relative 95% CI \
               half-width exceeds $(docv) (journal $(b,breach:true), \
               $(b,slo.breaches.rel_ci) counter, rate-limited stderr log)." in
    Arg.(value & opt (some float) None
         & info [ "slo-rel-ci" ] ~docv:"FRACTION" ~doc)
  in
  let slo_p99_ms_arg =
    let doc = "Latency SLO: flag executions slower than $(docv) \
               milliseconds.  The threshold is the p99 objective — if \
               more than 1% of executions breach it, the SLO is missed \
               (compare $(b,slo.breaches.latency) against \
               $(b,serve.requests.execute))." in
    Arg.(value & opt (some float) None & info [ "slo-p99-ms" ] ~docv:"MS" ~doc)
  in
  let prom_out_arg =
    let doc = "Write the Prometheus text exposition of the metrics \
               registry to $(docv) (atomic rename), refreshed at most \
               once per second after a response and once at EOF — point \
               a node_exporter textfile collector at it." in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"FILE" ~doc)
  in
  let run cache_capacity journal_path journal_capacity slo_rel_ci slo_p99_ms
      prom_out tcp host port port_file max_inflight session_inflight
      shed_start force_shed pool_size trace_out metrics_out =
    C.or_fail @@ fun () ->
    C.apply_pool_size pool_size;
    C.with_obs ~trace_out ~metrics_out @@ fun () ->
    (* The stats op reports the metrics snapshot (cache.hits & friends),
       so collection is always on in serve mode — --metrics-out merely
       adds the file dump at EOF. *)
    Gus_obs.Metrics.set_enabled true;
    let sink = Option.map open_out journal_path in
    let journal =
      Option.map
        (fun sink ->
          Gus_obs.Journal.create ~capacity:journal_capacity ~sink ())
        sink
    in
    let slo =
      { Gus_obs.Journal.max_rel_ci = slo_rel_ci; max_latency_ms = slo_p99_ms }
    in
    let on_breach =
      if slo = Gus_obs.Journal.no_slo then None
      else Some (fun line -> Printf.eprintf "gusdb: %s\n%!" line)
    in
    let engine =
      Gus_service.Engine.create ~cache_capacity
        ~pool:(Gus_util.Pool.default ()) ?journal ~slo ?on_breach ()
    in
    (* Admission control is opt-in on stdio — a plain `gusdb serve`
       session must answer deterministically (the CI replay gate
       byte-compares two runs), and shed decisions depend on wall-clock
       load.  TCP mode always has the in-flight cap; shedding still
       needs --shed-start, --slo-p99-ms pressure, or --force-shed. *)
    let admission =
      if tcp || shed_start <> None || force_shed <> None then
        Some
          (Gus_service.Admission.create ~max_inflight ~session_inflight
             ?shed_start ?slo_p99_ms ?fixed_overload:force_shed ())
      else None
    in
    let after =
      match prom_out with
      | None -> fun () -> ()
      | Some path ->
          let last = ref (Gus_obs.Trace.now_ns ()) in
          fun () ->
            let now = Gus_obs.Trace.now_ns () in
            if now - !last >= 1_000_000_000 then begin
              last := now;
              Gus_obs.Promexp.write_file path
            end
    in
    if tcp then begin
      let server =
        Gus_service.Server.start ~host ~port ?admission ~after engine
      in
      let bound = Gus_service.Server.port server in
      (match port_file with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Printf.fprintf oc "%d\n" bound;
          close_out oc);
      Printf.printf "listening on %s:%d\n%!" host bound;
      Gus_service.Server.wait server
    end
    else
      Gus_service.Session.run ~after
        (Gus_service.Session.create ?admission engine)
        stdin stdout;
    Option.iter Gus_obs.Promexp.write_file prom_out;
    Option.iter close_out sink
  in
  let tcp_arg =
    let doc = "Serve many concurrent NDJSON sessions over TCP instead of \
               one over stdin/stdout.  Each connection gets its own \
               prepared-handle namespace; all sessions share the \
               catalog, cache and journal." in
    Arg.(value & flag & info [ "tcp" ] ~doc)
  in
  let host_arg =
    let doc = "Bind address for $(b,--tcp)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "TCP port for $(b,--tcp); 0 picks an ephemeral port \
               (printed on stdout, and written to $(b,--port-file))." in
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let port_file_arg =
    let doc = "Write the bound TCP port to $(docv) once listening — \
               scripts wait on the file instead of parsing stdout." in
    Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)
  in
  let max_inflight_arg =
    let doc = "Hard cap on requests in flight across all sessions; \
               beyond it requests are rejected with the \
               $(b,overloaded) error." in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let session_inflight_arg =
    let doc = "Per-connection in-flight bound (the reader stops \
               consuming the socket beyond it, so backpressure reaches \
               the client through TCP)." in
    Arg.(value & opt int 8 & info [ "session-inflight" ] ~docv:"N" ~doc)
  in
  let shed_start_arg =
    let doc = "In-flight depth at which load shedding starts: past it, \
               execute requests are answered from degraded sampling \
               rates chosen by the paper's Section-8 rate selection \
               (minimum variance under the reduced budget) instead of \
               queueing.  Responses gain $(b,shed:true) and an \
               honestly wider CI." in
    Arg.(value & opt (some int) None & info [ "shed-start" ] ~docv:"N" ~doc)
  in
  let force_shed_arg =
    let doc = "Pin the overload factor to $(docv) (> 1 sheds every \
               execute) — deterministic shedding for tests and demos." in
    Arg.(value & opt (some float) None
         & info [ "force-shed" ] ~docv:"FACTOR" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve prepared queries over a line-oriented NDJSON protocol — \
             one session on stdin/stdout, or many concurrent sessions over \
             TCP with $(b,--tcp): register datasets, prepare once per \
             session, execute many times with per-call seeds and sampling \
             rates, batch across the domain pool, inspect cache/catalog \
             stats.  Under overload ($(b,--shed-start), $(b,--slo-p99-ms)) \
             the admission controller shed-samples instead of queueing, \
             using the paper's Section-8 rate selection.  With \
             $(b,--journal) every execution (shed ones included) is \
             flight-recorded bit-reproducibly; $(b,--prom-out) exports \
             Prometheus text format.")
    Term.(const run $ cache_capacity_arg $ journal_arg $ journal_capacity_arg
          $ slo_rel_ci_arg $ slo_p99_ms_arg $ prom_out_arg $ tcp_arg
          $ host_arg $ port_arg $ port_file_arg $ max_inflight_arg
          $ session_inflight_arg $ shed_start_arg $ force_shed_arg
          $ C.pool_size_arg $ C.trace_out_arg $ C.metrics_out_arg)

(* ---- loadgen ---- *)

let loadgen_cmd =
  let clients_arg =
    let doc = "Concurrent client connections." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let qps_arg =
    let doc = "Aggregate target request rate (closed loop: clients never \
               pipeline, so offered load saturates at server speed)." in
    Arg.(value & opt float 200.0 & info [ "qps" ] ~docv:"M" ~doc)
  in
  let duration_arg =
    let doc = "Run length in seconds." in
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let connect_arg =
    let doc = "Drive an already-running `gusdb serve --tcp` at \
               $(docv) (HOST:PORT) instead of spawning an in-process \
               server." in
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let sql_arg =
    let doc = "Query each client prepares and executes." in
    Arg.(value
         & opt string
             "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (20 \
              PERCENT)"
         & info [ "sql" ] ~docv:"SQL" ~doc)
  in
  let loadgen_scale_arg =
    let doc = "Scale of the TPC-H-style dataset the in-process server \
               registers." in
    Arg.(value & opt float 0.01 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)
  in
  let max_inflight_arg =
    let doc = "In-process server: hard in-flight cap." in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let session_inflight_arg =
    let doc = "In-process server: per-connection in-flight bound." in
    Arg.(value & opt int 8 & info [ "session-inflight" ] ~docv:"N" ~doc)
  in
  let shed_start_arg =
    let doc = "In-process server: in-flight depth where shedding starts." in
    Arg.(value & opt (some int) None & info [ "shed-start" ] ~docv:"N" ~doc)
  in
  let slo_p99_ms_arg =
    let doc = "In-process server: p99 latency target driving \
               latency-based shedding; also the SLO the summary is \
               judged against." in
    Arg.(value & opt (some float) None & info [ "slo-p99-ms" ] ~docv:"MS" ~doc)
  in
  let force_shed_arg =
    let doc = "In-process server: pin the overload factor (deterministic \
               shedding)." in
    Arg.(value & opt (some float) None
         & info [ "force-shed" ] ~docv:"FACTOR" ~doc)
  in
  let bench_out_arg =
    let doc = "Merge a $(b,service/loadgen-*) row (p50/p99 latency, \
               achieved qps, shed fraction) into the \
               BENCH_moments.json-format file at $(docv)." in
    Arg.(value & opt (some string) None & info [ "bench-out" ] ~docv:"FILE" ~doc)
  in
  let run clients qps duration connect sql scale max_inflight session_inflight
      shed_start slo_p99_ms force_shed bench_out json =
    C.or_fail ~json @@ fun () ->
    let module Service = Gus_service in
    let host, port, server =
      match connect with
      | Some spec -> (
          match String.rindex_opt spec ':' with
          | Some i ->
              let host = String.sub spec 0 i in
              let port =
                int_of_string (String.sub spec (i + 1) (String.length spec - i - 1))
              in
              (host, port, None)
          | None ->
              raise
                (Invalid_argument
                   (Printf.sprintf "--connect %S: expected HOST:PORT" spec)))
      | None ->
          Gus_obs.Metrics.set_enabled true;
          let engine =
            Service.Engine.create ~cache_capacity:256
              ~pool:(Gus_util.Pool.default ()) ()
          in
          let admission =
            Service.Admission.create ~max_inflight ~session_inflight
              ?shed_start ?slo_p99_ms ?fixed_overload:force_shed ()
          in
          let server = Service.Server.start ~port:0 ~admission engine in
          ("127.0.0.1", Service.Server.port server, Some server)
    in
    let line j = Json.to_string (Json.Obj j) in
    let setup =
      [ line
          [ ("op", Json.Str "register");
            ("name", Json.Str "bench");
            ("scale", Json.Num scale) ] ]
    in
    let client_setup =
      [ line
          [ ("op", Json.Str "prepare");
            ("dataset", Json.Str "bench");
            ("sql", Json.Str sql);
            ("name", Json.Str "lq") ] ]
    in
    (* Distinct seeds per request: identical seeds would answer from the
       response cache and generate no load at all. *)
    let request ~client ~seq =
      line
        [ ("op", Json.Str "execute");
          ("handle", Json.Str "lq");
          ("seed", Json.Num (float_of_int (1 + client + (clients * seq)))) ]
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter Service.Server.stop server)
        (fun () ->
          Service.Loadgen.run ~host ~port ~clients ~qps ~duration_s:duration
            ~setup ~client_setup ~request ())
    in
    match result with
    | Error msg -> failwith msg
    | Ok s ->
        let open Service.Loadgen in
        if json then
          print_endline
            (Json.to_string
               (Json.obj
                  [ ("ok", Some (Json.Bool (s.errors = 0)));
                    ("op", Some (Json.Str "loadgen"));
                    ("clients", Some (Json.Num (float_of_int s.clients)));
                    ("target_qps", Some (Json.Num s.target_qps));
                    ("duration_s", Some (Json.Num s.duration_s));
                    ("sent", Some (Json.Num (float_of_int s.sent)));
                    ("ok_responses", Some (Json.Num (float_of_int s.ok)));
                    ("errors", Some (Json.Num (float_of_int s.errors)));
                    ("shed", Some (Json.Num (float_of_int s.shed)));
                    ("rejected", Some (Json.Num (float_of_int s.rejected)));
                    ("p50_ms", Some (Json.Num s.p50_ms));
                    ("p99_ms", Some (Json.Num s.p99_ms));
                    ("achieved_qps", Some (Json.Num s.achieved_qps));
                    ("shed_fraction", Some (Json.Num s.shed_fraction)) ]))
        else begin
          Printf.printf
            "loadgen: %d client(s), target %g req/s for %g s against %s:%d\n"
            s.clients s.target_qps s.duration_s host port;
          Printf.printf
            "sent %d  ok %d  shed %d (%.1f%%)  rejected %d  errors %d\n"
            s.sent s.ok s.shed (100.0 *. s.shed_fraction) s.rejected s.errors;
          Printf.printf
            "latency p50 %.2f ms  p99 %.2f ms  achieved %.1f req/s\n"
            s.p50_ms s.p99_ms s.achieved_qps;
          match slo_p99_ms with
          | Some slo when s.p99_ms > slo ->
              Printf.printf "p99 SLO (%g ms) MISSED\n" slo
          | Some slo -> Printf.printf "p99 SLO (%g ms) met\n" slo
          | None -> ()
        end;
        (match bench_out with
        | None -> ()
        | Some path ->
            let name =
              Printf.sprintf "service/loadgen-%dx%g" s.clients s.target_qps
            in
            merge_bench_row ~path ~name s);
        if s.errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop load generator for `gusdb serve --tcp`: N client \
             connections pace toward an aggregate request rate, each with \
             its own session-scoped prepared handle, and report p50/p99 \
             latency, achieved throughput and the shed fraction.  Spawns \
             an in-process server (with admission-control flags) unless \
             $(b,--connect) points at a running one.  Exits non-zero on \
             any protocol error.")
    Term.(const run $ clients_arg $ qps_arg $ duration_arg $ connect_arg
          $ sql_arg $ loadgen_scale_arg $ max_inflight_arg
          $ session_inflight_arg $ shed_start_arg $ slo_p99_ms_arg
          $ force_shed_arg $ bench_out_arg $ C.json_arg)

(* ---- replay ---- *)

let replay_cmd =
  let journal_file_arg =
    let doc = "NDJSON journal written by `gusdb serve --journal`." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)
  in
  let float_str v =
    if Float.is_nan v then "nan"
    else if v = Float.infinity then "inf"
    else if v = Float.neg_infinity then "-inf"
    else Json.number_to_string v
  in
  let run journal json =
    let module Replay = Gus_service.Replay in
    (match Replay.run_file journal with
    | exception Replay.Corrupt { line; message } ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ("ok", Json.Bool false);
                    ( "error",
                      Json.Obj
                        [ ("code", Json.Str "corrupt_journal");
                          ("line", Json.Num (float_of_int line));
                          ("message", Json.Str message) ] ) ]));
        Printf.eprintf "gusdb replay: %s:%d: corrupted journal line: %s\n"
          journal line message;
        exit 1
    | exception e -> C.or_fail ~json (fun () -> raise e)
    | report ->
        let mismatch_json (m : Replay.mismatch) =
          Json.Obj
            [ ("line", Json.Num (float_of_int m.Replay.mm_line));
              ("sql", Json.Str m.Replay.mm_sql);
              ("field", Json.Str m.Replay.mm_field);
              ("journaled", Json.Str (float_str m.Replay.mm_journaled));
              ("replayed", Json.Str (float_str m.Replay.mm_replayed)) ]
        in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  ([ ("ok", Json.Bool (report.Replay.rp_mismatches = []));
                     ("op", Json.Str "replay");
                     ( "registers",
                       Json.Num (float_of_int report.Replay.rp_registers) );
                     ( "skipped",
                       Json.Num (float_of_int report.Replay.rp_skipped) );
                     ( "executions",
                       Json.Num (float_of_int report.Replay.rp_executions) );
                     ( "matched",
                       Json.Num (float_of_int report.Replay.rp_matched) ) ]
                  @ (if report.Replay.rp_sheds > 0 then
                       [ ( "sheds",
                           Json.Num (float_of_int report.Replay.rp_sheds) ) ]
                     else [])
                  @ [ ( "mismatches",
                        Json.List
                          (List.map mismatch_json report.Replay.rp_mismatches)
                      ) ])))
        else begin
          Printf.printf
            "replayed %d execution(s) over %d registered dataset(s)%s\n"
            report.Replay.rp_executions report.Replay.rp_registers
            (if report.Replay.rp_skipped > 0 then
               Printf.sprintf " (%d register event(s) skipped)"
                 report.Replay.rp_skipped
             else "");
          if report.Replay.rp_sheds > 0 then
            Printf.printf "%d shed decision(s) noted (degraded rates \
                           replayed via their exec events)\n"
              report.Replay.rp_sheds;
          if report.Replay.rp_mismatches = [] then
            Printf.printf "all %d estimate(s) bit-identical\n"
              report.Replay.rp_matched
          else
            List.iter
              (fun (m : Replay.mismatch) ->
                Printf.printf
                  "MISMATCH line %d [%s]: journaled %s, replayed %s  (%s)\n"
                  m.Replay.mm_line m.Replay.mm_field
                  (float_str m.Replay.mm_journaled)
                  (float_str m.Replay.mm_replayed)
                  m.Replay.mm_sql)
              report.Replay.rp_mismatches
        end;
        if report.Replay.rp_mismatches <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a serve journal and assert bit-identical \
             estimates.  Rebuilds each journaled dataset from its \
             recorded source, re-runs every execution with its journaled \
             seed/rates/explain/exact, and compares estimate, stddev and \
             variance bit for bit.  Exit 1 on any mismatch or a \
             corrupted journal line.")
    Term.(const run $ journal_file_arg $ C.json_arg)

(* ---- repl ---- *)

let repl_cmd =
  let run scale seed =
    let db = db_of ~scale ~seed:C.generation_seed in
    Printf.printf
      "gusdb repl - %d relations, %d rows (scale %g).\n\
       Terminate queries with ';'.  Commands: \\q quit, \\plan <sql>;, \
       \\exact <sql>;, \\tables.\n"
      (List.length (Database.names db))
      (Database.total_rows db) scale;
    let seed = ref seed in
    let buf = Buffer.create 256 in
    let try_read () = try Some (input_line stdin) with End_of_file -> None in
    let rec loop () =
      if Buffer.length buf = 0 then print_string "gus> " else print_string "...> ";
      flush stdout;
      match try_read () with
      | None -> print_newline ()
      | Some line ->
          let line = String.trim line in
          if line = "\\q" then print_endline "bye."
          else if line = "\\tables" then begin
            List.iter
              (fun n ->
                Printf.printf "  %-10s %7d rows  %s\n" n
                  (Relation.cardinality (Database.find db n))
                  (Format.asprintf "%a" Schema.pp (Database.find db n).Relation.schema))
              (Database.names db);
            loop ()
          end
          else begin
            Buffer.add_string buf line;
            Buffer.add_char buf ' ';
            if String.length line > 0 && String.contains line ';' then begin
              let text = String.trim (Buffer.contents buf) in
              Buffer.clear buf;
              incr seed;
              (try
                 if String.length text >= 5 && String.sub text 0 5 = "\\plan" then begin
                   let sql = String.sub text 5 (String.length text - 5) in
                   let query = Gus_sql.Parser.parse sql in
                   let { Gus_sql.Planner.plan; _ } = Gus_sql.Planner.compile db query in
                   Format.printf "%a" Splan.pp_tree plan;
                   let analysis = Rewrite.analyze_db db plan in
                   Format.printf "@[%a@]@." Gus.pp (Lazy.force analysis.Rewrite.gus)
                 end
                 else if String.length text >= 6 && String.sub text 0 6 = "\\exact"
                 then begin
                   let sql = String.sub text 6 (String.length text - 6) in
                   List.iter
                     (fun (label, v) -> Format.printf "  %s = %.6g@." label v)
                     (Gus_sql.Runner.run_exact db sql)
                 end
                 else
                   Format.printf "%a@." Gus_sql.Runner.pp_result
                     (Gus_sql.Runner.run_request db
                        (Gus_sql.Runner.request ~seed:!seed text))
                       .Gus_sql.Runner.rs_result
               with
              | Gus_sql.Parser.Error msg | Gus_sql.Planner.Error msg ->
                  Printf.printf "error: %s\n" msg
              | Gus_sql.Lexer.Error { message; _ } ->
                  Printf.printf "lexical error: %s\n" message
              | Rewrite.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
              | Value.Type_error msg -> Printf.printf "type error: %s\n" msg
              | Schema.Unknown_column c -> Printf.printf "unknown column: %s\n" c);
              loop ()
            end
            else loop ()
          end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query loop over a generated database.")
    Term.(const run $ C.scale_arg $ C.seed_arg)

(* ---- experiments ---- *)

let experiments_cmd =
  let id_arg =
    let doc = "Run a single experiment (T1..T4, E1..E7); default: all." in
    Arg.(value & opt (some string) None & info [ "e"; "experiment" ] ~docv:"ID" ~doc)
  in
  let full_arg =
    let doc = "Full-size runs (more trials, larger scale)." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let list_arg =
    let doc = "List the available experiments." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let progress_arg =
    let doc = "Print live trial progress (completed/total, elapsed, ETA) \
               to stderr during Monte-Carlo loops." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let run id full list pool_size progress trace_out metrics_out =
    let module R = Gus_experiments.Registry in
    C.apply_pool_size pool_size;
    Gus_experiments.Harness.set_progress progress;
    if list then
      List.iter
        (fun e ->
          Printf.printf "%-4s %-50s [%s]\n" e.R.id e.R.title e.R.paper_artifact)
        R.all
    else
      C.with_obs ~trace_out ~metrics_out @@ fun () ->
      match id with
      | None -> R.run_all ~quick:(not full) ()
      | Some id -> begin
          match R.find id with
          | Some e -> if full then e.R.run () else e.R.quick ()
          | None ->
              Printf.eprintf "unknown experiment %s\n" id;
              exit 1
        end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the paper-reproduction experiments.")
    Term.(const run $ id_arg $ full_arg $ list_arg $ C.pool_size_arg
          $ progress_arg $ C.trace_out_arg $ C.metrics_out_arg)

let () =
  let doc = "aggregate estimation over sampled queries (GUS sampling algebra)" in
  let info = Cmd.info "gusdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; snapshot_cmd; query_cmd; plan_cmd; lint_cmd;
            lint_workload_cmd; serve_cmd; loadgen_cmd; replay_cmd; repl_cmd;
            experiments_cmd ]))
