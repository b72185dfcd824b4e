(* Serving-layer tests:

   1. Json: parse/print units, escape handling, and a QCheck round-trip
      (print → parse is the identity, floats bit-identical).
   2. Cache: LRU eviction order, recency bumps on find and re-add,
      prefix invalidation, and the cache.hits/misses/evictions counters.
   3. Catalog: version bumps on re-registration, mutation hooks,
      source rendering.
   4. Prepared: rate overrides rewrite exactly the named relations'
      samplers (and reject unknown names), version-bump re-preparation.
   5. Engine: second identical execute is a recorded cache hit with a
      bit-identical response; catalog mutation invalidates; prepared
      execution matches one-shot Runner.run_request estimates bit for bit.
   6. Scheduler + QCheck: cached and uncached execution of the same
      (sql, params, seed) are bit-identical, and batch fan-out returns
      identical results in identical order for pool sizes {1, 2, 4}.
   7. Protocol: NDJSON units for register/prepare/execute/stats and the
      structured error objects.
   8. Telemetry: sampling-rate provenance for journal events, SLO breach
      marking (journal flag, counters, rate-limited callback), and the
      replay QCheck property — a journal of random executions (random
      seeds/rates/explain, row and columnar storage) replays with every
      estimate/stddev/variance bit-identical. *)

module Json = Gus_service.Json
module Cache = Gus_service.Cache
module Catalog = Gus_service.Catalog
module Prepared = Gus_service.Prepared
module Engine = Gus_service.Engine
module Scheduler = Gus_service.Scheduler
module Wire = Gus_service.Wire
module Session = Gus_service.Session
module Admission = Gus_service.Admission
module Server = Gus_service.Server
module Replay = Gus_service.Replay
module Journal = Gus_obs.Journal
module Runner = Gus_sql.Runner

(* One-shot execution: prepare + execute, the result only. *)
let run_sql ?seed db sql =
  (Runner.run_request db (Runner.request ?seed sql)).Runner.rs_result
module Metrics = Gus_obs.Metrics
module Pool = Gus_util.Pool
module Splan = Gus_core.Splan

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let pool_of =
  let tbl = Hashtbl.create 4 in
  fun size ->
    match Hashtbl.find_opt tbl size with
    | Some p -> p
    | None ->
        let p = Pool.create ~size in
        Hashtbl.add tbl size p;
        p

(* One small shared database; every engine below registers this same
   immutable snapshot, so engine construction is cheap. *)
let db = Gus_tpch.Tpch.generate ~seed:1 ~scale:0.05 ()
let dataset = "d"

let fresh_engine ?pool () =
  let e = Engine.create ~cache_capacity:8 ?pool () in
  ignore
    (Engine.register_db e ~name:dataset ~source:(Catalog.In_memory "test") db);
  e

let sql_single = "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (20 PERCENT)"

let sql_join =
  "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem \
   TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (200 ROWS) WHERE l_orderkey \
   = o_orderkey"

(* Canonical bit-exact signature of a response: the round-trip JSON
   printer makes string equality float-bit equality. *)
let sig_of (rs : Runner.response) =
  Json.to_string
    (Json.obj
       [ ("result", Some (Wire.result_json rs.Runner.rs_result));
         ("exact", Wire.exact_json rs);
         ("streamed", Some (Json.Bool rs.Runner.rs_streamed)) ])

(* ---- Workload lint + lint-once metric ---- *)

let test_workload_json_roundtrip () =
  (* A tiny on-disk corpus with one clean file and one file holding an
     error finding plus an unparsable statement; the aggregated JSON
     must survive a print → parse → print cycle byte for byte. *)
  let dir =
    let f = Filename.temp_file "gus_workload" "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "good.sql" (sql_single ^ ";\n");
  write "bad.sql"
    "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT), \
     lineitem;\nSELECT BOGUS;\n";
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let wl = Gus_service.Workload_lint.run db dir in
      check_int "files" 2 wl.Gus_service.Workload_lint.files;
      check_int "unparsable" 1 (Gus_service.Workload_lint.unparsable wl);
      check_int "errors" 1 (Gus_service.Workload_lint.errors wl);
      check_int "exit code" 1 (Gus_service.Workload_lint.exit_code wl);
      let s = Json.to_string (Gus_service.Workload_lint.to_json wl) in
      check_string "json round-trip" s (Json.to_string (Json.of_string s));
      (* missing directory is the caller's problem, as documented *)
      match Gus_service.Workload_lint.run db (Filename.concat dir "absent") with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "missing corpus dir must raise Sys_error")

let test_execute_never_relints () =
  (* The analyzer runs once at prepare time; plain executions (cached or
     not) reuse the recorded facts.  Only a sampler override, which
     changes the plan, may re-lint. *)
  let lint_runs = Metrics.counter "analysis.lint.runs" in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was_enabled)
    (fun () ->
      let e = fresh_engine () in
      let before = Metrics.counter_value lint_runs in
      let handle, _ = Engine.prepare e ~dataset sql_join in
      let after_prepare = Metrics.counter_value lint_runs in
      check_int "prepare lints exactly once" 1 (after_prepare - before);
      for seed = 1 to 3 do
        ignore
          (Engine.execute e ~handle { Prepared.default_overrides with seed })
      done;
      ignore (Engine.execute e ~handle Prepared.default_overrides);
      check_int "executes never re-lint" after_prepare
        (Metrics.counter_value lint_runs))

(* ---- 1. Json ---- *)

let test_json_basics () =
  let j = Json.of_string {| {"a": [1, 2.5, -3e2], "b": "x\n\"y\u00e9", "c": {"t": true, "n": null}} |} in
  check_string "string escape" "x\n\"y\xc3\xa9"
    (Option.get (Option.bind (Json.member "b" j) Json.to_str));
  (match Option.bind (Json.member "a" j) Json.to_list with
  | Some [ a; b; c ] ->
      check_int "int" 1 (Option.get (Json.to_int a));
      Alcotest.check (Alcotest.float 0.) "frac" 2.5 (Option.get (Json.to_num b));
      Alcotest.check (Alcotest.float 0.) "exp" (-300.) (Option.get (Json.to_num c))
  | _ -> Alcotest.fail "list shape");
  check_bool "bool" true
    (Option.get
       (Option.bind (Json.member "c" j) (fun c ->
            Option.bind (Json.member "t" c) Json.to_bool)));
  check_string "compact print" {|{"x":[1,true,null,"q"]}|}
    (Json.to_string
       (Json.Obj [ ("x", Json.List [ Json.Num 1.; Json.Bool true; Json.Null; Json.Str "q" ]) ]));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad))
    [ ""; "{"; "[1,]"; "{\"a\":1,}"; "tru"; "1 2"; "\"\\x\""; "\"unterminated" ]

let test_json_roundtrip () =
  QCheck.Test.check_exn
  @@ QCheck.Test.make ~name:"json print/parse round-trip" ~count:200
       QCheck.(
         pair (list (pair small_string float)) (list small_string))
       (fun (fields, strings) ->
         let v =
           Json.Obj
             [ ( "o",
                 Json.Obj (List.map (fun (k, f) -> (k, Json.Num f)) fields) );
               ("l", Json.List (List.map (fun s -> Json.Str s) strings)) ]
         in
         (* non-finite floats print as null by design; skip those *)
         QCheck.assume
           (List.for_all (fun (_, f) -> Float.is_finite f) fields);
         let v' = Json.of_string (Json.to_string v) in
         Json.to_string v = Json.to_string v'
         &&
         match Json.member "o" v' with
         | Some (Json.Obj fields') ->
             List.for_all2
               (fun (_, f) (_, j) -> Json.to_num j = Some f)
               fields fields'
         | _ -> fields <> [])

(* ---- 2. Cache ---- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  Alcotest.(check (list string)) "lru order" [ "a"; "b"; "c" ]
    (Cache.keys_lru_order c);
  (* a hit moves "a" to MRU, so the next eviction takes "b" *)
  check_bool "hit" true (Cache.find c "a" = Some 1);
  Cache.add c "d" 4;
  Alcotest.(check (list string)) "evicted b" [ "c"; "a"; "d" ]
    (Cache.keys_lru_order c);
  check_bool "b gone" true (Cache.find c "b" = None);
  (* re-adding an existing key updates in place and bumps recency *)
  Cache.add c "c" 33;
  Alcotest.(check (list string)) "re-add bumps" [ "a"; "d"; "c" ]
    (Cache.keys_lru_order c);
  check_bool "updated" true (Cache.find c "c" = Some 33);
  check_int "len" 3 (Cache.length c)

let test_cache_prefix () =
  let c = Cache.create ~capacity:8 in
  List.iter (fun k -> Cache.add c k 0)
    [ "ds\x001\x00q1"; "ds\x001\x00q2"; "ds2\x001\x00q1"; "other" ];
  check_int "dropped" 2 (Cache.remove_prefix c ~prefix:"ds\x00");
  Alcotest.(check (list string)) "survivors" [ "ds2\x001\x00q1"; "other" ]
    (Cache.keys_lru_order c);
  check_int "nothing" 0 (Cache.remove_prefix c ~prefix:"nope")

let test_cache_metrics () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let hits () = Metrics.counter_value (Metrics.counter "cache.hits") in
  let misses () = Metrics.counter_value (Metrics.counter "cache.misses") in
  let evictions () =
    Metrics.counter_value (Metrics.counter "cache.evictions")
  in
  let c = Cache.create ~capacity:2 in
  ignore (Cache.find c "x");
  Cache.add c "x" 1;
  ignore (Cache.find c "x");
  Cache.add c "y" 2;
  Cache.add c "z" 3;
  (* evicts x *)
  ignore (Cache.find c "x");
  check_int "hits" 1 (hits ());
  check_int "misses" 2 (misses ());
  check_int "evictions" 1 (evictions ())

(* ---- 3. Catalog ---- *)

let test_catalog_versions () =
  let cat = Catalog.create () in
  let fired = ref [] in
  Catalog.on_mutate cat (fun name -> fired := name :: !fired);
  let e1 = Catalog.register cat ~name:"a" ~source:(Catalog.In_memory "v1") db in
  check_int "first version" 1 e1.Catalog.version;
  let e2 = Catalog.register cat ~name:"a" ~source:(Catalog.In_memory "v2") db in
  check_int "bumped" 2 e2.Catalog.version;
  check_int "current" 2 (Catalog.find_exn cat "a").Catalog.version;
  check_bool "remove" true (Catalog.remove cat "a");
  check_bool "remove again" false (Catalog.remove cat "a");
  Alcotest.(check (list string)) "hooks fired" [ "a"; "a"; "a" ]
    (List.rev !fired);
  (match Catalog.find_exn cat "a" with
  | exception Catalog.Unknown_dataset "a" -> ()
  | _ -> Alcotest.fail "expected Unknown_dataset");
  check_string "source rendering" "tpch(scale=0.1,seed=7)"
    (Catalog.source_to_string (Catalog.Tpch { scale = 0.1; seed = 7 }))

(* ---- 4. Prepared ---- *)

let test_override_rates () =
  let e = fresh_engine () in
  let _, p = Engine.prepare e ~dataset sql_join in
  let plan = (Prepared.handle p).Runner.pr_plan in
  let card rel =
    Gus_relational.Relation.cardinality (Gus_relational.Database.find db rel)
  in
  let plan' = Prepared.override_rates ~card [ ("lineitem", 0.5) ] plan in
  check_bool "changed" false (Splan.equal plan plan');
  (* only the named relation's sampler moves: reverting it restores the
     original plan *)
  let plan'' = Prepared.override_rates ~card [ ("lineitem", 0.10) ] plan' in
  check_bool "revert" true (Splan.equal plan plan'');
  (* WOR override maps a fraction to rate × N rows *)
  let plan_wor =
    Prepared.override_rates ~card [ ("orders", 0.5) ] plan
  in
  check_bool "wor resized" false (Splan.equal plan plan_wor);
  (match Prepared.override_rates ~card [ ("customer", 0.5) ] plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsampled relation must be rejected");
  match Prepared.override_rates ~card [ ("lineitem", 1.5) ] plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate out of range must be rejected"

let test_reprepare_on_version_bump () =
  let e = fresh_engine () in
  let _, p = Engine.prepare e ~dataset sql_single in
  check_int "prepared at v1" 1 (Prepared.version p);
  ignore
    (Engine.register_db e ~name:dataset ~source:(Catalog.In_memory "again") db);
  let o = Engine.execute e ~handle:"q1" Prepared.default_overrides in
  check_bool "not cached" false o.Engine.cached;
  check_int "re-prepared at v2" 2 (Prepared.version p)

(* ---- 5. Engine ---- *)

let test_cache_hit_bit_identical () =
  let e = fresh_engine () in
  let handle, _ = Engine.prepare e ~dataset sql_join in
  let ov = { Prepared.default_overrides with seed = 9 } in
  let o1 = Engine.execute e ~handle ov in
  let o2 = Engine.execute e ~handle ov in
  check_bool "first cold" false o1.Engine.cached;
  check_bool "second hit" true o2.Engine.cached;
  check_string "bit-identical" (sig_of o1.Engine.response)
    (sig_of o2.Engine.response);
  (* different params are different keys *)
  let o3 = Engine.execute e ~handle { ov with seed = 10 } in
  check_bool "new seed cold" false o3.Engine.cached;
  check_int "two entries" 2 (Engine.cache_length e)

let test_invalidation_on_mutation () =
  let e = fresh_engine () in
  let handle, _ = Engine.prepare e ~dataset sql_single in
  ignore (Engine.execute e ~handle Prepared.default_overrides);
  check_int "cached" 1 (Engine.cache_length e);
  ignore
    (Engine.register_db e ~name:dataset ~source:(Catalog.In_memory "v2") db);
  check_int "invalidated" 0 (Engine.cache_length e);
  let o = Engine.execute e ~handle Prepared.default_overrides in
  check_bool "recomputed" false o.Engine.cached

let test_matches_one_shot_runner () =
  let e = fresh_engine () in
  let handle, _ = Engine.prepare e ~dataset sql_join in
  let seed = 42 in
  let served =
    (Engine.execute e ~handle { Prepared.default_overrides with seed })
      .Engine.response
  in
  let one_shot = run_sql ~seed db sql_join in
  (* the serving path streams; estimates and tuple counts are guaranteed
     bit-identical to the materializing one-shot path (stddev may differ
     in final bits from moment-reduction order) *)
  check_bool "streamed" true served.Runner.rs_streamed;
  List.iter2
    (fun (a : Runner.cell) (b : Runner.cell) ->
      check_string "label" a.Runner.label b.Runner.label;
      check_bool "estimate bits" true (a.Runner.value = b.Runner.value))
    served.Runner.rs_result.Runner.cells one_shot.Runner.cells;
  check_int "tuple count" one_shot.Runner.n_sample_tuples
    served.Runner.rs_result.Runner.n_sample_tuples

(* ---- 6. Scheduler + the cached/uncached QCheck property ---- *)

let test_scheduler_map () =
  let jobs = Array.init 17 (fun i -> i) in
  let f i = if i = 13 then failwith "boom" else (i * i) + 1 in
  let inline = Scheduler.map f jobs in
  List.iter
    (fun size ->
      let pooled = Scheduler.map ~pool:(pool_of size) f jobs in
      Array.iteri
        (fun i r ->
          match (inline.(i), r) with
          | Ok a, Ok b -> check_int "slot" a b
          | Error _, Error _ -> check_int "failing slot" 13 i
          | _ -> Alcotest.fail "inline/pooled disagree")
        pooled)
    [ 1; 2; 4 ]

let test_batch_first_execution () =
  (* A fresh handle's first executions land on several lanes at once;
     the prepare-time analysis they share must not race (forcing one
     lazy value from two domains raises Lazy.Undefined).  Each round is
     a new engine, so every batch races for a first force. *)
  for round = 1 to 150 do
    let e = fresh_engine ~pool:(pool_of 4) () in
    let handle, _ = Engine.prepare e ~dataset sql_join in
    let ov = { Prepared.default_overrides with seed = round } in
    Array.iter
      (function
        | Ok _ -> ()
        | Error ex -> Alcotest.failf "round %d: %s" round (Printexc.to_string ex))
      (Engine.batch e
         [| (handle, ov); (handle, { ov with seed = round + 1 }); (handle, ov) |])
  done

let test_cached_uncached_property () =
  QCheck.Test.check_exn
  @@ QCheck.Test.make
       ~name:"cached = uncached, batch order pool-size invariant" ~count:8
       QCheck.(pair (int_bound 1000) (int_bound 2))
       (fun (seed, rate_case) ->
         let rates =
           match rate_case with
           | 0 -> []
           | 1 -> [ ("lineitem", 0.25) ]
           | _ -> [ ("lineitem", 0.15); ("orders", 0.4) ]
         in
         let ov = { Prepared.default_overrides with seed; rates } in
         (* uncached: a fresh engine computes from scratch *)
         let cold () =
           let e = fresh_engine () in
           let handle, _ = Engine.prepare e ~dataset sql_join in
           (Engine.execute e ~handle ov).Engine.response
         in
         let reference = sig_of (cold ()) in
         (* cached: same engine twice; second answer must be a hit and
            bit-identical *)
         let e = fresh_engine () in
         let handle, _ = Engine.prepare e ~dataset sql_join in
         let o1 = Engine.execute e ~handle ov in
         let o2 = Engine.execute e ~handle ov in
         let ok_cache =
           (not o1.Engine.cached) && o2.Engine.cached
           && sig_of o1.Engine.response = reference
           && sig_of o2.Engine.response = reference
         in
         (* batch: three seeds through pools of size 1/2/4 give the same
            ordered signatures *)
         let batch_sigs size =
           let e = fresh_engine ~pool:(pool_of size) () in
           let handle, _ = Engine.prepare e ~dataset sql_join in
           Engine.batch e
             (Array.map
                (fun s -> (handle, { ov with Prepared.seed = s }))
                [| seed; seed + 1; seed |])
           |> Array.map (function
                | Ok o -> sig_of o.Engine.response
                | Error e -> raise e)
         in
         let ref_batch = batch_sigs 1 in
         ok_cache
         && List.for_all (fun s -> batch_sigs s = ref_batch) [ 2; 4 ])

(* ---- 8. Telemetry: journal, SLOs, bit-identical replay ---- *)

(* A row-storage twin of the shared columnar db: replay determinism must
   not depend on which storage backs the relations. *)
let db_rows =
  lazy
    (let d = Gus_relational.Database.create () in
     List.iter
       (fun n ->
         Gus_relational.Database.add d
           (Gus_relational.Relation.to_rows (Gus_relational.Database.find db n)))
       (Gus_relational.Database.names db);
     d)

let test_sampling_rates () =
  let e = fresh_engine () in
  let _, p = Engine.prepare e ~dataset sql_join in
  let card rel =
    Gus_relational.Relation.cardinality (Gus_relational.Database.find db rel)
  in
  let rates = Prepared.sampling_rates ~card (Prepared.handle p).Runner.pr_plan in
  Alcotest.(check (list string)) "sampled relations, sorted"
    [ "lineitem"; "orders" ] (List.map fst rates);
  Alcotest.(check (float 1e-12)) "bernoulli keep probability" 0.1
    (List.assoc "lineitem" rates);
  Alcotest.(check (float 1e-12)) "wor size over cardinality"
    (200. /. float_of_int (card "orders"))
    (List.assoc "orders" rates)

let test_slo_breach_marking () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let journal = Journal.create ~capacity:8 () in
  let logged = ref [] in
  (* an impossibly tight CI target: every sampled execution breaches *)
  let slo = { Journal.max_rel_ci = Some 1e-12; max_latency_ms = None } in
  let e =
    Engine.create ~journal ~slo ~on_breach:(fun m -> logged := m :: !logged) ()
  in
  ignore
    (Engine.register_db e ~name:dataset ~source:(Catalog.In_memory "test") db);
  let handle, _ = Engine.prepare e ~dataset sql_single in
  ignore (Engine.execute e ~handle Prepared.default_overrides);
  ignore (Engine.execute e ~handle Prepared.default_overrides);
  let execs =
    List.filter_map
      (function Journal.Exec x -> Some x | _ -> None)
      (Journal.events journal)
  in
  check_int "both executions journaled" 2 (List.length execs);
  List.iter
    (fun (x : Journal.exec) ->
      check_bool "marked as breach" true x.Journal.breach;
      check_bool "rel_ci recorded" true (x.Journal.rel_ci > 0.))
    execs;
  (match execs with
  | [ cold; hit ] ->
      check_bool "first cold" false cold.Journal.cached;
      check_bool "second cached, still journaled" true hit.Journal.cached;
      check_bool "top variance node present" true (cold.Journal.top <> None)
  | _ -> Alcotest.fail "expected two exec events");
  check_int "breach counter" 2
    (Metrics.counter_value (Metrics.counter "slo.breaches"));
  check_int "ci breach counter" 2
    (Metrics.counter_value (Metrics.counter "slo.breaches.rel_ci"));
  check_int "no latency breaches" 0
    (Metrics.counter_value (Metrics.counter "slo.breaches.latency"));
  (* the 1/s limiter lets the first burst through exactly once *)
  check_int "rate-limited log" 1 (List.length !logged)

let test_replay_bit_identical () =
  QCheck.Test.check_exn
  @@ QCheck.Test.make
       ~name:"journal replay is bit-identical (row + columnar)" ~count:6
       QCheck.(triple (int_bound 1000) (int_bound 2) bool)
       (fun (seed, rate_case, row_storage) ->
         let data = if row_storage then Lazy.force db_rows else db in
         let rates =
           match rate_case with
           | 0 -> []
           | 1 -> [ ("lineitem", 0.25) ]
           | _ -> [ ("lineitem", 0.15); ("orders", 0.4) ]
         in
         let journal = Journal.create ~capacity:64 () in
         let e = Engine.create ~journal () in
         ignore
           (Engine.register_db e ~name:dataset
              ~source:(Catalog.In_memory "test") data);
         let handle, _ = Engine.prepare e ~dataset sql_join in
         (* three plain executions (the third a cache hit) plus one down
            the profiled explain path *)
         List.iter
           (fun s ->
             ignore
               (Engine.execute e ~handle
                  { Prepared.default_overrides with seed = s; rates }))
           [ seed; seed + 1; seed ];
         ignore
           (Engine.execute e ~handle
              { Prepared.default_overrides with seed; rates; explain = true });
         let ndjson =
           String.concat "\n"
             (List.map Journal.to_ndjson (Journal.events journal))
         in
         (* a fresh engine with the same in-memory dataset pre-registered:
            the register event is skipped, every exec must match bit for
            bit *)
         let e2 = Engine.create () in
         ignore
           (Engine.register_db e2 ~name:dataset
              ~source:(Catalog.In_memory "test") data);
         let r = Replay.run_string ~engine:e2 ndjson in
         r.Replay.rp_skipped = 1
         && r.Replay.rp_registers = 0
         && r.Replay.rp_executions = 4
         && r.Replay.rp_matched = 4
         && r.Replay.rp_mismatches = [])

(* Replace the first occurrence of [sub] in [s] (test helper; asserts
   the needle is present). *)
let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then
      Alcotest.failf "substring %S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_replay_detects_drift () =
  (* Flip one mantissa bit in a journaled estimate: replay must report
     exactly that field on exactly that line. *)
  let journal = Journal.create () in
  let journal_engine = Engine.create ~journal () in
  ignore
    (Engine.register_db journal_engine ~name:dataset
       ~source:(Catalog.In_memory "test") db);
  let handle, _ = Engine.prepare journal_engine ~dataset sql_single in
  ignore (Engine.execute journal_engine ~handle Prepared.default_overrides);
  let tampered =
    List.map
      (fun l ->
        let j = Json.of_string l in
        match Json.member "ev" j with
        | Some (Json.Str "exec") ->
            let est =
              Option.get (Option.bind (Json.member "estimate" j) Json.to_num)
            in
            let bumped =
              Int64.float_of_bits (Int64.add (Int64.bits_of_float est) 1L)
            in
            replace_once
              ~sub:(Printf.sprintf "\"estimate\":%s" (Json.number_to_string est))
              ~by:(Printf.sprintf "\"estimate\":%s" (Json.number_to_string bumped))
              l
        | _ -> l)
      (List.map Journal.to_ndjson (Journal.events journal))
  in
  let e2 = fresh_engine () in
  let r = Replay.run_string ~engine:e2 (String.concat "\n" tampered) in
  check_int "one execution" 1 r.Replay.rp_executions;
  check_int "none matched" 0 r.Replay.rp_matched;
  (match r.Replay.rp_mismatches with
  | [ m ] ->
      check_string "field" "estimate" m.Replay.mm_field;
      check_int "line" 2 m.Replay.mm_line
  | ms -> Alcotest.failf "expected 1 mismatch, got %d" (List.length ms));
  (* corrupted lines raise with a 1-based line number *)
  match Replay.run_string ~engine:(fresh_engine ()) "{\"ev\":\"exec\"}\nnot json" with
  | exception Replay.Corrupt { line = 1; _ } -> ()
  | exception Replay.Corrupt { line; _ } ->
      Alcotest.failf "wrong corrupt line %d" line
  | _ -> Alcotest.fail "tamper-proof journal accepted garbage"

(* ---- 7. Protocol ---- *)

let test_protocol_roundtrip () =
  let e = Engine.create ~cache_capacity:4 () in
  ignore (Engine.register_db e ~name:"t" ~source:(Catalog.In_memory "test") db);
  let session = Session.create e in
  let line s = Json.of_string (Option.get (Session.handle session s)) in
  let prep =
    line
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "prepare");
              ("dataset", Json.Str "t");
              ("name", Json.Str "q");
              ("sql", Json.Str sql_single) ]))
  in
  check_bool "prepare ok" true
    (Option.bind (Json.member "ok" prep) Json.to_bool = Some true);
  check_bool "analyzable" true
    (Option.bind (Json.member "analyzable" prep) Json.to_bool = Some true);
  let exec = line {|{"op":"execute","handle":"q","seed":5}|} in
  check_bool "exec ok" true
    (Option.bind (Json.member "ok" exec) Json.to_bool = Some true);
  check_bool "not cached" true
    (Option.bind (Json.member "cached" exec) Json.to_bool = Some false);
  let exec2 = line {|{"op":"execute","handle":"q","seed":5}|} in
  check_bool "cached" true
    (Option.bind (Json.member "cached" exec2) Json.to_bool = Some true);
  (* identical result objects on hit *)
  check_string "same result"
    (Json.to_string (Option.get (Json.member "result" exec)))
    (Json.to_string (Option.get (Json.member "result" exec2)));
  let stats = line {|{"op":"stats"}|} in
  check_bool "stats ok" true
    (Option.bind (Json.member "ok" stats) Json.to_bool = Some true);
  check_bool "cache length" true
    (Option.bind (Json.member "cache" stats) (Json.member "length")
     |> Fun.flip Option.bind Json.to_num
    = Some 1.)

let test_protocol_errors () =
  let e = Engine.create () in
  let session = Session.create e in
  let code_of s =
    let j = Json.of_string (Option.get (Session.handle session s)) in
    ( Option.bind (Json.member "ok" j) Json.to_bool,
      Option.bind (Json.member "error" j) (Json.member "code")
      |> Fun.flip Option.bind Json.to_str )
  in
  Alcotest.(check (pair (option bool) (option string)))
    "bad json" (Some false, Some "bad_json") (code_of "{nope");
  Alcotest.(check (pair (option bool) (option string)))
    "unknown op" (Some false, Some "bad_request") (code_of {|{"op":"frob"}|});
  Alcotest.(check (pair (option bool) (option string)))
    "missing op" (Some false, Some "bad_request") (code_of {|{"x":1}|});
  Alcotest.(check (pair (option bool) (option string)))
    "unknown dataset" (Some false, Some "unknown_dataset")
    (code_of {|{"op":"prepare","dataset":"nope","sql":"SELECT COUNT(*) FROM t"}|});
  Alcotest.(check (pair (option bool) (option string)))
    "unknown handle" (Some false, Some "unknown_handle")
    (code_of {|{"op":"execute","handle":"nope"}|});
  ignore (Engine.register_db e ~name:"t" ~source:(Catalog.In_memory "test") db);
  Alcotest.(check (pair (option bool) (option string)))
    "parse error" (Some false, Some "parse_error")
    (code_of {|{"op":"prepare","dataset":"t","sql":"SELECT SUM(x FROM"}|})

(* ---- 9. Session API, error registry, admission control, TCP server ---- *)

let ok_of j = Option.bind (Json.member "ok" j) Json.to_bool = Some true

let code_of j =
  Option.bind (Json.member "error" j) (Json.member "code")
  |> Fun.flip Option.bind Json.to_str

let session_req s line = Json.of_string (Option.get (Session.handle s line))

let prepare_line ?(name = "q") sql =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "prepare");
         ("dataset", Json.Str dataset);
         ("name", Json.Str name);
         ("sql", Json.Str sql) ])

let test_session_namespace () =
  let e = fresh_engine () in
  let s1 = Session.create e and s2 = Session.create e in
  check_bool "distinct ids" true (Session.id s1 <> Session.id s2);
  (* both sessions claim the same handle name for different queries *)
  check_bool "s1 prepare" true (ok_of (session_req s1 (prepare_line sql_single)));
  check_bool "s2 prepare" true (ok_of (session_req s2 (prepare_line sql_join)));
  let r1 = session_req s1 {|{"op":"execute","handle":"q","seed":3}|} in
  let r2 = session_req s2 {|{"op":"execute","handle":"q","seed":3}|} in
  check_bool "both execute" true (ok_of r1 && ok_of r2);
  check_bool "one name, two plans" true
    (Json.to_string (Option.get (Json.member "result" r1))
    <> Json.to_string (Option.get (Json.member "result" r2)));
  (* hello reports the wire version and this session's id *)
  let h = session_req s1 {|{"op":"hello"}|} in
  check_bool "protocol version" true
    (Option.bind (Json.member "protocol_version" h) Json.to_int
    = Some Wire.protocol_version);
  check_bool "session id" true
    (Option.bind (Json.member "session" h) Json.to_int = Some (Session.id s1));
  (* closing one session must not touch its sibling *)
  Session.close s1;
  Session.close s1 (* idempotent *);
  check_bool "closed answers session_closed" true
    (code_of (session_req s1 {|{"op":"execute","handle":"q","seed":3}|})
    = Some "session_closed");
  let r2' = session_req s2 {|{"op":"execute","handle":"q","seed":3}|} in
  check_bool "sibling still serves" true (ok_of r2');
  check_bool "sibling hit its cache" true
    (Option.bind (Json.member "cached" r2') Json.to_bool = Some true)

let test_error_registry () =
  (* Every code in the stable registry is emitted somewhere: protocol
     codes through a live session exchange or the shared error_of_exn
     mapping (the only path protocol errors render through); the CLI-only
     corrupt_journal through Replay's exception. *)
  let e = fresh_engine () in
  let s = Session.create e in
  let emit line = code_of (session_req s line) in
  let via_exn exn = Option.map fst (Wire.error_of_exn exn) in
  ignore
    (session_req s (prepare_line ~name:"badcol"
         "SELECT SUM(nope) AS s FROM lineitem TABLESAMPLE (10 PERCENT)"));
  let emissions =
    [ ("bad_json", emit "{nope");
      ("bad_request", emit {|{"op":"execute","handle":"q","sede":1}|});
      ("parse_error", emit (prepare_line "SELECT SUM(x FROM"));
      ("plan_error",
        emit (prepare_line
            "SELECT SUM(l_quantity) AS s FROM nope TABLESAMPLE (10 PERCENT)"));
      ("unsupported_plan", via_exn (Gus_analysis.Rewrite.Unsupported "x"));
      ("type_error", via_exn (Gus_relational.Value.Type_error "x"));
      ("unknown_column", emit {|{"op":"execute","handle":"badcol","seed":1}|});
      ("unknown_relation",
        via_exn (Gus_relational.Database.Unknown_relation "x"));
      ("unknown_dataset",
        emit
          {|{"op":"prepare","dataset":"nope","sql":"SELECT COUNT(*) FROM t"}|});
      ("unknown_handle", emit {|{"op":"execute","handle":"nope"}|});
      ("snapshot_corrupt", via_exn (Gus_relational.Snapshot.Format_error "x"));
      ("snapshot_version",
        via_exn
          (Gus_relational.Snapshot.Version_mismatch { found = 0; expected = 1 }));
      ("io_error", via_exn (Sys_error "x"));
      ("overloaded", via_exn (Wire.Overloaded "x"));
      ("session_closed",
        (let dead = Session.create e in
         Session.close dead;
         code_of (session_req dead {|{"op":"stats"}|})));
      ("corrupt_journal",
        (match Replay.run_string "not json" with
        | exception Replay.Corrupt _ -> Some "corrupt_journal"
        | _ -> None)) ]
  in
  List.iter
    (fun (code, _, _) ->
      match List.assoc_opt code emissions with
      | Some (Some c) when c = code -> ()
      | Some (Some c) -> Alcotest.failf "code %s emitted as %s" code c
      | Some None -> Alcotest.failf "code %s never emitted" code
      | None -> Alcotest.failf "registry code %s has no emission case" code)
    Wire.error_codes;
  List.iter
    (fun (code, _) ->
      check_bool (code ^ " is registered") true
        (List.exists (fun (c, _, _) -> c = code) Wire.error_codes))
    emissions;
  (* unknown fields are rejected, not silently defaulted *)
  check_bool "unknown field names the field" true
    (match Session.handle s {|{"op":"execute","handle":"q","sede":1}|} with
    | Some r ->
        let j = Json.of_string r in
        code_of j = Some "bad_request"
        && (match
              Option.bind (Json.member "error" j) (Json.member "message")
              |> Fun.flip Option.bind Json.to_str
            with
           | Some m ->
               let has_sub sub =
                 let n = String.length sub and ln = String.length m in
                 let rec go i =
                   i + n <= ln && (String.sub m i n = sub || go (i + 1))
                 in
                 go 0
               in
               has_sub "sede"
           | None -> false)
    | None -> false)

let test_admission_accounting () =
  let a = Admission.create ~max_inflight:2 ~session_inflight:1 () in
  let t1 =
    match Admission.enter a with
    | Ok (t, Admission.Admit) -> t
    | _ -> Alcotest.fail "first request admitted"
  in
  let t2 =
    match Admission.enter a with
    | Ok (t, _) -> t
    | Error _ -> Alcotest.fail "second request admitted"
  in
  check_int "inflight tracks" 2 (Admission.inflight a);
  (match Admission.enter a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "third request must hit the hard cap");
  Admission.leave a t1;
  (match Admission.enter a with
  | Ok (t, _) -> Admission.leave a t
  | Error _ -> Alcotest.fail "capacity freed by leave");
  Admission.leave a t2;
  check_int "drained" 0 (Admission.inflight a);
  check_bool "p99 needs 8 samples" true (Admission.p99_ms a = None);
  (* a pinned overload factor sheds deterministically with that factor *)
  let forced = Admission.create ~fixed_overload:2.5 () in
  (match Admission.enter forced with
  | Ok (t, Admission.Shed f) ->
      Alcotest.(check (float 1e-12)) "pinned factor" 2.5 f;
      Admission.leave forced t
  | _ -> Alcotest.fail "pinned overload must shed")

let test_shed_rates_math () =
  let card = function
    | "lineitem" -> 1000
    | "orders" -> 500
    | r -> Alcotest.failf "unexpected relation %s" r
  in
  (* no moments yet: proportional fallback, budget = cost / overload *)
  (match
     Admission.shed_rates ~overload:2.0 ~card ~current:[ ("lineitem", 0.2) ] ()
   with
  | [ ("lineitem", rate) ] ->
      Alcotest.(check (float 1e-9)) "half the sustainable budget" 0.1 rate
  | _ -> Alcotest.fail "expected exactly one degraded rate");
  (* exact plans sample nothing and cannot shed *)
  check_bool "exact plans unshed" true
    (Admission.shed_rates ~overload:4.0 ~card ~current:[] () = []);
  (* with previous-execution moments the Section-8 optimizer picks the
     split; whatever it picks must respect the degraded budget and the
     [1e-6, 1] clamp at every overload level *)
  let y = ([ "lineitem"; "orders" ], [| 4.0; 2.0; 2.0; 1.0 |]) in
  let current = [ ("lineitem", 0.2); ("orders", 0.4) ] in
  let cost = (1000. *. 0.2) +. (500. *. 0.4) in
  List.iter
    (fun overload ->
      let rates =
        Admission.shed_rates ~overload ~card ~current ~y ()
      in
      check_int "both relations rated" 2 (List.length rates);
      let spent =
        List.fold_left
          (fun acc (rel, r) -> acc +. (float_of_int (card rel) *. r))
          0.0 rates
      in
      check_bool
        (Printf.sprintf "budget respected at %gx (%g <= %g)" overload spent
           (cost /. overload))
        true
        (spent <= (cost /. overload) +. 1e-6);
      List.iter
        (fun (_, r) ->
          check_bool "clamped to [1e-6, 1]" true (r >= 1e-6 && r <= 1.0))
        rates)
    [ 1.5; 2.0; 4.0; 16.0 ]

let test_shed_journal_replay () =
  let journal = Journal.create ~capacity:64 () in
  let e = Engine.create ~journal () in
  ignore
    (Engine.register_db e ~name:dataset ~source:(Catalog.In_memory "test") db);
  let adm = Admission.create ~fixed_overload:3.0 () in
  let s = Session.create ~admission:adm e in
  check_bool "prepare ok" true (ok_of (session_req s (prepare_line sql_join)));
  (* every execute sheds (pinned overload): degraded rates, honest
     shed/overload marking; the first has no moments (proportional),
     later ones feed the previous y-hat to the optimizer *)
  List.iter
    (fun seed ->
      let r =
        session_req s
          (Printf.sprintf {|{"op":"execute","handle":"q","seed":%d}|} seed)
      in
      check_bool "shed execute ok" true (ok_of r);
      check_bool "marked shed" true
        (Option.bind (Json.member "shed" r) Json.to_bool = Some true);
      check_bool "overload reported" true
        (Option.bind (Json.member "overload" r) Json.to_num = Some 3.0);
      match Json.member "shed_rates" r with
      | Some (Json.Obj fields) ->
          check_bool "degraded rates present" true (fields <> [])
      | _ -> Alcotest.fail "shed_rates missing")
    [ 11; 12; 13 ];
  (* client-pinned rates are never overridden by the shedder *)
  let pinned =
    session_req s
      {|{"op":"execute","handle":"q","seed":11,"rates":{"lineitem":0.05}}|}
  in
  check_bool "pinned rates not shed" true
    (ok_of pinned && Json.member "shed" pinned = None);
  (* the journal replays bit-identically, shed executions included *)
  let ndjson =
    String.concat "\n" (List.map Journal.to_ndjson (Journal.events journal))
  in
  let e2 = Engine.create () in
  ignore
    (Engine.register_db e2 ~name:dataset ~source:(Catalog.In_memory "test") db);
  let r = Replay.run_string ~engine:e2 ndjson in
  check_int "all executions replayed" 4 r.Replay.rp_executions;
  check_int "all bit-identical" 4 r.Replay.rp_matched;
  check_int "shed decisions counted" 3 r.Replay.rp_sheds;
  check_bool "no mismatches" true (r.Replay.rp_mismatches = [])

(* q02's shape: a sampled fact table joined with an unsampled dimension.
   The report's design spans lineitem only, so the shedder must build its
   candidate designs over the report's relations — a Ŷ over lineitem
   cannot be priced against a design over (lineitem, orders). *)
let sql_q02 =
  "SELECT SUM(l_extendedprice) AS s FROM lineitem TABLESAMPLE (20 PERCENT), \
   orders WHERE l_orderkey = o_orderkey"

let test_shed_unsampled_join () =
  let e = fresh_engine () in
  let adm = Admission.create ~fixed_overload:3.0 () in
  let s = Session.create ~admission:adm e in
  check_bool "prepare ok" true (ok_of (session_req s (prepare_line sql_q02)));
  let exec seed =
    let r =
      session_req s
        (Printf.sprintf {|{"op":"execute","handle":"q","seed":%d}|} seed)
    in
    check_bool "shed execute ok" true (ok_of r);
    let rate =
      match Json.member "shed_rates" r with
      | Some (Json.Obj [ ("lineitem", Json.Num rate) ]) -> rate
      | _ -> Alcotest.fail "expected one shed rate, for lineitem"
    in
    let cell =
      match
        Option.bind (Json.member "result" r) (Json.member "cells")
        |> Fun.flip Option.bind Json.to_list
      with
      | Some [ c ] -> c
      | _ -> Alcotest.fail "one cell"
    in
    let num k = Option.get (Option.bind (Json.member k cell) Json.to_num) in
    (rate, num "estimate", num "stddev")
  in
  let pinned what (rate, estimate, stddev) (rate', estimate', stddev') =
    let same x y =
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    in
    check_bool (what ^ ": shed rate") true (same rate rate');
    check_bool (what ^ ": estimate") true (same estimate estimate');
    check_bool (what ^ ": stddev") true (same stddev stddev')
  in
  (* The first execute has no moments (proportional split); the second
     seeds the Section-8 optimizer with the first one's Ŷ. *)
  pinned "first" (exec 31)
    (0x1.0ffbf0c6e9ed4p-4, 0x1.0dabe9b4e774fp+24, 0x1.8109ca4086fa4p+20);
  pinned "second" (exec 32)
    (0x1.0ffbf0c6e9ed4p-4, 0x1.20eb53640e8fbp+24, 0x1.a70c5060bdcap+20)

(* ---- TCP transport ---- *)

let tcp_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let tcp_req (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Json.of_string (input_line ic)

let test_tcp_sibling_isolation () =
  let e = fresh_engine () in
  let server = Server.start ~port:0 e in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let a = tcp_connect port and b = tcp_connect port in
  check_bool "b prepares" true (ok_of (tcp_req b (prepare_line sql_single)));
  let r1 = tcp_req b {|{"op":"execute","handle":"q","seed":9}|} in
  check_bool "b executes" true (ok_of r1);
  (* a malformed frame on A is an error response, not a teardown *)
  check_bool "A's garbage answered in-band" true
    (code_of (tcp_req a "{nope") = Some "bad_json");
  (* B's handle name means nothing inside A's session *)
  check_bool "namespaces isolated over tcp" true
    (code_of (tcp_req a {|{"op":"execute","handle":"q","seed":9}|})
    = Some "unknown_handle");
  (* hard-kill A mid-session; B keeps its handles and its cache entry *)
  let fd_a, _, _ = a in
  Unix.close fd_a;
  let r2 = tcp_req b {|{"op":"execute","handle":"q","seed":9}|} in
  check_bool "b survives sibling crash" true (ok_of r2);
  check_bool "b answered from cache" true
    (Option.bind (Json.member "cached" r2) Json.to_bool = Some true);
  check_string "bit-identical across the crash"
    (Json.to_string (Option.get (Json.member "result" r1)))
    (Json.to_string (Option.get (Json.member "result" r2)));
  let fd_b, _, _ = b in
  Unix.close fd_b

let test_tcp_concurrent_clients () =
  (* Four clients hammering one engine concurrently: every response
     parses, every session sees only its own handles, and the cached
     re-execution of each client's own seed is bit-identical. *)
  let e = fresh_engine () in
  let server = Server.start ~port:0 e in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let failures = Atomic.make 0 in
  let client i () =
    try
      let c = tcp_connect port in
      let fd, _, _ = c in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      if not (ok_of (tcp_req c (prepare_line sql_single))) then raise Exit;
      for seed = 0 to 9 do
        let line =
          Printf.sprintf {|{"op":"execute","handle":"q","seed":%d}|}
            ((i * 100) + seed)
        in
        let first = tcp_req c line in
        let again = tcp_req c line in
        if not (ok_of first && ok_of again) then raise Exit;
        if
          Json.to_string (Option.get (Json.member "result" first))
          <> Json.to_string (Option.get (Json.member "result" again))
        then raise Exit
      done
    with _ -> Atomic.incr failures
  in
  let threads = List.init 4 (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  check_int "no client failures" 0 (Atomic.get failures)

let () =
  Alcotest.run "service"
    [ ( "json",
        [ Alcotest.test_case "basics" `Quick test_json_basics;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction order" `Quick test_cache_lru;
          Alcotest.test_case "prefix invalidation" `Quick test_cache_prefix;
          Alcotest.test_case "metrics counters" `Quick test_cache_metrics ] );
      ( "catalog",
        [ Alcotest.test_case "versions + hooks" `Quick test_catalog_versions ]
      );
      ( "prepared",
        [ Alcotest.test_case "rate overrides" `Quick test_override_rates;
          Alcotest.test_case "re-prepare on version bump" `Quick
            test_reprepare_on_version_bump ] );
      ( "engine",
        [ Alcotest.test_case "cache hit bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "invalidation on mutation" `Quick
            test_invalidation_on_mutation;
          Alcotest.test_case "matches one-shot Runner.run" `Quick
            test_matches_one_shot_runner ] );
      ( "scheduler",
        [ Alcotest.test_case "deterministic map" `Quick test_scheduler_map;
          Alcotest.test_case "cached = uncached (pools 1/2/4)" `Slow
            test_cached_uncached_property;
          Alcotest.test_case "pooled first executions do not race" `Quick
            test_batch_first_execution ] );
      ( "workload",
        [ Alcotest.test_case "json round-trip + totals" `Quick
            test_workload_json_roundtrip;
          Alcotest.test_case "execute never re-lints" `Quick
            test_execute_never_relints ] );
      ( "protocol",
        [ Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "errors" `Quick test_protocol_errors ] );
      ( "session",
        [ Alcotest.test_case "per-session handle namespace" `Quick
            test_session_namespace;
          Alcotest.test_case "error-code registry coverage" `Quick
            test_error_registry ] );
      ( "admission",
        [ Alcotest.test_case "in-flight accounting" `Quick
            test_admission_accounting;
          Alcotest.test_case "section-8 shed rates" `Quick
            test_shed_rates_math;
          Alcotest.test_case "shed on a join with an unsampled table" `Quick
            test_shed_unsampled_join;
          Alcotest.test_case "shed journal replays bit-identical" `Quick
            test_shed_journal_replay ] );
      ( "server",
        [ Alcotest.test_case "sibling-session isolation" `Quick
            test_tcp_sibling_isolation;
          Alcotest.test_case "concurrent clients" `Quick
            test_tcp_concurrent_clients ] );
      ( "telemetry",
        [ Alcotest.test_case "sampling-rate provenance" `Quick
            test_sampling_rates;
          Alcotest.test_case "slo breach marking" `Quick
            test_slo_breach_marking;
          Alcotest.test_case "replay detects drift" `Quick
            test_replay_detects_drift;
          Alcotest.test_case "replay bit-identical (row + columnar)" `Slow
            test_replay_bit_identical ] ) ]
