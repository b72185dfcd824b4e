module Runner = Gus_sql.Runner
module Journal = Gus_obs.Journal

let m_rel_ci =
  Gus_obs.Metrics.histogram
    ~buckets:
      [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.;
         10. |]
    "serve.rel_ci_half_width"

let m_breaches = Gus_obs.Metrics.counter "slo.breaches"
let m_breach_rel_ci = Gus_obs.Metrics.counter "slo.breaches.rel_ci"
let m_breach_latency = Gus_obs.Metrics.counter "slo.breaches.latency"

type t = {
  catalog : Catalog.t;
  cache : Runner.response Cache.t;
  pool : Gus_util.Pool.t option;
  journal : Journal.t option;
  slo : Journal.slo;
  on_breach : (string -> unit) option;
  limiter : Journal.limiter;
  start_ns : int;
}

let now = Gus_obs.Trace.now_ns

let create ?(cache_capacity = 128) ?pool ?journal ?(slo = Journal.no_slo)
    ?on_breach () =
  let t =
    { catalog = Catalog.create ();
      cache = Cache.create ~capacity:cache_capacity;
      pool;
      journal;
      slo;
      on_breach;
      limiter = Journal.limiter ();
      start_ns = now () }
  in
  (* Eager invalidation: any (re)registration or removal drops the
     dataset's cached responses.  The version baked into every key
     already makes stale entries unreachable; this frees their slots. *)
  Catalog.on_mutate t.catalog (fun name ->
      ignore (Cache.remove_prefix t.cache ~prefix:(name ^ "\x00")));
  t

let catalog t = t.catalog
let journal t = t.journal
let slo t = t.slo
let uptime_ns t = now () - t.start_ns

let pool_size t =
  match t.pool with Some p -> Gus_util.Pool.size p | None -> 1

let note_register t (entry : Catalog.entry) =
  match t.journal with
  | None -> ()
  | Some j ->
      Journal.record j
        (Journal.Register
           { id = Journal.next_id j;
             dataset = entry.Catalog.dataset;
             version = entry.Catalog.version;
             source = Catalog.source_json entry.Catalog.source })

let register t ~name ~source =
  let entry = Catalog.load t.catalog ~name ~source in
  note_register t entry;
  entry

let register_db t ~name ~source db =
  let entry = Catalog.register t.catalog ~name ~source db in
  note_register t entry;
  entry

let cache_key t p (ov : Prepared.overrides) =
  let entry = Catalog.find_exn t.catalog (Prepared.dataset p) in
  let rates =
    List.sort (fun (a, _) (b, _) -> compare a b) ov.Prepared.rates
    |> List.map (fun (rel, rate) ->
           Printf.sprintf "%s:%s" rel (Json.number_to_string rate))
    |> String.concat ","
  in
  Printf.sprintf "%s\x00%d\x00%s\x00seed=%d;exact=%b;rates=%s"
    entry.Catalog.dataset entry.Catalog.version (Prepared.sql p)
    ov.Prepared.seed ov.Prepared.exact rates

type outcome = {
  response : Runner.response;
  cached : bool;
  wall_ns : int;
}

let cacheable (ov : Prepared.overrides) = not ov.Prepared.explain

let slo_active (slo : Journal.slo) =
  slo.Journal.max_rel_ci <> None || slo.Journal.max_latency_ms <> None

let journal_stats (rs : Runner.response) =
  let estimate, stddev =
    match rs.Runner.rs_result.Runner.cells with
    | c :: _ -> (c.Runner.value, c.Runner.stddev)
    | [] -> (Float.nan, Float.nan) (* GROUP BY: no whole-query estimate *)
  in
  let variance =
    match rs.Runner.rs_report with
    | Some r -> r.Gus_estimator.Sbox.variance
    | None -> stddev *. stddev
  in
  (estimate, stddev, variance)

(* Per-execution telemetry: relative-CI histogram, SLO breach counters +
   rate-limited log, and the journal event.  Runs on the driving thread
   only (the journal ring is not synchronized); when no journal, no SLO
   and no metrics are on, this is a three-field check and out. *)
let note_exec t ~handle ~(p : Prepared.t) ~(ov : Prepared.overrides)
    (o : outcome) =
  if t.journal <> None || slo_active t.slo || Gus_obs.Metrics.enabled ()
  then begin
    let rs = o.response in
    let estimate, stddev, variance = journal_stats rs in
    let rel_ci = Journal.rel_ci_half_width ~estimate ~stddev in
    if Float.is_finite rel_ci then Gus_obs.Metrics.observe m_rel_ci rel_ci;
    let rel_breach =
      match t.slo.Journal.max_rel_ci with
      | Some m -> (not (Float.is_nan rel_ci)) && rel_ci > m
      | None -> false
    and lat_breach =
      match t.slo.Journal.max_latency_ms with
      | Some m -> float_of_int o.wall_ns > m *. 1e6
      | None -> false
    in
    let breach = rel_breach || lat_breach in
    if breach then begin
      Gus_obs.Metrics.incr m_breaches;
      if rel_breach then Gus_obs.Metrics.incr m_breach_rel_ci;
      if lat_breach then Gus_obs.Metrics.incr m_breach_latency;
      match t.on_breach with
      | None -> ()
      | Some log -> (
          match Journal.permit t.limiter ~now_ns:(now ()) with
          | None -> ()
          | Some suppressed ->
              log
                (Printf.sprintf
                   "SLO breach (%s): handle=%s dataset=%s seed=%d \
                    rel_ci=%.4g wall_ms=%.3f%s"
                   (if rel_breach && lat_breach then "ci+latency"
                    else if rel_breach then "ci"
                    else "latency")
                   handle (Prepared.dataset p) ov.Prepared.seed rel_ci
                   (float_of_int o.wall_ns /. 1e6)
                   (if suppressed > 0 then
                      Printf.sprintf " [%d suppressed]" suppressed
                    else "")))
    end;
    match t.journal with
    | None -> ()
    | Some j ->
        let entry = Catalog.find_exn t.catalog (Prepared.dataset p) in
        let top =
          Option.map
            (fun (path, label, share) -> { Journal.path; label; share })
            (Runner.top_variance_share rs)
        in
        let rates =
          (* the plan that ran, rate overrides applied *)
          let card rel =
            Gus_relational.Relation.cardinality
              (Gus_relational.Database.find entry.Catalog.db rel)
          in
          Prepared.sampling_rates ~card rs.Runner.rs_result.Runner.plan
        in
        let sql = Prepared.sql p in
        Journal.record j
          (Journal.Exec
             { id = Journal.next_id j;
               dataset = entry.Catalog.dataset;
               version = entry.Catalog.version;
               sql;
               sql_hash = Journal.sql_hash sql;
               seed = ov.Prepared.seed;
               rates;
               explain = ov.Prepared.explain;
               exact = ov.Prepared.exact;
               cached = o.cached;
               estimate;
               variance;
               stddev;
               rel_ci;
               top;
               wall_ns = o.wall_ns;
               breach })
  end

(* Phase 1 of [batch_prepared] for one item, on the driving thread:
   refresh the handle and probe the cache.  Every handle mutation and
   cache read happens here. *)
type stage =
  | Failed of exn
  | Hit of Runner.response * int  (* probe ns *)
  | Miss of string option * int  (* the key to fill when cacheable; probe ns *)

let stage t (_, p, ov) =
  let t0 = now () in
  try
    ignore (Prepared.refresh t.catalog p);
    let key = if cacheable ov then Some (cache_key t p ov) else None in
    match Option.bind key (Cache.find t.cache) with
    | Some response -> Hit (response, now () - t0)
    | None -> Miss (key, now () - t0)
  with e -> Failed e

let batch_prepared t items =
  let staged = Array.map (stage t) items in
  (* Phase 2: run the misses, fanned across the pool; lanes only read
     engine state.  One miss runs inline on the driving thread. *)
  let misses =
    Array.of_list
      (List.filteri
         (fun i _ -> match staged.(i) with Miss _ -> true | _ -> false)
         (Array.to_list items))
  in
  let results =
    Scheduler.map ?pool:t.pool
      (fun (_, p, ov) ->
        let t0 = now () in
        let response = Prepared.execute t.catalog p ov in
        (response, now () - t0))
      misses
  in
  (* Phase 3, driving thread again: fill the cache and journal each item
     in submission order. *)
  let cursor = ref 0 in
  Array.mapi
    (fun i stage ->
      let label, p, ov = items.(i) in
      let finish o =
        note_exec t ~handle:label ~p ~ov o;
        Ok o
      in
      match stage with
      | Failed e -> Error e
      | Hit (response, probe_ns) ->
          finish { response; cached = true; wall_ns = probe_ns }
      | Miss (key, probe_ns) -> (
          let r = results.(!cursor) in
          incr cursor;
          match r with
          | Error e -> Error e
          | Ok (response, run_ns) ->
              Option.iter (fun k -> Cache.add t.cache k response) key;
              finish { response; cached = false; wall_ns = probe_ns + run_ns }))
    staged

let execute_prepared t ~label p ov =
  match batch_prepared t [| (label, p, ov) |] with
  | [| Ok o |] -> o
  | [| Error e |] -> raise e
  | _ -> assert false

let cache_length t = Cache.length t.cache
let cache_capacity t = Cache.capacity t.cache
