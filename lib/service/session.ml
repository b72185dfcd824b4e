(* One protocol session: the transport-agnostic middle of the serving
   stack.  A session owns a connection-scoped prepared-handle namespace
   (two clients can both call their query "q1" without trampling each
   other) on top of a shared Engine, and dispatches parsed NDJSON
   requests to it.  Transports stay thin: the stdin/stdout loop ([run])
   drives one session, Server's TCP loop drives one per connection.

   NOT thread-safe by itself: the engine underneath is driving-thread
   only, so concurrent transports must serialize handle calls (Server
   holds one driving lock across all its sessions).  Admission
   accounting is the exception — Admission.t is thread-safe and entered
   on reader threads, before any queueing.

   Shedding: when the admission decision for a request is [Shed f] and
   the client did not pin rates explicitly, execute/batch items run with
   degraded per-relation sampling rates chosen by Admission.shed_rates
   (paper Section 8) — still an honest SOA estimate, with an honestly
   wider CI.  The decision is journaled as a Shed event and the degraded
   rates ride in the following Exec event, so `gusdb replay` reproduces
   shed responses bit-identically. *)

module Runner = Gus_sql.Runner
module Lint = Gus_analysis.Lint
module Metrics = Gus_obs.Metrics
module Journal = Gus_obs.Journal
module Splan = Gus_core.Splan
open Gus_relational
open Json

(* Per-verb request counters + end-to-end request latency.  DESIGN.md §7
   lists the names; §12 maps them to Prometheus series. *)
let m_req_register = Metrics.counter "serve.requests.register"
let m_req_prepare = Metrics.counter "serve.requests.prepare"
let m_req_execute = Metrics.counter "serve.requests.execute"
let m_req_batch = Metrics.counter "serve.requests.batch"
let m_req_stats = Metrics.counter "serve.requests.stats"
let m_req_hello = Metrics.counter "serve.requests.hello"
let m_req_invalid = Metrics.counter "serve.requests.invalid"
let m_shed_exec = Metrics.counter "shed.executions"
let g_sessions = Metrics.gauge "serve.sessions"

let m_latency =
  (* default power-of-two buckets: 1 µs .. ~1 s *)
  Metrics.histogram "serve.latency_us"

let active_sessions = Atomic.make 0
let next_session_id = Atomic.make 1

type t = {
  engine : Engine.t;
  admission : Admission.t option;
  id : int;
  prepared : (string, Prepared.t) Hashtbl.t;
  last_y : (string, string list * float array) Hashtbl.t;
      (* per handle: Ŷ moments of the last un-cached execution, the
         seed for variance-minimizing shed-rate selection *)
  mutable next_handle : int;
  mutable closed : bool;
}

let create ?admission engine =
  Metrics.set_gauge g_sessions
    (float_of_int (1 + Atomic.fetch_and_add active_sessions 1));
  { engine;
    admission;
    id = Atomic.fetch_and_add next_session_id 1;
    prepared = Hashtbl.create 16;
    last_y = Hashtbl.create 16;
    next_handle = 1;
    closed = false }

let engine t = t.engine
let id t = t.id
let closed t = t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.reset t.prepared;
    Hashtbl.reset t.last_y;
    Metrics.set_gauge g_sessions
      (float_of_int (Atomic.fetch_and_add active_sessions (-1) - 1))
  end

let find_prepared t name = Hashtbl.find_opt t.prepared name

let prepared_names t =
  Hashtbl.fold (fun name p acc -> (name, p) :: acc) t.prepared []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- operations ---- *)

let op_hello t j =
  Wire.check_fields ~op:"hello" [ "op" ] j;
  Obj
    [ ("ok", Bool true);
      ("op", Str "hello");
      ("protocol_version", Num (float_of_int Wire.protocol_version));
      ("server", Str "gusdb");
      ("session", Num (float_of_int t.id)) ]

let op_register t j =
  Wire.check_fields ~op:"register"
    [ "op"; "name"; "source"; "scale"; "seed"; "part_skew"; "price_skew";
      "dir"; "path" ]
    j;
  let name = Wire.req_str j "name" in
  let entry =
    Engine.register t.engine ~name ~source:(Wire.source_of_request j)
  in
  let relations =
    List.map
      (fun rel ->
        Obj
          [ ("name", Str rel);
            ( "rows",
              Num
                (float_of_int
                   (Relation.cardinality (Database.find entry.Catalog.db rel)))
            ) ])
      (Database.names entry.Catalog.db)
  in
  Obj
    [ ("ok", Bool true);
      ("op", Str "register");
      ("dataset", Str entry.Catalog.dataset);
      ("version", Num (float_of_int entry.Catalog.version));
      ("source", Str (Catalog.source_to_string entry.Catalog.source));
      ("relations", List relations) ]

let op_prepare t j =
  Wire.check_fields ~op:"prepare" [ "op"; "dataset"; "sql"; "name" ] j;
  let dataset = Wire.req_str j "dataset" in
  let sql = Wire.req_str j "sql" in
  let p = Prepared.prepare (Engine.catalog t.engine) ~dataset sql in
  let handle =
    match Wire.opt_str j "name" with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "q%d" t.next_handle in
        t.next_handle <- t.next_handle + 1;
        n
  in
  Hashtbl.replace t.prepared handle p;
  Hashtbl.remove t.last_y handle;
  let report = (Prepared.handle p).Runner.pr_lint in
  (* The prepare-time static analysis (class, predicted cost, variance
     bound) rides along so clients can triage a prepared query before
     ever executing it. *)
  obj
    [ ("ok", Some (Bool true));
      ("op", Some (Str "prepare"));
      ("handle", Some (Str handle));
      ("dataset", Some (Str dataset));
      ("version", Some (Num (float_of_int (Prepared.version p))));
      ( "relations",
        Some
          (List
             (List.map
                (fun r -> Str r)
                (Splan.relations (Prepared.handle p).Runner.pr_plan))) );
      ("analyzable", Some (Bool (report.Lint.analysis <> None)));
      ("severity", Some (Str (Workload_lint.severity_label report)));
      ("analysis", Option.map Workload_lint.analysis_json report.Lint.analysis);
      ( "diagnostics",
        Some (List (List.map Wire.diagnostic_json report.Lint.diagnostics)) ) ]

let exec_item_fields = [ "handle"; "seed"; "rates"; "explain"; "exact" ]

let exec_item ?(extra = []) ~op j =
  Wire.check_fields ~op (extra @ exec_item_fields) j;
  let handle = Wire.req_str j "handle" in
  let rates =
    match member "rates" j with
    | None -> []
    | Some (Obj fields) ->
        List.map
          (fun (rel, v) ->
            match to_num v with
            | Some rate -> (rel, rate)
            | None ->
                raise
                  (Wire.Bad_request
                     (Printf.sprintf "rate for %S: expected number" rel)))
          fields
    | Some _ -> raise (Wire.Bad_request "field \"rates\": expected object")
  in
  ( handle,
    { Prepared.seed = Wire.opt_int j "seed" ~default:42;
      rates;
      explain = Wire.opt_bool j "explain" ~default:false;
      exact = Wire.opt_bool j "exact" ~default:false } )

(* The Section-8 degradation for one item under a Shed decision: pick
   budgeted rates for the plan's sampled relations, journal the
   decision, and return the overridden [ov].  Explicit client rates are
   never second-guessed, and a plan that samples nothing (exact plan)
   cannot shed. *)
let shed_item t ~decision ~handle p (ov : Prepared.overrides) =
  match decision with
  | Admission.Admit -> (ov, None)
  | Admission.Shed _ when ov.Prepared.rates <> [] -> (ov, None)
  | Admission.Shed overload -> (
      let entry =
        Catalog.find_exn (Engine.catalog t.engine) (Prepared.dataset p)
      in
      let card rel = Relation.cardinality (Database.find entry.Catalog.db rel) in
      let plan = (Prepared.handle p).Runner.pr_plan in
      let current = Prepared.sampling_rates ~card plan in
      let rates =
        Admission.shed_rates ~overload ~card ~current
          ?y:(Hashtbl.find_opt t.last_y handle)
          ()
      in
      match rates with
      | [] -> (ov, None)
      | rates ->
          Metrics.incr m_shed_exec;
          (match Engine.journal t.engine with
          | None -> ()
          | Some j ->
              let sql = Prepared.sql p in
              Journal.record j
                (Journal.Shed
                   { shed_id = Journal.next_id j;
                     shed_dataset = Prepared.dataset p;
                     shed_sql_hash = Journal.sql_hash sql;
                     shed_overload = overload;
                     shed_rates = rates }));
          ({ ov with Prepared.rates }, Some (rates, overload)))

(* Ŷ is indexed over the report's design — the plan's live relations —
   so keep those relations with it. *)
let note_y t ~handle (o : Engine.outcome) =
  match o.Engine.response.Runner.rs_report with
  | Some r ->
      Hashtbl.replace t.last_y handle
        ( Array.to_list r.Gus_estimator.Sbox.gus.Gus_core.Gus.rels,
          r.Gus_estimator.Sbox.y_hat )
  | None -> ()

let op_execute t ~decision j =
  let handle, ov = exec_item ~extra:[ "op" ] ~op:"execute" j in
  match find_prepared t handle with
  | None -> raise (Engine.Unknown_handle handle)
  | Some p ->
      let ov, shed = shed_item t ~decision ~handle p ov in
      let o = Engine.execute_prepared t.engine ~label:handle p ov in
      note_y t ~handle o;
      Wire.response_json ?shed ~handle o

let op_batch t ~decision j =
  Wire.check_fields ~op:"batch" [ "op"; "items" ] j;
  let items =
    match Option.bind (member "items" j) to_list with
    | Some items -> items
    | None -> raise (Wire.Bad_request "missing list field \"items\"")
  in
  let parsed =
    List.map
      (fun item ->
        try Ok (exec_item ~op:"execute" item)
        with e -> (
          match Wire.error_of_exn e with
          | Some (code, message) ->
              Error (Wire.error_json ~op:"execute" code message)
          | None -> raise e))
      items
  in
  let jobs =
    Array.of_list
      (List.filter_map
         (function
           | Ok (handle, ov) -> (
               match find_prepared t handle with
               | None -> Some (handle, None, ov, None)
               | Some p ->
                   let ov, shed = shed_item t ~decision ~handle p ov in
                   Some (handle, Some p, ov, shed))
           | Error _ -> None)
         parsed)
  in
  let outcomes =
    Engine.batch_prepared t.engine
      (Array.map (fun (handle, p, ov, _) -> (handle, p, ov)) jobs)
  in
  let cursor = ref 0 in
  let results =
    List.map
      (function
        | Error ej -> ej
        | Ok _ -> (
            let handle, _, _, shed = jobs.(!cursor) in
            let r = outcomes.(!cursor) in
            incr cursor;
            match r with
            | Ok outcome ->
                note_y t ~handle outcome;
                Wire.response_json ?shed ~handle outcome
            | Error e -> (
                match Wire.error_of_exn e with
                | Some (code, message) ->
                    Wire.error_json ~op:"execute" code message
                | None -> raise e)))
      parsed
  in
  Obj [ ("ok", Bool true); ("op", Str "batch"); ("results", List results) ]

let op_stats_json t =
  let catalog =
    List.map
      (fun (e : Catalog.entry) ->
        Obj
          [ ("dataset", Str e.dataset);
            ("version", Num (float_of_int e.version));
            ("source", Str (Catalog.source_to_string e.source)) ])
      (Catalog.names (Engine.catalog t.engine))
  in
  let prepared =
    List.map
      (fun (name, p) ->
        Obj
          [ ("handle", Str name);
            ("dataset", Str (Prepared.dataset p));
            ("version", Num (float_of_int (Prepared.version p)));
            ("sql", Str (Prepared.sql p)) ])
      (prepared_names t)
  in
  let requests =
    Obj
      [ ("register", Num (float_of_int (Metrics.counter_value m_req_register)));
        ("prepare", Num (float_of_int (Metrics.counter_value m_req_prepare)));
        ("execute", Num (float_of_int (Metrics.counter_value m_req_execute)));
        ("batch", Num (float_of_int (Metrics.counter_value m_req_batch)));
        ("hello", Num (float_of_int (Metrics.counter_value m_req_hello)));
        ("stats", Num (float_of_int (Metrics.counter_value m_req_stats)));
        ("invalid", Num (float_of_int (Metrics.counter_value m_req_invalid))) ]
  in
  let latency =
    if Metrics.histogram_count m_latency = 0 then None
    else
      Some
        (Obj
           [ ("p50", Num (Metrics.quantile m_latency 0.50));
             ("p90", Num (Metrics.quantile m_latency 0.90));
             ("p99", Num (Metrics.quantile m_latency 0.99)) ])
  in
  let journal =
    Option.map
      (fun j ->
        Obj
          [ ("length", Num (float_of_int (Journal.length j)));
            ("capacity", Num (float_of_int (Journal.capacity j)));
            ("dropped", Num (float_of_int (Journal.dropped j))) ])
      (Engine.journal t.engine)
  in
  let admission =
    Option.map
      (fun a ->
        obj
          [ ("inflight", Some (Num (float_of_int (Admission.inflight a))));
            ( "max_inflight",
              Some (Num (float_of_int (Admission.max_inflight a))) );
            ("overload", Some (Num (Admission.overload a)));
            ("p99_ms", Option.map (fun p -> Num p) (Admission.p99_ms a)) ])
      t.admission
  in
  obj
    [ ("ok", Some (Bool true));
      ("op", Some (Str "stats"));
      ("protocol_version", Some (Num (float_of_int Wire.protocol_version)));
      ("session", Some (Num (float_of_int t.id)));
      ("uptime_s", Some (Num (float_of_int (Engine.uptime_ns t.engine) /. 1e9)));
      ("pool_lanes", Some (Num (float_of_int (Engine.pool_size t.engine))));
      ("catalog", Some (List catalog));
      ("prepared", Some (List prepared));
      ( "cache",
        Some
          (Obj
             [ ("length", Num (float_of_int (Engine.cache_length t.engine)));
               ("capacity", Num (float_of_int (Engine.cache_capacity t.engine)))
             ]) );
      ("requests", Some requests);
      ("latency_us", latency);
      ("journal", journal);
      ("admission", admission);
      ("metrics", Some (Json.of_string (Metrics.snapshot ()))) ]

let op_stats t j =
  Wire.check_fields ~op:"stats" [ "op"; "format" ] j;
  match Wire.opt_str j "format" with
  | Some "prometheus" ->
      (* The exposition is text with newlines; the NDJSON framing can't
         carry it raw, so it rides as one JSON string.  `gusdb serve
         --prom-out FILE` writes the same text unframed. *)
      Obj
        [ ("ok", Bool true);
          ("op", Str "stats");
          ("format", Str "prometheus");
          ("body", Str (Gus_obs.Promexp.render ())) ]
  | Some other when other <> "json" ->
      raise (Wire.Bad_request (Printf.sprintf "unknown stats format %S" other))
  | _ -> op_stats_json t

let dispatch t ~decision j =
  let op = Option.bind (member "op" j) to_str in
  Metrics.incr
    (match op with
    | Some "register" -> m_req_register
    | Some "prepare" -> m_req_prepare
    | Some "execute" -> m_req_execute
    | Some "batch" -> m_req_batch
    | Some "hello" -> m_req_hello
    | Some "stats" -> m_req_stats
    | Some _ | None -> m_req_invalid);
  Wire.protect ~op @@ fun () ->
  if t.closed then raise Wire.Session_closed;
  match op with
  | Some "hello" -> op_hello t j
  | Some "register" -> op_register t j
  | Some "prepare" -> op_prepare t j
  | Some "execute" -> op_execute t ~decision j
  | Some "batch" -> op_batch t ~decision j
  | Some "stats" -> op_stats t j
  | Some other -> raise (Wire.Bad_request (Printf.sprintf "unknown op %S" other))
  | None -> raise (Wire.Bad_request "missing string field \"op\"")

let handle_request ?(decision = Admission.Admit) t j =
  if Metrics.enabled () then begin
    let t0 = Gus_obs.Trace.now_ns () in
    let r = dispatch t ~decision j in
    Metrics.observe m_latency (float_of_int (Gus_obs.Trace.now_ns () - t0) /. 1e3);
    r
  end
  else dispatch t ~decision j

let handle_decided t ~decision line =
  if String.trim line = "" then None
  else
    let response =
      match Json.of_string line with
      | j -> handle_request ~decision t j
      | exception Json.Parse_error msg ->
          Metrics.incr m_req_invalid;
          Wire.error_json "bad_json" msg
    in
    Some (Json.to_string response)

let handle t line =
  match t.admission with
  | None -> handle_decided t ~decision:Admission.Admit line
  | Some a ->
      if String.trim line = "" then None
      else (
        match Admission.enter a with
        | Error msg -> Some (Json.to_string (Wire.error_json "overloaded" msg))
        | Ok (ticket, decision) ->
            Fun.protect
              ~finally:(fun () -> Admission.leave a ticket)
              (fun () -> handle_decided t ~decision line))

let run ?(after = fun () -> ()) t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match handle t line with
        | None -> ()
        | Some response ->
            output_string oc response;
            output_char oc '\n';
            flush oc;
            after ());
        loop ()
  in
  loop ()
