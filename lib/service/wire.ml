(* The wire layer of the serving protocol: stable error codes, the
   request-field accessors, and the JSON renderings of responses.

   This is the transport- and session-independent bottom of the stack:
   Session (dispatch, per-connection state) and the transports
   (Session.run's stdin/stdout loop, Server's TCP accept loop) both sit on
   top of it, and the CLI's --json error rendering (Cli_common) shares
   error_of_exn so one failure maps to one code everywhere. *)

module Runner = Gus_sql.Runner
open Gus_relational
open Json

(* Bumped only on a breaking wire change; [hello] and [stats] report it
   so clients can refuse a server they do not understand. *)
let protocol_version = 1

exception Bad_request of string

exception Overloaded of string
(** Admission control refused the request outright (hard in-flight cap
    or session limit) — distinct from shedding, which degrades rates but
    still answers. *)

exception Session_closed

exception Unknown_handle of string

(* ---- the stable error-code registry (DESIGN.md section 13) ---- *)

type emitter = Protocol_error | Cli_error

let error_codes : (string * emitter * string) list =
  [ ("bad_json", Protocol_error, "request line is not valid JSON");
    ( "bad_request",
      Protocol_error,
      "malformed request: unknown op, unknown field, missing or \
       ill-typed field, invalid argument" );
    ("parse_error", Protocol_error, "SQL text failed to lex or parse");
    ("plan_error", Protocol_error, "query could not be planned");
    ( "unsupported_plan",
      Protocol_error,
      "sampling plan rejected by the SOA-soundness linter" );
    ("type_error", Protocol_error, "expression type error at execution");
    ("unknown_column", Protocol_error, "column not in any relation's schema");
    ("unknown_relation", Protocol_error, "relation not in the dataset");
    ("unknown_dataset", Protocol_error, "dataset name never registered");
    ("unknown_handle", Protocol_error, "prepared handle not in this session");
    ("snapshot_corrupt", Protocol_error, "binary snapshot failed validation");
    ( "snapshot_version",
      Protocol_error,
      "binary snapshot written by an incompatible format version" );
    ("io_error", Protocol_error, "file or socket system error");
    ( "overloaded",
      Protocol_error,
      "admission control refused the request (in-flight or session cap)" );
    ("session_closed", Protocol_error, "request on a closed session");
    ( "corrupt_journal",
      Cli_error,
      "gusdb replay: journal line failed to parse or misses fields" ) ]

let error_of_exn = function
  | Gus_sql.Parser.Error msg -> Some ("parse_error", msg)
  | Gus_sql.Lexer.Error { message; _ } ->
      Some ("parse_error", "lexical error: " ^ message)
  | Gus_sql.Planner.Error msg -> Some ("plan_error", msg)
  | Gus_analysis.Rewrite.Unsupported msg -> Some ("unsupported_plan", msg)
  | Value.Type_error msg -> Some ("type_error", msg)
  | Schema.Unknown_column c -> Some ("unknown_column", "unknown column " ^ c)
  | Expr.Bind_error msg -> Some ("unknown_column", msg)
  | Database.Unknown_relation r ->
      Some ("unknown_relation", "unknown relation " ^ r)
  | Catalog.Unknown_dataset d -> Some ("unknown_dataset", "unknown dataset " ^ d)
  | Snapshot.Format_error msg -> Some ("snapshot_corrupt", msg)
  | Snapshot.Version_mismatch { found; expected } ->
      Some
        ( "snapshot_version",
          Printf.sprintf "snapshot format version %d (this build reads %d)"
            found expected )
  | Unknown_handle h -> Some ("unknown_handle", "unknown handle " ^ h)
  | Overloaded msg -> Some ("overloaded", msg)
  | Session_closed -> Some ("session_closed", "session is closed")
  | Bad_request msg -> Some ("bad_request", msg)
  | Json.Parse_error msg -> Some ("bad_json", msg)
  | Invalid_argument msg -> Some ("bad_request", msg)
  | Sys_error msg | Failure msg -> Some ("io_error", msg)
  | _ -> None

let error_json ?op code message =
  obj
    [ ("ok", Some (Bool false));
      ("op", Option.map (fun o -> Str o) op);
      ( "error",
        Some (Obj [ ("code", Str code); ("message", Str message) ]) ) ]

let protect ~op f =
  try f ()
  with e -> (
    match error_of_exn e with
    | Some (code, message) -> error_json ?op code message
    | None -> raise e)

(* ---- request-field accessors ---- *)

let req_str j field =
  match Option.bind (member field j) to_str with
  | Some s -> s
  | None -> raise (Bad_request (Printf.sprintf "missing string field %S" field))

let opt_str j field = Option.bind (member field j) to_str

let opt_num j field ~default =
  match member field j with
  | None -> default
  | Some v -> (
      match to_num v with
      | Some n -> n
      | None -> raise (Bad_request (Printf.sprintf "field %S: expected number" field)))

let opt_int j field ~default =
  match member field j with
  | None -> default
  | Some v -> (
      match to_int v with
      | Some n -> n
      | None ->
          raise (Bad_request (Printf.sprintf "field %S: expected integer" field)))

let opt_bool j field ~default =
  match member field j with
  | None -> default
  | Some v -> (
      match to_bool v with
      | Some b -> b
      | None -> raise (Bad_request (Printf.sprintf "field %S: expected bool" field)))

(* Unknown fields are structured errors, not silent no-ops: a client that
   misspells "seed" as "sede" gets told instead of a default-seeded
   answer.  [check_fields] is total on non-objects (dispatch rejects
   those with its own message). *)
let check_fields ~op allowed j =
  match j with
  | Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k allowed) then
            raise
              (Bad_request
                 (Printf.sprintf "unknown field %S for op %S" k op)))
        fields
  | _ -> ()

(* ---- response pieces ---- *)

let interval_json (iv : Gus_stats.Interval.t) =
  Obj [ ("lo", Num iv.lo); ("hi", Num iv.hi) ]

let cell_json (c : Runner.cell) =
  Obj
    [ ("label", Str c.label);
      ("estimate", Num c.value);
      ("stddev", Num c.stddev);
      ("ci95_normal", interval_json c.ci95_normal);
      ("ci95_chebyshev", interval_json c.ci95_chebyshev) ]

let result_json (r : Runner.result) =
  obj
    [ ("cells", Some (List (List.map cell_json r.cells)));
      ( "groups",
        if r.groups = [] then None
        else
          Some
            (List
               (List.map
                  (fun (g : Runner.group_row) ->
                    Obj
                      [ ("keys", List (List.map (fun k -> Str k) g.keys));
                        ("cells", List (List.map cell_json g.group_cells)) ])
                  r.groups)) );
      ("n_sample_tuples", Some (Num (float_of_int r.n_sample_tuples))) ]

let exact_json rs =
  let pair (label, v) = Obj [ ("label", Str label); ("value", Num v) ] in
  match
    (rs.Runner.rs_exact, rs.Runner.rs_exact_groups)
  with
  | [], [] -> None
  | cells, [] -> Some (List (List.map pair cells))
  | _, groups ->
      Some
        (List
           (List.map
              (fun (keys, cells) ->
                Obj
                  [ ("keys", List (List.map (fun k -> Str k) keys));
                    ("cells", List (List.map pair cells)) ])
              groups))

let diagnostic_json = Workload_lint.diagnostic_json

let rates_json rates =
  Obj (List.map (fun (rel, r) -> (rel, Num r)) rates)

(* [shed] rides only on degraded responses, so un-shed traffic keeps the
   exact pre-admission response shape. *)
let response_json ?shed ~handle (o : Engine.outcome) =
  let rs = o.Engine.response in
  obj
    [ ("ok", Some (Bool true));
      ("op", Some (Str "execute"));
      ("handle", Some (Str handle));
      ("cached", Some (Bool o.Engine.cached));
      ("shed", Option.map (fun _ -> Bool true) shed);
      ( "shed_rates",
        Option.map (fun (rates, _) -> rates_json rates) shed );
      ("overload", Option.map (fun (_, factor) -> Num factor) shed);
      ("wall_us", Some (Num (float_of_int (o.Engine.wall_ns / 1000))));
      ("result", Some (result_json rs.Runner.rs_result));
      ("exact", exact_json rs);
      ( "explain",
        Option.map
          (fun (ex : Runner.explain) ->
            obj
              [ ("total_ns", Some (Num (float_of_int ex.ex_total_ns)));
                ( "variance_raw",
                  Option.map (fun v -> Num v) ex.ex_variance_raw ) ])
          rs.Runner.rs_explain ) ]

(* ---- the register source spec ---- *)

let source_of_request j =
  match opt_str j "source" with
  | None | Some "tpch" ->
      Catalog.Tpch
        { scale = opt_num j "scale" ~default:1.0;
          (* the CLI's fixed data-generation seed, so `register` defaults
             to exactly the database `gusdb query -s SCALE` uses *)
          seed = opt_int j "seed" ~default:20130630 }
  | Some "synthetic" ->
      Catalog.Skewed
        { scale = opt_num j "scale" ~default:1.0;
          seed = opt_int j "seed" ~default:20130630;
          part_skew =
            opt_num j "part_skew"
              ~default:Gus_tpch.Tpch.default_config.part_skew;
          price_skew =
            opt_num j "price_skew"
              ~default:Gus_tpch.Tpch.default_config.price_skew }
  | Some "csv" -> Catalog.Csv_dir (req_str j "dir")
  | Some "snapshot" -> Catalog.Snapshot (req_str j "path")
  | Some other -> raise (Bad_request (Printf.sprintf "unknown source %S" other))
