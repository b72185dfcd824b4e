(* Flags and plumbing shared by the gusdb subcommands (query, plan, lint,
   experiments, serve).  One definition per flag so the surfaces cannot
   drift: --pool-size/GUSDB_DOMAINS, --seed, --json, --trace-out,
   --metrics-out all mean the same thing everywhere they appear. *)

open Cmdliner
module Json = Gus_service.Json

let scale_arg =
  let doc = "Scale factor of the generated database (1.0 = 15k orders)." in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let seed_arg =
  let doc = "Random seed (data generation and sampling are deterministic)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let data_arg =
  let doc = "Load relations from $(docv) instead of generating data in \
             memory: a directory of CSVs (written by `gusdb gen`) or a \
             binary snapshot file (written by `gusdb snapshot`)." in
  Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON (results on success, a structured \
             error object on failure) instead of the text rendering." in
  Arg.(value & flag & info [ "json" ] ~doc)

let pool_size_arg =
  let doc = "Number of worker domains for pool-parallel execution \
             (overrides $(b,GUSDB_DOMAINS); 1 disables parallelism)." in
  Arg.(value & opt (some int) None & info [ "pool-size" ] ~docv:"N" ~doc)

let apply_pool_size = function
  | None -> ()
  | Some n when n >= 1 -> Gus_util.Pool.set_default_size n
  | Some n ->
      Printf.eprintf "gusdb: invalid --pool-size %d\n" n;
      exit 1

(* The TPC-H generation seed is fixed — `query -s 0.3` and a serve-side
   `register {"scale": 0.3}` must mean the same database. *)
let generation_seed = 20130630

(* Either load data previously written by `gen` (a CSV directory) or
   `snapshot` (a single binary file), or generate in memory. *)
let db_source ~scale data =
  let source =
    match data with
    | None -> Gus_service.Catalog.Tpch { scale; seed = generation_seed }
    | Some path when Sys.file_exists path && not (Sys.is_directory path) ->
        Gus_service.Catalog.Snapshot path
    | Some dir -> Gus_service.Catalog.Csv_dir dir
  in
  Gus_service.Catalog.build source

(* ---- observability flags (query, experiments, serve) ---- *)

let trace_out_arg =
  let doc = "Record an execution trace and write it to $(docv) as Chrome \
             trace_event JSON (load in chrome://tracing or Perfetto)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Collect runtime metrics (per-operator row counts, sampler \
             draws, pool lane utilization, probe lengths, ...) and write a \
             JSON snapshot to $(docv) ($(b,-) for stdout)." in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let write_file path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  end

(* Enable collection before [f], export after.  Collection stays off when
   neither output is requested, so the instrumented hot paths keep their
   single-flag-check disabled cost. *)
let with_obs ~trace_out ~metrics_out f =
  if trace_out <> None then Gus_obs.Trace.set_enabled true;
  if metrics_out <> None then Gus_obs.Metrics.set_enabled true;
  let finish () =
    (match trace_out with
    | Some path ->
        Gus_obs.Trace.set_enabled false;
        write_file path (Gus_obs.Trace.export_json ());
        Gus_obs.Trace.clear ()
    | None -> ());
    match metrics_out with
    | Some path ->
        Gus_obs.Metrics.set_enabled false;
        write_file path (Gus_obs.Metrics.snapshot ())
    | None -> ()
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ---- failure reporting ---- *)

(* The historical one-line stderr renderings, per error code. *)
let human_message code message =
  match code with
  | "unsupported_plan" -> "unsupported plan: " ^ message
  | "type_error" -> "type error: " ^ message
  | _ -> message

(* Report user-facing failures as one-line diagnostics + exit 1 instead of
   uncaught-exception backtraces; under --json additionally print the
   protocol's structured error object on stdout. *)
let or_fail ?(json = false) f =
  try f ()
  with e -> (
    match Gus_service.Wire.error_of_exn e with
    | None -> raise e
    | Some (code, message) ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ("ok", Json.Bool false);
                    ( "error",
                      Json.Obj
                        [ ("code", Json.Str code);
                          ("message", Json.Str message) ] ) ]));
        Printf.eprintf "gusdb: %s\n" (human_message code message);
        exit 1)
