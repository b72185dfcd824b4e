(* In-process half of the serving benchmark (run.py is the other half).

     replay.exe reference SCRIPT
       Answer the script's [verify] requests on a fresh Engine — no
       Session, no JSON rendering — and print one line per execute: every
       cell's group keys, label, estimate and stddev, the floats as %h
       hex so run.py can check the server's answers bit for bit.

     replay.exe trace SCRIPT SPANS
       Replay the script's setup, timed and verify requests in process
       and print the per-layer metrics as one JSON object.  Writes the
       timed requests' spans to SPANS as Chrome trace events.

   SCRIPT is {"setup": [[conn, line], ...], "warm": [...], "timed": [...],
   "verify": [...]}: the request lines run.py sends the server, in
   order, tagged with the connection (= session) that sends them; "warm"
   brings the replay to the steady state of the timed phase (a full
   cache, say) and is measured by nothing.

   The spans sit in this file, around calls into the layers, not inside
   the library, so the trace replays the sequence on independent stacks
   that are in the same state before each request:

   - the count pass: one Session per connection over one engine, alone
     in the process; its [stats] verb, diffed around the timed portion,
     gives the per-request counts.
   - the lockstep pass, request by request: [Session.handle] untraced
     (the baseline of trace.overhead_pct); [Json.of_string] ->
     [Session.handle_request] -> [Json.to_string] traced; the same
     request through [Engine.register] / [Prepared.prepare] /
     [Engine.execute_prepared] on a third engine; and, when that execute
     missed the cache, [Prepared.execute] of the same handle.  Session
     self time is handle_request minus the engine-level call. *)

open Gus_service
module Metrics = Gus_obs.Metrics
module Runner = Gus_sql.Runner

let now = Gus_obs.Trace.now_ns

type step = { conn : int; line : string; req : Json.t }

let load_script path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Json.of_string text in
  let section name =
    match Option.bind (Json.member name doc) Json.to_list with
    | None -> failwith ("script: missing list " ^ name)
    | Some steps ->
        Array.of_list
          (List.map
             (function
               | Json.List [ Json.Num c; Json.Str line ] ->
                   { conn = int_of_float c; line; req = Json.of_string line }
               | _ -> failwith "script: expected [conn, line]")
             steps)
  in
  (section "setup", section "warm", section "timed", section "verify")

let op s = Wire.opt_str s.req "op"

(* ---- the engine-level interpreter: what Session does, minus Session ---- *)

type direct = {
  engine : Engine.t;
  handles : (int * string, Prepared.t) Hashtbl.t;
      (* (connection, handle): handles are session-scoped *)
}

let direct () = { engine = Engine.create (); handles = Hashtbl.create 16 }

type call =
  | Register
  | Prepare
  | Execute of { p : Prepared.t; ov : Prepared.overrides; outcome : Engine.outcome }
  | Other

let call d s =
  let str key = Wire.req_str s.req key in
  match op s with
  | Some "register" ->
      ignore
        (Engine.register d.engine ~name:(str "name")
           ~source:(Wire.source_of_request s.req));
      Register
  | Some "prepare" ->
      let p =
        Prepared.prepare (Engine.catalog d.engine) ~dataset:(str "dataset")
          (str "sql")
      in
      Hashtbl.replace d.handles (s.conn, str "name") p;
      Prepare
  | Some "execute" ->
      let handle = str "handle" in
      let p = Hashtbl.find d.handles (s.conn, handle) in
      let ov =
        { Prepared.default_overrides with
          seed = Wire.opt_int s.req "seed" ~default:42 }
      in
      Execute { p; ov; outcome = Engine.execute_prepared d.engine ~label:handle p ov }
  | _ -> Other

(* ---- reference ---- *)

let cells_json (r : Runner.result) =
  let cell keys (c : Runner.cell) =
    Json.List
      [ Json.Str keys;
        Json.Str c.label;
        Json.Str (Printf.sprintf "%h" c.value);
        Json.Str (Printf.sprintf "%h" c.stddev) ]
  in
  Json.List
    (List.map (cell "") r.cells
    @ List.concat_map
        (fun (g : Runner.group_row) ->
          List.map (cell (String.concat "|" g.keys)) g.group_cells)
        r.groups)

let reference path =
  let setup, _, _, verify = load_script path in
  let d = direct () in
  Array.iter (fun s -> if op s <> Some "execute" then ignore (call d s)) setup;
  Array.iter
    (fun s ->
      match call d s with
      | Execute { outcome; _ } ->
          print_endline
            (Json.to_string (cells_json outcome.Engine.response.Runner.rs_result))
      | Register | Prepare | Other -> ())
    verify

(* ---- trace ---- *)

(* Words allocated so far by this domain.  Gc.counters' minor count is
   only brought up to date at minor collections, Gc.minor_words is exact;
   major − promoted is what went straight to the major heap. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One request through the lockstep stacks: times in ns, allocations in
   words. *)
type sample = {
  untraced : int;  (* Session.handle, stack 0 *)
  start : int;
  parse : int;
  disp : int;  (* Session.handle_request *)
  render : int;
  core_start : int;
  core : int;  (* the engine-level call *)
  exec_start : int;
  exec : int;  (* Prepared.execute, misses only; 0 otherwise *)
  kind : [ `Register | `Prepare | `Hit | `Miss of bool (* GROUP BY *) | `Other ];
  bytes : int;
  a_json : float;
  a_session : float;
  a_core : float;
  a_exec : float;
}

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let us ns = float_of_int ns /. 1e3

let counters session =
  let stats =
    Json.of_string
      (Option.get (Session.handle session {|{"op":"stats"}|}))
  in
  match
    Option.bind
      (Option.bind (Json.member "metrics" stats) (Json.member "counters"))
      Json.to_obj
  with
  | Some fields ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_num v))
        fields
  | None -> failwith "stats: no metrics.counters"

let sessions conns =
  let engine = Engine.create () in
  Array.init conns (fun _ -> Session.create engine)

(* The counts: the [stats] verb's counters diffed around the timed
   portion, alone in the process so that no other stack bumps them. *)
let count_pass setup timed conns =
  let ss = sessions conns in
  let run s = ignore (Session.handle ss.(s.conn) s.line) in
  Array.iter run setup;  (* setup @ warm *)
  let before = counters ss.(0) in
  Array.iter run timed;
  let after = counters ss.(0) in
  fun name ->
    let get l = Option.value (List.assoc_opt name l) ~default:0. in
    get after -. get before

let is_group_by p =
  let sql = String.uppercase_ascii (Prepared.sql p) in
  let rec has i =
    i + 8 <= String.length sql && (String.sub sql i 8 = "GROUP BY" || has (i + 1))
  in
  has 0

(* The times: four stacks, request by request, so that a slow spell of
   the host hits all of them alike. *)
let lockstep_pass conns steps =
  let plain = sessions conns in
  let traced = sessions conns in
  let d = direct () in
  (* Gc.counters allocates its result; measured once, subtracted below. *)
  let alloc_cost =
    let a0 = alloc_words () in
    let a1 = alloc_words () in
    a1 -. a0
  in
  let untraced_call s =
    let u0 = now () in
    ignore (Session.handle plain.(s.conn) s.line);
    now () - u0
  in
  (* Whichever stack runs first finds the CPU caches colder; alternating
     keeps that out of trace.overhead_pct. *)
  let one i s =
    let untraced = if i mod 2 = 0 then untraced_call s else 0 in
    let a0 = alloc_words () in
    let t0 = now () in
    let j = Json.of_string s.line in
    let t1 = now () in
    let a1 = alloc_words () in
    let resp = Session.handle_request traced.(s.conn) j in
    let t2 = now () in
    let a2 = alloc_words () in
    let text = Json.to_string resp in
    let t3 = now () in
    let a3 = alloc_words () in
    let c0 = now () in
    let r = call d s in
    let c1 = now () in
    let a4 = alloc_words () in
    let kind, exec_start, exec, a_exec =
      match r with
      | Register -> (`Register, c1, 0, 0.)
      | Prepare -> (`Prepare, c1, 0, 0.)
      | Other -> (`Other, c1, 0, 0.)
      | Execute { outcome = { Engine.cached = true; _ }; _ } -> (`Hit, c1, 0, 0.)
      | Execute { p; ov; _ } ->
          let b0 = alloc_words () in
          let e0 = now () in
          ignore (Prepared.execute (Engine.catalog d.engine) p ov);
          let e1 = now () in
          let b1 = alloc_words () in
          (`Miss (is_group_by p), e0, e1 - e0, b1 -. b0 -. alloc_cost)
    in
    let a_core = a4 -. a3 -. alloc_cost in
    let untraced = if i mod 2 = 1 then untraced_call s else untraced in
    { untraced;
      start = t0;
      parse = t1 - t0;
      disp = t2 - t1;
      render = t3 - t2;
      core_start = c0;
      core = c1 - c0;
      exec_start;
      exec;
      kind;
      bytes = String.length text;
      a_json = a1 -. a0 +. (a3 -. a2) -. (2. *. alloc_cost);
      a_session = a2 -. a1 -. alloc_cost -. a_core;
      a_core;
      a_exec }
  in
  Array.mapi one steps

let write_spans path timed =
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let origin = match timed with s :: _ -> s.start | [] -> 0 in
  let ev ~req ~name ~parent ~start ~dur =
    if not !first then output_char oc ',';
    first := false;
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%S}}"
      name (us (start - origin)) (us dur) req parent
  in
  List.iteri
    (fun req s ->
      let t1 = s.start + s.parse in
      let t2 = t1 + s.disp in
      let end_ = if s.exec > 0 then s.exec_start + s.exec else s.core_start + s.core in
      ev ~req ~name:"request" ~parent:"" ~start:s.start ~dur:(end_ - s.start);
      ev ~req ~name:"json.parse" ~parent:"request" ~start:s.start ~dur:s.parse;
      ev ~req ~name:"session" ~parent:"request" ~start:t1 ~dur:s.disp;
      ev ~req ~name:"json.render" ~parent:"request" ~start:t2 ~dur:s.render;
      ev ~req ~name:"engine" ~parent:"session" ~start:s.core_start ~dur:s.core;
      if s.exec > 0 then
        ev ~req ~name:"exec" ~parent:"engine" ~start:s.exec_start ~dur:s.exec)
    timed;
  output_string oc "\n]}\n";
  close_out oc

let trace path spans_path =
  let setup, warm, timed, verify = load_script path in
  let setup = Array.append setup warm in
  let conns =
    1 + Array.fold_left (fun m s -> max m s.conn) 0 (Array.concat [ setup; timed; verify ])
  in
  let delta = count_pass setup timed conns in
  (* run.py sends every verify request twice: a miss, then a hit *)
  let twice = Array.concat (List.map (fun s -> [| s; s |]) (Array.to_list verify)) in
  let all = Array.to_list (lockstep_pass conns (Array.concat [ setup; timed; twice ])) in
  let timed_s =
    List.filteri
      (fun i _ -> i >= Array.length setup && i < Array.length setup + Array.length timed)
      all
  in
  write_spans spans_path timed_s;
  let n = float_of_int (List.length timed_s) in
  let per_req name = delta name /. n in
  let hits = delta "cache.hits" and misses = delta "cache.misses" in
  let pick f = List.filter_map f all in
  let timed_us f = List.map (fun s -> us (f s)) timed_s in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 timed_s in
  let metrics =
    [ ("json.parse_us", median (timed_us (fun s -> s.parse)));
      ("json.render_us", median (timed_us (fun s -> s.render)));
      ("json.response_bytes", mean (List.map (fun s -> float_of_int s.bytes) timed_s));
      ("json.alloc_kw", mean (List.map (fun s -> s.a_json /. 1e3) timed_s));
      (* Over cache hits only: on a miss the difference of two plan runs
         on two stacks would swamp the session's few microseconds. *)
      ( "session.self_us",
        median (pick (fun s -> if s.kind = `Hit then Some (us (s.disp - s.core)) else None)) );
      ("session.alloc_kw", mean (List.map (fun s -> s.a_session /. 1e3) timed_s));
      ( "engine.hit_us",
        median (pick (fun s -> if s.kind = `Hit then Some (us s.core) else None)) );
      ( "cache.hit_ratio",
        if hits +. misses = 0. then 0. else hits /. (hits +. misses) );
      ("cache.evictions_per_req", per_req "cache.evictions");
      ( "prepare.us",
        median (pick (fun s -> if s.kind = `Prepare then Some (us s.core) else None)) );
      ("prepare.lint_runs_per_req", per_req "analysis.lint.runs");
      ("prepare.repreparations_per_req", per_req "service.repreparations");
      ( "prepare.alloc_kw",
        mean (pick (fun s -> if s.kind = `Prepare then Some (s.a_core /. 1e3) else None)) );
      ( "catalog.register_ms",
        median
          (pick (fun s ->
               if s.kind = `Register then Some (float_of_int s.core /. 1e6) else None)) );
      ( "exec.us",
        median (pick (fun s -> match s.kind with `Miss _ -> Some (us s.exec) | _ -> None)) );
      ( "exec.groupby_us",
        median (pick (fun s -> if s.kind = `Miss true then Some (us s.exec) else None)) );
      ("sampler.rows_in_per_req", per_req "sampler.rows_in");
      ("ops.equi_join.rows_in_per_req", per_req "ops.equi_join.rows_in");
      ("splan.stream.rows_per_req", per_req "splan.stream.rows");
      ( "exec.alloc_kw",
        mean (pick (fun s -> match s.kind with `Miss _ -> Some (s.a_exec /. 1e3) | _ -> None)) );
      ("moments.acc.tuples_per_req", per_req "moments.acc.tuples");
      ( "trace.overhead_pct",
        100.
        *. ((float_of_int (total (fun s -> s.parse + s.disp + s.render))
             /. float_of_int (total (fun s -> s.untraced)))
           -. 1.) );
      (* input of run.py's trace.remainder_us, not a metric itself: the
         engine-level call (cache probe, plus the plan run on a miss) *)
      ("_timed_core_p50_us", median (timed_us (fun s -> s.core))) ]
  in
  print_endline (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics)))

let () =
  (* serve mode always collects metrics; the same code paths run here *)
  Metrics.set_enabled true;
  match Array.to_list Sys.argv with
  | [ _; "reference"; script ] -> reference script
  | [ _; "trace"; script; spans ] -> trace script spans
  | _ ->
      prerr_endline "usage: replay.exe (reference SCRIPT | trace SCRIPT SPANS)";
      exit 2
