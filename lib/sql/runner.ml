open Gus_relational
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Interval = Gus_stats.Interval

type cell = {
  label : string;
  value : float;
  stddev : float;
  ci95_normal : Interval.t;
  ci95_chebyshev : Interval.t;
}

type group_row = {
  keys : string list;
  group_cells : cell list;
}

type result = {
  cells : cell list;
  groups : group_row list;
  n_sample_tuples : int;
  gus : Gus_core.Gus.t;
  plan : Splan.t;
}

let label_of item =
  match item.Ast.alias with Some a -> a | None -> Ast.agg_label item.Ast.agg

let one = Expr.float 1.0

let cell_of_report ~label ?quantile (estimate, stddev) =
  let safe_interval method_ =
    Interval.make ~method_ ~coverage:0.95 ~estimate ~stddev
  in
  let value =
    match quantile with
    | None -> estimate
    | Some q -> Interval.quantile_bound ~estimate ~stddev q
  in
  { label;
    value;
    stddev;
    ci95_normal = safe_interval Interval.Normal;
    ci95_chebyshev = safe_interval Interval.Chebyshev }

(* Besides the cell, return the Sbox report backing it (None for AVG,
   whose ratio report has no Theorem-1 decomposition) so callers can
   surface variance provenance without a second moments pass. *)
let eval_item_report ~gus sample item =
  let label = label_of item in
  let rec go ?quantile agg =
    match agg with
    | Ast.Sum e ->
        let r = Sbox.of_relation ~gus ~f:e sample in
        (cell_of_report ~label ?quantile (r.Sbox.estimate, r.Sbox.stddev), Some r)
    | Ast.Count_star ->
        let r = Sbox.of_relation ~gus ~f:one sample in
        (cell_of_report ~label ?quantile (r.Sbox.estimate, r.Sbox.stddev), Some r)
    | Ast.Count e ->
        (* COUNT(e) counts non-null rows: e*0 + 1 is 1 when e is a number
           and Null (→ 0 under SUM) when e is Null. *)
        let indicator = Expr.(Bin (Add, Bin (Mul, e, Expr.float 0.0), Expr.float 1.0)) in
        let r = Sbox.of_relation ~gus ~f:indicator sample in
        (cell_of_report ~label ?quantile (r.Sbox.estimate, r.Sbox.stddev), Some r)
    | Ast.Avg e ->
        let r = Sbox.avg ~gus ~f:e sample in
        ( cell_of_report ~label ?quantile
            (r.Sbox.ratio_estimate, r.Sbox.ratio_stddev),
          None )
    | Ast.Quantile (inner, q) -> go ~quantile:q inner
  in
  go item.Ast.agg

let eval_item ~gus sample item = fst (eval_item_report ~gus sample item)

(* Partition a relation into per-group sub-relations by rendered key
   values, preserving first-seen group order. *)
let partition_groups keys rel =
  let evals = List.map (Expr.bind rel.Relation.schema) keys in
  let groups : (string list, Relation.t) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  Relation.iter
    (fun tup ->
      let k = List.map (fun ev -> Value.to_display (ev tup)) evals in
      let sub =
        match Hashtbl.find_opt groups k with
        | Some r -> r
        | None ->
            let r =
              Relation.derived ~name:"group" rel.Relation.schema
                rel.Relation.lineage_schema
            in
            Hashtbl.add groups k r;
            order := k :: !order;
            r
      in
      Relation.append_tuple sub tup)
    rel;
  List.rev_map (fun k -> (k, Hashtbl.find groups k)) !order

(* The plan's live design.  Executions of one prepared plan may run on
   several domains at once (a pooled batch), and forcing one lazy value
   concurrently raises [Lazy.Undefined]: the force is serialized. *)
let force_lock = Mutex.create ()

let live_design (a : Gus_analysis.Lint.analysis) =
  Mutex.protect force_lock (fun () -> Lazy.force a.Gus_analysis.Lint.live)

(* ---- the materializing evaluation core --------------------------------- *)

(* Execute the plan and evaluate every SELECT item over the materialized
   sample.  [gus] is the plan's live-relation design, computed by the
   caller (prepare-time artifact: it depends only on the plan and base
   cardinalities, never on tuple data). *)
let eval_query ~gus ~seed db query plan =
  let rng = Gus_util.Rng.create seed in
  let sample = Splan.exec db rng plan in
  let cells, groups, report =
    match query.Ast.group_by with
    | [] ->
        let pairs =
          List.map (eval_item_report ~gus sample) query.Ast.items
        in
        let report = match pairs with (_, r) :: _ -> r | [] -> None in
        (List.map fst pairs, [], report)
    | keys ->
        let per_group =
          List.map
            (fun (k, sub) ->
              { keys = k;
                group_cells = List.map (eval_item ~gus sub) query.Ast.items })
            (partition_groups keys sample)
        in
        ([], per_group, None)
  in
  ( { cells; groups; n_sample_tuples = Relation.cardinality sample; gus; plan },
    report )

(* ---- the streaming evaluation core ------------------------------------- *)

(* Innermost QUANTILE bound, mirroring [eval_item]'s unwrapping. *)
let rec item_quantile ?q = function
  | Ast.Quantile (inner, q) -> item_quantile ~q inner
  | _ -> q

let streamable_item item =
  let rec go = function
    | Ast.Sum _ | Ast.Count_star | Ast.Count _ -> true
    | Ast.Quantile (inner, _) -> go inner
    | Ast.Avg _ -> false
  in
  go item.Ast.agg

let rec agg_expr = function
  | Ast.Sum e -> e
  | Ast.Count_star -> one
  | Ast.Count e -> Expr.(Bin (Add, Bin (Mul, e, Expr.float 0.0), Expr.float 1.0))
  | Ast.Avg e -> e
  | Ast.Quantile (inner, _) -> agg_expr inner

(* Fold the plan's result tuples straight into the SBox via
   [Splan.fold_stream] (through {!Sbox.of_plan}), never materializing the
   sampled relation.  Only single-aggregate SUM/COUNT queries without
   GROUP BY qualify; [None] means "fall back to the materializing core".
   Same seed ⇒ bit-identical estimate / n_sample_tuples to [eval_query]
   (the moment sums — hence stddev — can differ in final bits from
   reduction order; see Sbox.of_plan). *)
let stream_result ?pool ~gus ~seed db query plan =
  match query.Ast.items with
  | [ item ] when query.Ast.group_by = [] && streamable_item item ->
      let rng = Gus_util.Rng.create seed in
      let f = agg_expr item.Ast.agg in
      let r = Sbox.of_plan ?pool ~gus ~f db rng plan in
      let cell =
        cell_of_report ~label:(label_of item)
          ?quantile:(item_quantile item.Ast.agg)
          (r.Sbox.estimate, r.Sbox.stddev)
      in
      Some
        ( { cells = [ cell ];
            groups = [];
            n_sample_tuples = r.Sbox.n_tuples;
            gus;
            plan },
          r )
  | _ -> None

(* ---- EXPLAIN ANALYZE ----------------------------------------------- *)

type node_annot = {
  an_path : int list;
  an_wall_ns : int;
  an_rows_in : int;
  an_rows_out : int;
  an_sample : (float * float) option;
      (* (a, b_pair) of the sampler's own GUS, Sample nodes only *)
  an_var_contrib : float option;
      (* (c_S/a^2)*y_S for the subtree's relation subset S *)
}

type explain = {
  ex_result : result;
  ex_nodes : node_annot list;
  ex_variance_raw : float option;
  ex_total_ns : int;
  ex_report : Sbox.report option;
}

(* Theorem 1 says Var = sum_S (c_S/a^2) y_S - y_0 over the report's
   design; this is the term of a plan subtree's relation subset S.  A
   relation the live projection dropped makes every coefficient touching
   it an exact zero, so such a subtree's term is 0.0.  [c] is the
   report's coefficient table. *)
let subtree_term (r : Sbox.report) ~c plan path =
  match Splan.subtree plan path with
  | None -> None
  | Some sub -> (
      try
        let gus = r.Sbox.gus in
        let rels = gus.Gus_core.Gus.rels in
        let mask = ref 0 and dropped = ref false in
        Array.iter
          (fun rel ->
            let rec idx i =
              if i >= Array.length rels then dropped := true
              else if String.equal rels.(i) rel then mask := !mask lor (1 lsl i)
              else idx (i + 1)
            in
            idx 0)
          (Splan.lineage_schema sub);
        let a2 = gus.Gus_core.Gus.a *. gus.Gus_core.Gus.a in
        Some
          (if !dropped then 0.0 else c.(!mask) /. a2 *. r.Sbox.y_hat.(!mask))
      with Gus_relational.Lineage.Overlap _ -> None)

let explain_of ~(analysis : Gus_analysis.Lint.analysis) ~seed db query plan =
  let gus = live_design analysis in
  let rng = Gus_util.Rng.create seed in
  let sample, profiles = Splan.exec_profiled db rng plan in
  let cells, groups =
    match query.Ast.group_by with
    | [] -> (List.map (eval_item ~gus sample) query.Ast.items, [])
    | keys ->
        let per_group =
          List.map
            (fun (k, sub) ->
              { keys = k;
                group_cells = List.map (eval_item ~gus sub) query.Ast.items })
            (partition_groups keys sample)
        in
        ([], per_group)
  in
  let result =
    { cells; groups; n_sample_tuples = Relation.cardinality sample; gus; plan }
  in
  (* The sampler annotations come straight from the prepare-time analysis:
     the linter already ran the Figure-1 translation of every sampling
     node and recorded it per path, so EXPLAIN never re-lints. *)
  let sampler_gus path =
    List.assoc_opt path analysis.Gus_analysis.Lint.sampler_gus
  in
  (* Variance decomposition of the first aggregate: each sampling node is
     annotated with the Theorem-1 term of its subtree's relation subset
     (the -y_0 belongs to the empty subset, which no Sample node owns). *)
  let report =
    match query.Ast.items with
    | [] -> None
    | item :: _ -> (
        try Some (Sbox.of_relation ~gus ~f:(agg_expr item.Ast.agg) sample)
        with _ -> None)
  in
  let contrib_of =
    match report with
    | None -> fun _ -> None
    | Some r ->
        let c = Gus_core.Gus.c_coefficients gus in
        fun path -> subtree_term r ~c plan path
  in
  let nodes =
    List.map
      (fun np ->
        let is_sample =
          match Splan.subtree plan np.Splan.np_path with
          | Some (Splan.Sample _) -> true
          | _ -> false
        in
        { an_path = np.Splan.np_path;
          an_wall_ns = np.Splan.np_wall_ns;
          an_rows_in = np.Splan.np_rows_in;
          an_rows_out = np.Splan.np_rows_out;
          an_sample =
            (if is_sample then
               Option.map
                 (fun g ->
                   (g.Gus_core.Symalg.a, Gus_core.Symalg.b_get g 0))
                 (sampler_gus np.Splan.np_path)
             else None);
          an_var_contrib =
            (if is_sample then contrib_of np.Splan.np_path else None) })
      profiles
  in
  let total_ns =
    match List.find_opt (fun np -> np.Splan.np_path = []) profiles with
    | Some np -> np.Splan.np_wall_ns
    | None -> 0
  in
  { ex_result = result;
    ex_nodes = nodes;
    ex_variance_raw = Option.map (fun r -> r.Sbox.variance_raw) report;
    ex_total_ns = total_ns;
    ex_report = report }

let exact_values query exact_rel =
  let eval_f f =
    let ev = Expr.bind_float exact_rel.Relation.schema f in
    Relation.fold (fun acc tup -> acc +. ev tup) 0.0 exact_rel
  in
  let rec value = function
    | Ast.Sum e -> eval_f e
    | Ast.Count_star -> float_of_int (Relation.cardinality exact_rel)
    | Ast.Count e ->
        eval_f Expr.(Bin (Add, Bin (Mul, e, Expr.float 0.0), Expr.float 1.0))
    | Ast.Avg e ->
        let n = Relation.cardinality exact_rel in
        if n = 0 then 0.0 else eval_f e /. float_of_int n
    | Ast.Quantile (inner, _) -> value inner
  in
  List.map (fun item -> (label_of item, value item.Ast.agg)) query.Ast.items

let run_exact db sql =
  let query = Parser.parse sql in
  let { Planner.plan; _ } = Planner.compile db query in
  let exact_rel = Splan.exec_exact db plan in
  exact_values query exact_rel

let run_exact_groups db sql =
  let query = Parser.parse sql in
  let { Planner.plan; _ } = Planner.compile db query in
  let exact_rel = Splan.exec_exact db plan in
  List.map
    (fun (k, sub) -> (k, exact_values query sub))
    (partition_groups query.Ast.group_by exact_rel)

(* ---- the typed request/response API ------------------------------------ *)

type params = {
  seed : int;
  explain : bool;
  exact : bool;
  streaming : bool;
  pool : Gus_util.Pool.t option;
}

let default_params =
  { seed = 42; explain = false; exact = false; streaming = false; pool = None }

type request = {
  sql : string;
  lint_config : Gus_analysis.Lint.config;
  params : params;
}

let request ?(seed = 42) ?(explain = false) ?(exact = false)
    ?(streaming = false) ?pool
    ?(lint_config = Gus_analysis.Lint.default_config) sql =
  { sql; lint_config; params = { seed; explain; exact; streaming; pool } }

type prepared = {
  pr_sql : string;
  pr_query : Ast.query;
  pr_plan : Splan.t;
  pr_lint : Gus_analysis.Lint.report;
}

let prepare ?lint_config db sql =
  let query = Parser.parse sql in
  (* Self-joins are let through the planner so the linter reports them as
     GUS001 alongside everything else, instead of a planner fast-fail. *)
  let { Planner.plan; _ } = Planner.compile ~self_join_check:false db query in
  let report = Gus_analysis.Lint.run_db ?config:lint_config db plan in
  { pr_sql = sql; pr_query = query; pr_plan = plan; pr_lint = report }

let prepared_errors p = Gus_analysis.Lint.errors p.pr_lint

type response = {
  rs_result : result;
  rs_explain : explain option;
  rs_lint : Gus_analysis.Lint.report;
  rs_exact : (string * float) list;
  rs_exact_groups : (string list * (string * float) list) list;
  rs_streamed : bool;
  rs_report : Sbox.report option;
}

let execute db (p : prepared) (params : params) =
  let query = p.pr_query and plan = p.pr_plan in
  (* Reject before executing: a plan outside the GUS theory fails with
     every diagnostic code at once, before any sampling work runs.  All
     static facts (the live design, per-sampler translations) come from
     the prepare-time analysis — execution never re-lints. *)
  let analysis =
    match p.pr_lint.Gus_analysis.Lint.analysis with
    | Some a -> a
    | None -> raise (Rewrite.Unsupported (Rewrite.render_errors (prepared_errors p)))
  in
  let gus = live_design analysis in
  let ex, result, report, streamed =
    if params.explain then
      let ex = explain_of ~analysis ~seed:params.seed db query plan in
      (Some ex, ex.ex_result, ex.ex_report, false)
    else
      match
        (if params.streaming then
           stream_result ?pool:params.pool ~gus ~seed:params.seed db query plan
         else None)
      with
      | Some (r, rep) -> (None, r, Some rep, true)
      | None ->
          let r, rep = eval_query ~gus ~seed:params.seed db query plan in
          (None, r, rep, false)
  in
  let exact_cells, exact_groups =
    if not params.exact then ([], [])
    else
      let exact_rel = Splan.exec_exact db plan in
      match query.Ast.group_by with
      | [] -> (exact_values query exact_rel, [])
      | keys ->
          ( [],
            List.map
              (fun (k, sub) -> (k, exact_values query sub))
              (partition_groups keys exact_rel) )
  in
  { rs_result = result;
    rs_explain = ex;
    rs_lint = p.pr_lint;
    rs_exact = exact_cells;
    rs_exact_groups = exact_groups;
    rs_streamed = streamed;
    rs_report = report }

(* The plan node with the largest Theorem-1 variance share for this
   response's first aggregate: walk every Sample node, take its subtree's
   term (as --explain-analyze does) and the largest [(c_S/a²)·ŷ_S] as a
   fraction of the raw variance.  Best-effort: [None] when no report was
   captured (AVG, GROUP BY), or past 16 live relations where the
   coefficient table stops being cheap. *)
let top_variance_share (rs : response) =
  match rs.rs_report with
  | None -> None
  | Some r -> (
      let gus = r.Sbox.gus in
      let plan = rs.rs_result.plan in
      let nrels = Array.length gus.Gus_core.Gus.rels in
      if nrels = 0 || nrels > 16 then None
      else
        try
          let c = Gus_core.Gus.c_coefficients gus in
          let best = ref None in
          let rec walk path node =
            (match node with
            | Splan.Sample _ -> (
                match subtree_term r ~c plan path with
                | Some contrib ->
                    let better =
                      match !best with
                      | Some (_, _, b) -> contrib > b
                      | None -> true
                    in
                    if better then
                      best := Some (path, Splan.node_label node, contrib)
                | None -> ())
            | _ -> ());
            List.iteri
              (fun i child -> walk (path @ [ i ]) child)
              (Splan.children node)
          in
          walk [] plan;
          match !best with
          | None -> None
          | Some (path, label, contrib) ->
              let total = r.Sbox.variance_raw in
              let share =
                if total > 0. && Float.is_finite total then contrib /. total
                else 0.
              in
              Some (path, label, share)
        with _ -> None)

let run_request db (rq : request) =
  execute db (prepare ~lint_config:rq.lint_config db rq.sql) rq.params

let pp_cell ppf c =
  Format.fprintf ppf
    "%s = %.6g (sd %.4g)@,  95%% normal    %a@,  95%% chebyshev %a@," c.label
    c.value c.stddev Interval.pp c.ci95_normal Interval.pp c.ci95_chebyshev

let pp_result ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "sample tuples: %d@," r.n_sample_tuples;
  List.iter (pp_cell ppf) r.cells;
  List.iter
    (fun g ->
      Format.fprintf ppf "group [%s]:@," (String.concat ", " g.keys);
      List.iter (pp_cell ppf) g.group_cells)
    r.groups;
  Format.fprintf ppf "@]"

let dur_string ns =
  if ns >= 100_000_000 then Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 100_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)

let pp_explain ppf ex =
  let annot path _ =
    match List.find_opt (fun n -> n.an_path = path) ex.ex_nodes with
    | None -> ""
    | Some n ->
        let buf = Buffer.create 64 in
        Buffer.add_string buf
          (Printf.sprintf "  [wall %s, in %d, out %d" (dur_string n.an_wall_ns)
             n.an_rows_in n.an_rows_out);
        (match n.an_sample with
        | Some (a, b0) ->
            Buffer.add_string buf (Printf.sprintf ", a=%.6g, b0=%.6g" a b0)
        | None -> ());
        (match n.an_var_contrib with
        | Some v -> Buffer.add_string buf (Printf.sprintf ", var_share=%.4g" v)
        | None -> ());
        Buffer.add_char buf ']';
        Buffer.contents buf
  in
  Format.fprintf ppf "@[<v>";
  Gus_obs.Planfmt.pp ~label:Splan.node_label ~children:Splan.children ~annot
    ppf ex.ex_result.plan;
  Format.fprintf ppf "total wall: %s@," (dur_string ex.ex_total_ns);
  (match ex.ex_variance_raw with
  | Some v ->
      Format.fprintf ppf "estimator variance (first aggregate): %.6g@," v
  | None -> ());
  pp_result ppf ex.ex_result;
  Format.fprintf ppf "@]"
