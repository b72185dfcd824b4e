open Gus_relational
module Vec = Gus_util.Vec
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

(* COUNT(e) counts non-null rows: e*0 + 1 is 1 when e is a number and
   Null (→ 0 under SUM) when e is Null. *)
let indicator e = Expr.(Bin (Add, Bin (Mul, e, Expr.float 0.0), Expr.float 1.0))

(* The SUM-like value a SUM/COUNT/QUANTILE item estimates, and AVG's
   numerator. *)
let rec agg_expr = function
  | Ast.Sum e | Ast.Avg e -> e
  | Ast.Count_star -> one
  | Ast.Count e -> indicator e
  | Ast.Quantile (inner, _) -> agg_expr inner

(* How an item reads one kernel run: the SUM report of a value, or the
   ratio of two. *)
type slot = Sum_of of int | Ratio_of of int * int

(* The SUM-like values a query's items read, each once, in first-use
   order — AVG(e) reads e and 1 — and every item's slot into them. *)
let item_values items =
  let fs = Vec.create () in
  let index e =
    let rec find i =
      if i = Vec.length fs then (Vec.push fs e; i)
      else if Vec.get fs i = e then i
      else find (i + 1)
    in
    find 0
  in
  let rec slot = function
    | Ast.Avg e ->
        let num = index e in
        Ratio_of (num, index one)
    | Ast.Quantile (inner, _) -> slot inner
    | agg -> Sum_of (index (agg_expr agg))
  in
  let slots = List.map (fun item -> slot item.Ast.agg) items in
  (Vec.to_array fs, slots)

(* Innermost QUANTILE bound. *)
let rec item_quantile ?q = function
  | Ast.Quantile (inner, q) -> item_quantile ~q inner
  | _ -> q

let cell_of m item slot =
  let label = label_of item and quantile = item_quantile item.Ast.agg in
  match slot with
  | Sum_of i ->
      let r = Sbox.report_of m i in
      cell_of_report ~label ?quantile (r.Sbox.estimate, r.Sbox.stddev)
  | Ratio_of (i, j) ->
      let r = Sbox.ratio_of m i j in
      cell_of_report ~label ?quantile (r.Sbox.ratio_estimate, r.Sbox.ratio_stddev)

(* ---- GROUP BY ------------------------------------------------------------ *)

module Inttbl = Gus_util.Inttbl
module Hashing = Gus_util.Hashing

(* How one GROUP BY key reads a row.  A bare column holding int data —
   a TInt, a TBool or a TStr's dictionary code — is read raw: each
   distinct raw value gets a raw id in an [Inttbl] of representative rows
   and is rendered once, its display id kept in [display] by raw id.  Any
   other key, a float column included, is evaluated and rendered on every
   row. *)
type key_reader =
  | Raw of {
      col : Column.t;
      hash : int -> int;
      same : int -> int -> bool;
      seen : Inttbl.t;
      display : int Vec.t;
    }
  | Eval of (int -> Value.t)

let null_hash = 0x6e756c6c

let raw_reader col =
  let d = Column.int_data col and nulls = Column.has_nulls col in
  let null i = nulls && Column.is_null col i in
  let raw i = Bigarray.Array1.unsafe_get d i in
  Raw
    { col;
      hash = (fun i -> if null i then null_hash else Hashing.mix_int 0 (raw i));
      same = (fun a b -> if null a then null b else (not (null b)) && raw a = raw b);
      seen = Inttbl.create ~hint:8;
      display = Vec.create () }

let key_reader rel key =
  let int_col =
    match key with
    | Expr.Col name -> (
        match Schema.find_index rel.Relation.schema name with
        | Some j ->
            let col = rel.Relation.cols.Relation.ccols.(j) in
            if Column.ty col = Value.TFloat then None else Some col
        | None -> None)
    | _ -> None
  in
  match int_col with
  | Some col -> raw_reader col
  | None -> Eval (Relation.bind rel key)

(* Group a relation's rows by rendered key values, groups in first-seen
   key order, each group's row indices in input order.  Each key maps a
   row to the id of its rendered value, interned in first-seen order, so
   raw values that render alike (NULL and the string "NULL"; floats equal
   under [%g]) share an id and [-0.] and [0.] do not; the groups are then
   found on the rows' id tuples.  Rows and keys are read in row-major
   order, so an evaluated key raises where rendering every key did. *)
let partition_groups keys rel =
  let n = Relation.cardinality rel in
  let readers = Array.of_list (List.map (key_reader rel) keys) in
  let nk = Array.length readers in
  let names = Array.init nk (fun _ -> Vec.create ()) in
  let interned = Array.init nk (fun _ -> Hashtbl.create 16) in
  let intern q s =
    match Hashtbl.find_opt interned.(q) s with
    | Some id -> id
    | None ->
        let id = Vec.length names.(q) in
        Hashtbl.add interned.(q) s id;
        Vec.push names.(q) s;
        id
  in
  let ids = Array.make (max 1 (n * nk)) 0 in
  let group = Array.make (max 1 n) 0 in
  let firsts = Vec.create () in
  let same_ids a b =
    let q = ref 0 in
    while !q < nk && ids.((a * nk) + !q) = ids.((b * nk) + !q) do
      incr q
    done;
    !q = nk
  in
  let groups = Inttbl.create ~hint:8 in
  for i = 0 to n - 1 do
    let h = ref 0x9E3779B97F4A7C1 in
    for q = 0 to nk - 1 do
      let id =
        match readers.(q) with
        | Raw { hash; same; col; seen; display } ->
            let raw =
              Inttbl.find_or_add seen ~hash:(hash i) ~equal:same ~repr:i
                ~fresh:(Vec.length display)
            in
            if Inttbl.added seen then
              Vec.push display (intern q (Value.to_display (Column.get col i)));
            Vec.get display raw
        | Eval ev -> intern q (Value.to_display (ev i))
      in
      ids.((i * nk) + q) <- id;
      h := Hashing.mix_int !h id
    done;
    let g =
      Inttbl.find_or_add groups ~hash:!h ~equal:same_ids ~repr:i
        ~fresh:(Vec.length firsts)
    in
    if Inttbl.added groups then Vec.push firsts i;
    group.(i) <- g
  done;
  (* Each group's rows, in input order. *)
  let ngroups = Vec.length firsts in
  let sizes = Array.make ngroups 0 in
  for i = 0 to n - 1 do
    sizes.(group.(i)) <- sizes.(group.(i)) + 1
  done;
  let rows = Array.map (fun size -> Array.make size 0) sizes in
  Array.fill sizes 0 ngroups 0;
  for i = 0 to n - 1 do
    let g = group.(i) in
    rows.(g).(sizes.(g)) <- i;
    sizes.(g) <- sizes.(g) + 1
  done;
  List.init ngroups (fun g ->
      let r = Vec.get firsts g in
      (List.init nk (fun q -> Vec.get names.(q) ids.((r * nk) + q)), rows.(g)))

(* The plan's live design.  Executions of one prepared plan may run on
   several domains at once (a pooled batch), and forcing one lazy value
   concurrently raises [Lazy.Undefined]: the force is serialized. *)
let force_lock = Mutex.create ()

let live_design (a : Gus_analysis.Lint.analysis) =
  Mutex.protect force_lock (fun () -> Lazy.force a.Gus_analysis.Lint.live)

(* ---- the evaluation core ------------------------------------------------ *)

(* Evaluate every SELECT item over the sample: one kernel run over the
   whole sample, or one per group under GROUP BY.  [gus] is the plan's
   live-relation design (a prepare-time artifact).  Without GROUP BY the
   whole-sample run comes back too, with each item's slot into it. *)
let evaluate ~gus query sample =
  let items = query.Ast.items in
  let fs, slots = item_values items in
  match query.Ast.group_by with
  | [] ->
      let m = Sbox.moments ~gus ~fs sample in
      (List.map2 (cell_of m) items slots, [], Some (m, slots))
  | keys ->
      let group (k, rows) =
        let m = Sbox.moments ~gus ~fs ~rows sample in
        { keys = k; group_cells = List.map2 (cell_of m) items slots }
      in
      ([], List.map group (partition_groups keys sample), None)

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

let explain_of ~(analysis : Gus_analysis.Lint.analysis) ~gus query result
    sample whole profiles =
  let plan = result.plan in
  (* The sampler annotations come straight from the prepare-time analysis:
     the linter already ran the Figure-1 translation of every sampling
     node and recorded it per path, so EXPLAIN never re-lints. *)
  let sampler_gus path =
    List.assoc_opt path analysis.Gus_analysis.Lint.sampler_gus
  in
  (* Variance decomposition of the first aggregate: each sampling node is
     annotated with the Theorem-1 term of its subtree's relation subset
     (the -y_0 belongs to the empty subset, which no Sample node owns).
     Without GROUP BY the evaluation's kernel run already holds the first
     item's value (AVG's numerator); under GROUP BY it is run once more
     over the whole sample. *)
  let report =
    match (whole, query.Ast.items) with
    | Some (m, (Sum_of i | Ratio_of (i, _)) :: _), _ -> Some (Sbox.report_of m i)
    | None, item :: _ ->
        Some (Sbox.of_relation ~gus ~f:(agg_expr item.Ast.agg) sample)
    | _ -> None
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

(* Ground truth per SELECT item over the exact relation's rows: all of
   them, or one group's [rows]. *)
let exact_values ?rows query exact_rel =
  let rows =
    match rows with
    | Some r -> r
    | None -> Array.init (Relation.cardinality exact_rel) Fun.id
  in
  let eval_f f =
    let ev = Relation.bind_float exact_rel f in
    Array.fold_left (fun acc i -> acc +. ev i) 0.0 rows
  in
  let rec value = function
    | Ast.Sum e -> eval_f e
    | Ast.Count_star -> float_of_int (Array.length rows)
    | Ast.Count e -> eval_f (indicator e)
    | Ast.Avg e ->
        let n = Array.length rows in
        if n = 0 then 0.0 else eval_f e /. float_of_int n
    | Ast.Quantile (inner, _) -> value inner
  in
  List.map (fun item -> (label_of item, value item.Ast.agg)) query.Ast.items

let exact_groups keys query exact_rel =
  List.map
    (fun (k, rows) -> (k, exact_values ~rows query exact_rel))
    (partition_groups keys exact_rel)

(* The columns a statement's answer reads off its sample: the SELECT
   items' SUM-like values and the GROUP BY keys.  The plan walker adds
   the ones its predicates and join keys read. *)
let query_columns query =
  List.concat_map
    (fun item -> Expr.columns (agg_expr item.Ast.agg))
    query.Ast.items
  @ List.concat_map Expr.columns query.Ast.group_by

let run_exact db sql =
  let query = Parser.parse sql in
  let { Planner.plan; _ } = Planner.compile db query in
  exact_values query (Splan.exec_exact ~read:(query_columns query) db plan)

let run_exact_groups db sql =
  let query = Parser.parse sql in
  let { Planner.plan; _ } = Planner.compile db query in
  exact_groups query.Ast.group_by query
    (Splan.exec_exact ~read:(query_columns query) db plan)

(* ---- the typed request/response API ------------------------------------ *)

type params = {
  seed : int;
  explain : bool;
  exact : bool;
}

let default_params = { seed = 42; explain = false; exact = false }

type request = {
  sql : string;
  lint_config : Gus_analysis.Lint.config;
  params : params;
}

let request ?(seed = 42) ?(explain = false) ?(exact = false)
    ?(lint_config = Gus_analysis.Lint.default_config) sql =
  { sql; lint_config; params = { seed; explain; exact } }

type prepared = {
  pr_sql : string;
  pr_query : Ast.query;
  pr_plan : Splan.t;
  pr_lint : Gus_analysis.Lint.report;
  pr_read : string list;
}

let prepare ?lint_config db sql =
  let query = Parser.parse sql in
  (* Self-joins are let through the planner so the linter reports them as
     GUS001 alongside everything else, instead of a planner fast-fail. *)
  let { Planner.plan; _ } = Planner.compile ~self_join_check:false db query in
  let report = Gus_analysis.Lint.run_db ?config:lint_config db plan in
  { pr_sql = sql;
    pr_query = query;
    pr_plan = plan;
    pr_lint = report;
    pr_read = query_columns query }

let prepared_errors p = Gus_analysis.Lint.errors p.pr_lint

type response = {
  rs_result : result;
  rs_explain : explain option;
  rs_lint : Gus_analysis.Lint.report;
  rs_exact : (string * float) list;
  rs_exact_groups : (string list * (string * float) list) list;
  rs_report : Sbox.report option;
}

let execute db (p : prepared) (params : params) =
  let query = p.pr_query and plan = p.pr_plan and read = p.pr_read in
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
  let rng = Gus_util.Rng.create params.seed in
  let sample, profiles =
    if params.explain then
      let sample, profiles = Splan.exec_profiled ~read db rng plan in
      (sample, Some profiles)
    else (Splan.exec ~read db rng plan, None)
  in
  let cells, groups, whole = evaluate ~gus query sample in
  let result =
    { cells; groups; n_sample_tuples = Relation.cardinality sample; gus; plan }
  in
  let ex =
    Option.map (explain_of ~analysis ~gus query result sample whole) profiles
  in
  let report =
    match (ex, whole) with
    | Some ex, _ -> ex.ex_report
    | None, Some (m, Sum_of i :: _) -> Some (Sbox.report_of m i)
    | None, _ -> None
  in
  let exact_cells, exact_groups =
    if not params.exact then ([], [])
    else
      let exact_rel = Splan.exec_exact ~read db plan in
      match query.Ast.group_by with
      | [] -> (exact_values query exact_rel, [])
      | keys -> ([], exact_groups keys query exact_rel)
  in
  { rs_result = result;
    rs_explain = ex;
    rs_lint = p.pr_lint;
    rs_exact = exact_cells;
    rs_exact_groups = exact_groups;
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
