module Subset = Gus_util.Subset
module Gus = Gus_core.Gus
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Interval = Gus_stats.Interval
open Gus_relational

let src = Logs.Src.create "gus.sbox" ~doc:"GUS statistical estimator"

module Log = (val Logs.src_log src : Logs.LOG)

type report = {
  gus : Gus.t;
  n_tuples : int;
  total_f : float;
  estimate : float;
  y_hat : float array;
  variance : float;
  variance_raw : float;
  stddev : float;
}

let y_hat_of_moments ~gus y_raw =
  let n = Gus.n_rels gus in
  let nmasks = Subset.count n in
  if Array.length y_raw <> nmasks then
    invalid_arg "Sbox.y_hat_of_moments: moment array length mismatch";
  let y_hat = Array.make nmasks 0.0 in
  (* Masks in decreasing cardinality order so every Ŷ_{S∪T} we reference is
     already solved. *)
  let masks = Array.init nmasks (fun i -> i) in
  Array.sort (fun s t -> compare (Subset.cardinal t) (Subset.cardinal s)) masks;
  Array.iter
    (fun s ->
      let d = Gus.d_correction gus ~s in
      let d_ss = d.(Subset.empty) in
      if Float.abs d_ss < 1e-300 then begin
        Log.warn (fun m ->
            m "pair probability b_%s = 0: y_%s is not estimable, using 0"
              (Gus.subset_name gus s) (Gus.subset_name gus s));
        y_hat.(s) <- 0.0
      end
      else begin
        let correction = ref 0.0 in
        let comp = Subset.complement n s in
        Subset.iter_subsets comp (fun t ->
            if t <> Subset.empty then
              correction := !correction +. (d.(t) *. y_hat.(Subset.union s t)));
        y_hat.(s) <- (y_raw.(s) -. !correction) /. d_ss
      end)
    masks;
  y_hat

let report ~gus ~n_tuples ~total_f y_raw =
  let y_hat = y_hat_of_moments ~gus y_raw in
  let estimate = Gus.scale_up gus total_f in
  let variance_raw = Gus.variance gus ~y:y_hat in
  let variance = Float.max 0.0 variance_raw in
  { gus;
    n_tuples;
    total_f;
    estimate;
    y_hat;
    variance;
    variance_raw;
    stddev = sqrt variance }

let lineage_mismatch gus lschema =
  invalid_arg
    (Printf.sprintf
       "Sbox: GUS lineage [%s] is neither the relation lineage [%s] nor a \
        projection of it"
       (String.concat "," (Array.to_list gus.Gus.rels))
       (String.concat "," (Array.to_list lschema)))

(* Where [gus]'s relations sit in a lineage schema, as the moments
   kernel's [(view, lineage_width)]: [gus] spans the schema itself
   (identity view) or its live-relation projection — the live relations
   in schema order, the dropped ones carrying no sampling randomness. *)
let kernel_view gus lschema =
  let rels = gus.Gus.rels in
  let k = Array.length rels in
  let view = Array.make k 0 in
  let j = ref 0 in
  Array.iteri
    (fun i r ->
      if !j < k && String.equal rels.(!j) r then begin
        view.(!j) <- i;
        incr j
      end)
    lschema;
  if !j < k then lineage_mismatch gus lschema;
  let width = Array.length lschema in
  ((if k = width then None else Some view), width)

let of_pairs ~gus pairs =
  let y_raw = Moments.of_pairs ~n_rels:(Gus.n_rels gus) pairs in
  report ~gus ~n_tuples:(Array.length pairs) ~total_f:(Moments.total pairs)
    y_raw

let check_schema gus rel =
  let lschema = rel.Relation.lineage_schema in
  if gus.Gus.rels <> lschema then lineage_mismatch gus lschema

let of_relation ~gus ~f rel =
  let view, lineage_width = kernel_view gus rel.Relation.lineage_schema in
  let pairs = Moments.pairs_of_relation ~f rel in
  let y_raw =
    Moments.of_pairs ?view ~lineage_width ~n_rels:(Gus.n_rels gus) pairs
  in
  report ~gus ~n_tuples:(Array.length pairs) ~total_f:(Moments.total pairs)
    y_raw

let report_of_acc ?pool ~gus acc =
  if Moments.Acc.n_rels acc <> Gus.n_rels gus then
    invalid_arg "Sbox.report_of_acc: accumulator arity does not match GUS";
  let y_raw = Moments.Acc.finalize ?pool acc in
  report ~gus ~n_tuples:(Moments.Acc.count acc)
    ~total_f:(Moments.Acc.total acc) y_raw

let of_plan ?pool ~gus ~f db rng plan =
  Gus_obs.Trace.span "sbox.of_plan" @@ fun () ->
  let view, lineage_width = kernel_view gus (Splan.lineage_schema plan) in
  let n = Gus.n_rels gus in
  let init schema =
    let eval = Expr.bind_float schema f in
    (Moments.Acc.create ?view ~lineage_width ~n_rels:n (), eval)
  in
  let feed (acc, eval) tup =
    Moments.Acc.add acc tup.Tuple.lineage (eval tup);
    (acc, eval)
  in
  let acc, _ =
    match pool with
    | Some _ ->
        Splan.fold_stream_par ?pool db rng plan ~init ~f:feed
          ~merge:(fun (a, e) (b, _) ->
            Moments.Acc.merge a b;
            (a, e))
    | None -> Splan.fold_stream db rng plan ~init ~f:feed
  in
  Gus_obs.Trace.span "sbox.report_of_acc"
    ~args:(fun () ->
      [ ("tuples", string_of_int (Moments.Acc.count acc)) ])
    (fun () -> report_of_acc ?pool ~gus acc)

let interval ?(coverage = 0.95) method_ report =
  Interval.make ~method_ ~coverage ~estimate:report.estimate ~stddev:report.stddev

let quantile report q =
  Interval.quantile_bound ~estimate:report.estimate ~stddev:report.stddev q

let subsampled ~gus ~f ~target ~seed rel =
  check_schema gus rel;
  let rels = gus.Gus.rels in
  let n = Array.length rels in
  let current = Relation.cardinality rel in
  let rate = Gus_sampling.Subsample.plan_rates ~target ~current ~ndims:n in
  let dims =
    Array.to_list
      (Array.mapi
         (fun i r ->
           { Gus_sampling.Subsample.relation = r; seed = seed + (1000003 * i); p = rate })
         rels)
  in
  let sub = Gus_sampling.Subsample.apply dims rel in
  (* Prop 9: the subsampler is the composition of per-relation Bernoullis;
     Prop 8: it stacks onto the plan's GUS. *)
  let g_sub =
    Array.fold_left
      (fun acc r ->
        let g = Gus.bernoulli ~rel:r rate in
        match acc with None -> Some g | Some a -> Some (Gus.join a g))
      None rels
  in
  let g_stacked =
    match g_sub with None -> gus | Some g -> Gus.compact g gus
  in
  let y_raw_sub = Moments.of_relation ~f sub in
  let y_hat = y_hat_of_moments ~gus:g_stacked y_raw_sub in
  (* Estimate from the *full* sample; only the moments come from the
     subsample. *)
  let pairs = Moments.pairs_of_relation ~f rel in
  let total_f = Moments.total pairs in
  let estimate = Gus.scale_up gus total_f in
  let variance_raw = Gus.variance gus ~y:y_hat in
  let variance = Float.max 0.0 variance_raw in
  { gus;
    n_tuples = Relation.cardinality sub;
    total_f;
    estimate;
    y_hat;
    variance;
    variance_raw;
    stddev = sqrt variance }

let stream ?(seed = 42) ?pool db plan ~f =
  let rng = Gus_util.Rng.create seed in
  let analysis =
    Gus_obs.Trace.span "sbox.analyze" (fun () -> Rewrite.analyze_db db plan)
  in
  let gus = Lazy.force analysis.Rewrite.live in
  (of_plan ?pool ~gus ~f db rng plan, analysis)

let covariance ~gus ~f ~g rel =
  let view, lineage_width = kernel_view gus rel.Relation.lineage_schema in
  let y_raw =
    Moments.bilinear_of_pairs ?view ~lineage_width ~n_rels:(Gus.n_rels gus)
      (Moments.triples_of_relation ~f ~g rel)
  in
  (* The Ŷ correction is linear in the moments, so it applies verbatim to
     the bilinear ones. *)
  let y_hat = y_hat_of_moments ~gus y_raw in
  Gus.variance gus ~y:y_hat

type ratio_report = {
  ratio_estimate : float;
  ratio_variance : float;
  ratio_stddev : float;
  numerator : report;
  denominator : report;
}

let ratio ~gus ~f ~g rel =
  let numerator = of_relation ~gus ~f rel in
  let denominator = of_relation ~gus ~f:g rel in
  if denominator.estimate = 0.0 then
    invalid_arg "Sbox.ratio: denominator estimate is zero";
  let r = numerator.estimate /. denominator.estimate in
  let cov = covariance ~gus ~f ~g rel in
  let mu_g2 = denominator.estimate *. denominator.estimate in
  let v =
    (numerator.variance_raw -. (2.0 *. r *. cov)
    +. (r *. r *. denominator.variance_raw))
    /. mu_g2
  in
  let ratio_variance = Float.max 0.0 v in
  { ratio_estimate = r;
    ratio_variance;
    ratio_stddev = sqrt ratio_variance;
    numerator;
    denominator }

let avg ~gus ~f rel = ratio ~gus ~f ~g:(Expr.float 1.0) rel

type multi_report = {
  labels : string array;
  reports : report array;
  cov : float array array;
}

let multi ~gus ~fs rel =
  ignore (kernel_view gus rel.Relation.lineage_schema);
  let labels = Array.of_list (List.map fst fs) in
  let exprs = Array.of_list (List.map snd fs) in
  let k = Array.length exprs in
  let reports = Array.map (fun f -> of_relation ~gus ~f rel) exprs in
  let cov = Array.make_matrix k k 0.0 in
  for i = 0 to k - 1 do
    cov.(i).(i) <- reports.(i).variance_raw;
    for j = i + 1 to k - 1 do
      let c = covariance ~gus ~f:exprs.(i) ~g:exprs.(j) rel in
      cov.(i).(j) <- c;
      cov.(j).(i) <- c
    done
  done;
  { labels; reports; cov }

let linear_combination m w =
  let k = Array.length m.reports in
  if Array.length w <> k then
    invalid_arg "Sbox.linear_combination: weight vector length mismatch";
  let estimate = ref 0.0 in
  Array.iteri (fun i wi -> estimate := !estimate +. (wi *. m.reports.(i).estimate)) w;
  let variance = ref 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      variance := !variance +. (w.(i) *. w.(j) *. m.cov.(i).(j))
    done
  done;
  (!estimate, sqrt (Float.max 0.0 !variance))

let exact db plan ~f =
  let rel = Splan.exec_exact db plan in
  let eval = Expr.bind_float rel.Relation.schema f in
  Relation.fold (fun acc tup -> acc +. eval tup) 0.0 rel
