module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Interval = Gus_stats.Interval
module Sampler = Gus_sampling.Sampler

type round = {
  index : int;
  rate : float;
  report : Sbox.report;
  interval : Interval.t;
  rel_width : float;
  met : bool;
}

(* Attach a hash-Bernoulli sampler (fixed seed per relation) to every scan. *)
let rec sampled_plan ~seed ~rate = function
  | Splan.Scan name ->
      (* A stable per-relation seed: samples nest as the rate grows. *)
      let rel_seed =
        seed + (Int64.to_int (Gus_util.Hashing.hash_string ~seed name) land 0xfffff)
      in
      Splan.Sample (Sampler.Hash_bernoulli { seed = rel_seed; p = rate }, Splan.Scan name)
  | Splan.Select (p, q) -> Splan.Select (p, sampled_plan ~seed ~rate q)
  | Splan.Project (fields, q) -> Splan.Project (fields, sampled_plan ~seed ~rate q)
  | Splan.Equi_join j ->
      Splan.Equi_join
        { j with
          left = sampled_plan ~seed ~rate j.left;
          right = sampled_plan ~seed ~rate j.right }
  | Splan.Theta_join (p, l, r) ->
      Splan.Theta_join (p, sampled_plan ~seed ~rate l, sampled_plan ~seed ~rate r)
  | Splan.Cross (l, r) ->
      Splan.Cross (sampled_plan ~seed ~rate l, sampled_plan ~seed ~rate r)
  | Splan.Distinct q -> Splan.Distinct (sampled_plan ~seed ~rate q)
  | Splan.Sample (_, q) -> sampled_plan ~seed ~rate q
  | Splan.Union_samples (l, _) -> sampled_plan ~seed ~rate l

let run ?(seed = 1) ?(initial_rate = 0.01) ?(growth = 2.0) ?(max_rounds = 12) db
    ~plan ~f ~target_rel_width =
  if not (target_rel_width > 0.0) then
    invalid_arg "Progressive.run: target must be positive";
  if not (initial_rate > 0.0 && initial_rate <= 1.0) then
    invalid_arg "Progressive.run: initial rate not in (0,1]";
  if not (growth > 1.0) then invalid_arg "Progressive.run: growth must exceed 1";
  if max_rounds < 1 then invalid_arg "Progressive.run: max_rounds < 1";
  let skeleton = Splan.strip_samples plan in
  let rec go k acc =
    let rate = Float.min 1.0 (initial_rate *. Float.pow growth (float_of_int k)) in
    let plan_k =
      if rate >= 1.0 then skeleton else sampled_plan ~seed ~rate skeleton
    in
    let rng = Gus_util.Rng.create seed in
    let gus = (Lazy.force (Rewrite.analyze_db db plan_k).Rewrite.gus) in
    (* Each round estimates only its own (growing) sample. *)
    let report = Sbox.of_plan ~gus ~f db rng plan_k in
    let interval = Sbox.interval Interval.Normal report in
    let rel_width =
      if report.Sbox.estimate = 0.0 then
        if report.Sbox.stddev = 0.0 then 0.0 else infinity
      else Interval.width interval /. Float.abs report.Sbox.estimate
    in
    let met = rel_width <= target_rel_width in
    let r = { index = k; rate; report; interval; rel_width; met } in
    let acc = r :: acc in
    if met || rate >= 1.0 || k + 1 >= max_rounds then List.rev acc
    else go (k + 1) acc
  in
  go 0 []
