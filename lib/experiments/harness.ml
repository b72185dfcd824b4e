module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Sampler = Gus_sampling.Sampler
module Interval = Gus_stats.Interval
module Summary = Gus_stats.Summary
open Gus_relational

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

(* ---- progress reporting -------------------------------------------- *)

let m_trials_completed = Gus_obs.Metrics.counter "harness.trials_completed"

let progress_enabled = ref false
let set_progress b = progress_enabled := b

type progress = {
  p_total : int;
  p_start_ns : int;
  p_done : int Atomic.t;
  p_mu : Mutex.t;
  mutable p_last_ns : int;  (* last stderr update; guarded by [p_mu] *)
}

let progress_start total =
  if !progress_enabled && total > 0 then
    Some
      { p_total = total;
        p_start_ns = Gus_obs.Trace.now_ns ();
        p_done = Atomic.make 0;
        p_mu = Mutex.create ();
        p_last_ns = 0 }
  else None

(* Called once per completed trial, possibly from a pool lane.  The
   metric always counts (subject to the Metrics flag); the stderr line is
   rate-limited to ~5 updates/s so heavy parallel runs don't serialize on
   terminal writes. *)
let progress_tick prog =
  Gus_obs.Metrics.incr m_trials_completed;
  match prog with
  | None -> ()
  | Some p ->
      let done_ = 1 + Atomic.fetch_and_add p.p_done 1 in
      let now = Gus_obs.Trace.now_ns () in
      Mutex.lock p.p_mu;
      let due = now - p.p_last_ns >= 200_000_000 || done_ = p.p_total in
      if due then p.p_last_ns <- now;
      Mutex.unlock p.p_mu;
      if due then begin
        let elapsed = float_of_int (now - p.p_start_ns) /. 1e9 in
        let eta =
          elapsed *. float_of_int (p.p_total - done_) /. float_of_int done_
        in
        Printf.eprintf "\r  trials %d/%d (%d%%) elapsed %.1fs eta %.1fs%!"
          done_ p.p_total
          (100 * done_ / p.p_total)
          elapsed eta
      end

let progress_finish = function
  | None -> ()
  | Some _ -> prerr_newline ()

let fcell = Gus_util.Tablefmt.float_cell ~digits:3

let query1_f = Expr.(col "l_discount" * (float 1.0 - col "l_tax"))
let revenue_f = Expr.(col "l_extendedprice" * (float 1.0 - col "l_discount"))

let price_filter = Expr.(col "l_extendedprice" > float 100.0)

let query1_plan ?(bernoulli = 0.1) ?(wor = 1000) () =
  Splan.Select
    ( price_filter,
      Splan.Equi_join
        { left = Splan.Sample (Sampler.Bernoulli bernoulli, Splan.Scan "lineitem");
          right = Splan.Sample (Sampler.Wor wor, Splan.Scan "orders");
          left_key = Expr.col "l_orderkey";
          right_key = Expr.col "o_orderkey" } )

let join2_plan ~p_lineitem ~p_orders =
  Splan.Equi_join
    { left = Splan.Sample (Sampler.Bernoulli p_lineitem, Splan.Scan "lineitem");
      right = Splan.Sample (Sampler.Bernoulli p_orders, Splan.Scan "orders");
      left_key = Expr.col "l_orderkey";
      right_key = Expr.col "o_orderkey" }

let join3_plan ~p_lineitem ~p_orders ~p_customer =
  Splan.Equi_join
    { left = join2_plan ~p_lineitem ~p_orders;
      right = Splan.Sample (Sampler.Bernoulli p_customer, Splan.Scan "customer");
      left_key = Expr.col "o_custkey";
      right_key = Expr.col "c_custkey" }

let single_plan ~p =
  Splan.Sample (Sampler.Bernoulli p, Splan.Scan "lineitem")

type trial_stats = {
  trials : int;
  truth : float;
  mean_estimate : float;
  bias_pct : float;
  mean_rel_err_pct : float;
  rmse_over_truth_pct : float;
  mc_variance : float;
  mean_est_variance : float;
  coverage_normal : float;
  coverage_chebyshev : float;
  mean_ci_width_rel : float;
}

(* Per-trial accuracy accumulator.  Both the sequential and the pooled
   trial loops run the same per-trial body into one of these; a parallel
   run keeps one per fixed trial block and reduces them with
   {!Summary.merge} in block order. *)
type trial_acc = {
  estimates : Summary.t;
  est_var : Summary.t;
  rel_err : Summary.t;
  ci_width : Summary.t;
  mutable hits_normal : int;
  mutable hits_cheby : int;
}

let trial_acc_create () =
  { estimates = Summary.create ();
    est_var = Summary.create ();
    rel_err = Summary.create ();
    ci_width = Summary.create ();
    hits_normal = 0;
    hits_cheby = 0 }

let trial_acc_merge a b =
  { estimates = Summary.merge a.estimates b.estimates;
    est_var = Summary.merge a.est_var b.est_var;
    rel_err = Summary.merge a.rel_err b.rel_err;
    ci_width = Summary.merge a.ci_width b.ci_width;
    hits_normal = a.hits_normal + b.hits_normal;
    hits_cheby = a.hits_cheby + b.hits_cheby }

(* One Monte-Carlo trial: estimate the plan (Sbox.of_plan) and score it
   against the truth. *)
let one_trial ~gus ~truth db plan ~f acc rng =
  let r = Sbox.of_plan ~gus ~f db rng plan in
  Summary.add acc.estimates r.Sbox.estimate;
  Summary.add acc.est_var r.Sbox.variance;
  Summary.add acc.rel_err (Summary.relative_error ~truth r.Sbox.estimate);
  let ci_n = Sbox.interval Interval.Normal r in
  let ci_c = Sbox.interval Interval.Chebyshev r in
  Summary.add acc.ci_width (Interval.width ci_n /. Float.abs truth);
  if Interval.contains ci_n truth then acc.hits_normal <- acc.hits_normal + 1;
  if Interval.contains ci_c truth then acc.hits_cheby <- acc.hits_cheby + 1

let stats_of_acc ~trials ~truth acc =
  let tf = float_of_int trials in
  { trials;
    truth;
    mean_estimate = Summary.mean acc.estimates;
    bias_pct = 100.0 *. (Summary.mean acc.estimates -. truth) /. truth;
    mean_rel_err_pct = 100.0 *. Summary.mean acc.rel_err;
    rmse_over_truth_pct =
      (let mc = Summary.variance_population acc.estimates in
       (* RMSE via MC variance + bias. *)
       let bias = Summary.mean acc.estimates -. truth in
       100.0 *. sqrt (mc +. (bias *. bias)) /. Float.abs truth);
    mc_variance = Summary.variance acc.estimates;
    mean_est_variance = Summary.mean acc.est_var;
    coverage_normal = float_of_int acc.hits_normal /. tf;
    coverage_chebyshev = float_of_int acc.hits_cheby /. tf;
    mean_ci_width_rel = Summary.mean acc.ci_width }

let trials ?(trials = 200) ?(seed = 1) db plan ~f =
  let truth = Sbox.exact db plan ~f in
  let analysis = Rewrite.analyze_db db plan in
  let gus = (Lazy.force analysis.Rewrite.gus) in
  let acc = trial_acc_create () in
  let prog = progress_start trials in
  for t = 1 to trials do
    let rng = Gus_util.Rng.create (seed + (7919 * t)) in
    one_trial ~gus ~truth db plan ~f acc rng;
    progress_tick prog
  done;
  progress_finish prog;
  stats_of_acc ~trials ~truth acc

(* Trials per reduction block of {!trials_par}.  The grid is fixed —
   block [b] always owns trials [8b, 8b+8) and blocks always reduce in
   index order — so the result is bit-identical for every pool size. *)
let trials_per_block = 8

let trials_par ?pool ?(trials = 200) ?(seed = 1) db plan ~f =
  let truth = Sbox.exact db plan ~f in
  let analysis = Rewrite.analyze_db db plan in
  let gus = (Lazy.force analysis.Rewrite.gus) in
  let ntr = Stdlib.max 0 trials in
  let master = Gus_util.Rng.create seed in
  let nblocks = Stdlib.max 1 ((ntr + trials_per_block - 1) / trials_per_block) in
  let blocks = Array.init nblocks (fun _ -> trial_acc_create ()) in
  let prog = progress_start ntr in
  let run_block b =
    let acc = blocks.(b) in
    let lo = b * trials_per_block and hi = min ntr ((b + 1) * trials_per_block) in
    for t = lo to hi - 1 do
      (* The t-th child stream of the master seed: a pure function of
         (seed, t), so a trial draws the same sample whichever lane runs
         it. *)
      one_trial ~gus ~truth db plan ~f acc (Gus_util.Rng.derive master t);
      progress_tick prog
    done
  in
  let module Pool = Gus_util.Pool in
  (match pool with
  | Some p when Pool.is_live p && Pool.size p > 1 && nblocks > 1 ->
      Pool.run_chunks p ~lo:0 ~hi:nblocks (fun blo bhi ->
          for b = blo to bhi - 1 do
            run_block b
          done)
  | _ ->
      for b = 0 to nblocks - 1 do
        run_block b
      done);
  progress_finish prog;
  let acc = ref blocks.(0) in
  for b = 1 to nblocks - 1 do
    acc := trial_acc_merge !acc blocks.(b)
  done;
  stats_of_acc ~trials:ntr ~truth !acc

let map_trials_par ?pool ~trials ~seed body =
  if trials < 0 then invalid_arg "Harness.map_trials_par: negative trials";
  let master = Gus_util.Rng.create seed in
  let out = Array.make trials None in
  let prog = progress_start trials in
  let run_range lo hi =
    for t = lo to hi - 1 do
      out.(t) <- Some (body (Gus_util.Rng.derive master t) t);
      progress_tick prog
    done
  in
  let module Pool = Gus_util.Pool in
  (match pool with
  | Some p when Pool.is_live p && Pool.size p > 1 && trials > 1 ->
      Pool.run_chunks p ~lo:0 ~hi:trials run_range
  | _ -> run_range 0 trials);
  progress_finish prog;
  Array.map
    (function Some x -> x | None -> assert false)
    out

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let median_time_us ?(repeats = 9) f =
  let times =
    Array.init repeats (fun _ ->
        let _, dt = time f in
        dt *. 1e6)
  in
  Array.sort compare times;
  times.(repeats / 2)

let cache : (float, Database.t) Hashtbl.t = Hashtbl.create 4

let db_cached ~scale =
  match Hashtbl.find_opt cache scale with
  | Some db -> db
  | None ->
      let db = Gus_tpch.Tpch.generate ~seed:20130630 ~scale () in
      Hashtbl.add cache scale db;
      db
