module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Gus = Gus_core.Gus
module Moments = Gus_estimator.Moments
module Sampler = Gus_sampling.Sampler
module Tablefmt = Gus_util.Tablefmt
open Gus_relational

let chain_card _ = 100000

let chain_plan ~n =
  if n < 1 then invalid_arg "chain_plan";
  let leaf i =
    Splan.Sample
      ( Sampler.Bernoulli (0.05 +. (0.01 *. float_of_int i)),
        Splan.Scan (Printf.sprintf "r%d" i) )
  in
  let rec build acc i =
    if i >= n then acc
    else
      build
        (Splan.Equi_join
           { left = acc;
             right = leaf i;
             left_key = Expr.col (Printf.sprintf "k%d" (i - 1));
             right_key = Expr.col (Printf.sprintf "k%d" i) })
        (i + 1)
  in
  build (leaf 0) 1

let synthetic_pairs ~n_rels ~m ~seed =
  let rng = Gus_util.Rng.create seed in
  Array.init m (fun _ ->
      ( Array.init n_rels (fun _ -> Gus_util.Rng.int rng 1000),
        Gus_util.Rng.float rng ))

let run () =
  Harness.section "E4" "Runtime of the statistical analysis (SBox)";
  print_endline "(a) plan rewrite + c_S coefficients vs number of relations:";
  let t = Tablefmt.create ~headers:[ "relations"; "2^n"; "rewrite (us)"; "c_S (us)" ] in
  List.iter
    (fun n ->
      let plan = chain_plan ~n in
      let rewrite_us =
        Harness.median_time_us (fun () ->
            ignore (Rewrite.analyze ~card:chain_card plan))
      in
      let gus = (Lazy.force (Rewrite.analyze ~card:chain_card plan).Rewrite.gus) in
      let c_us =
        Harness.median_time_us (fun () -> ignore (Gus.c_coefficients gus))
      in
      Tablefmt.add_row t
        [ string_of_int n;
          string_of_int (1 lsl n);
          Printf.sprintf "%.1f" rewrite_us;
          Printf.sprintf "%.1f" c_us ])
    [ 2; 4; 6; 8; 10; 12 ];
  Tablefmt.print t;
  print_endline
    "\n(b) y_S moment computation vs sample size (2-relation lineage):";
  let t2 = Tablefmt.create ~headers:[ "sample tuples"; "time (ms)"; "us/tuple" ] in
  List.iter
    (fun m ->
      let pairs = synthetic_pairs ~n_rels:2 ~m ~seed:5 in
      let us =
        Harness.median_time_us ~repeats:5 (fun () ->
            let acc = Moments.Acc.create ~hint:m ~n_rels:2 () in
            Array.iter (fun (l, f) -> Moments.Acc.add acc l f) pairs;
            ignore (Moments.Acc.finalize acc))
      in
      Tablefmt.add_row t2
        [ string_of_int m;
          Printf.sprintf "%.2f" (us /. 1000.0);
          Printf.sprintf "%.3f" (us /. float_of_int m) ])
    [ 1000; 10000; 50000; 100000 ];
  Tablefmt.print t2;
  print_endline
    "\nexpected shape: rewrite stays in the low-millisecond range through \
     n = 12 (2^n = 4096 coefficients); the moment pass is linear in the \
     sample size.";
  (* (c) end-to-end overhead on the real workload. *)
  let db = Harness.db_cached ~scale:1.0 in
  let plan = Harness.query1_plan () in
  let rng = Gus_util.Rng.create 7 in
  let sample, exec_s = Harness.time (fun () -> Splan.exec db rng plan) in
  let analysis = Rewrite.analyze_db db plan in
  let _, sbox_s =
    Harness.time (fun () ->
        ignore
          (Gus_estimator.Sbox.of_relation ~gus:(Lazy.force analysis.Rewrite.gus)
             ~f:Harness.revenue_f sample))
  in
  Printf.printf
    "\n(c) Query 1 end to end: sampling+join %.1f ms, SBox analysis %.1f ms \
     on %d result tuples (%.0f%% overhead)\n"
    (1000.0 *. exec_s) (1000.0 *. sbox_s)
    (Relation.cardinality sample)
    (100.0 *. sbox_s /. exec_s)
