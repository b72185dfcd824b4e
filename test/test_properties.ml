(* Cross-cutting property tests tying the algebra, the moment machinery
   and the samplers together:

   1. Theorem-1 consistency: for random data and a random sampler-built
      GUS, the algebraic variance equals the brute-force second-moment
      computation directly from the b coefficients.
   2. Sampler/GUS agreement: the empirical first- and second-order
      inclusion frequencies of each physical sampler match its GUS
      translation (the SOA-set equivalence of Proposition 3).
   3. Rewriter/Monte-Carlo agreement on random plans. *)

module Gus = Gus_core.Gus
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Moments = Gus_estimator.Moments
module Subset = Gus_util.Subset
module Sampler = Gus_sampling.Sampler
module Rng = Gus_util.Rng
open Gus_relational

let check_bool = Alcotest.check Alcotest.bool

(* ---- 1. algebraic variance = brute force over pairs ---- *)

let pairs_gen =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (pair (pair (int_range 0 3) (int_range 0 3)) (float_range (-4.0) 4.0))
    >|= fun l ->
    (* Deduplicate lineage: GUS data has one tuple per lineage. *)
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun ((a, b), f) ->
        if Hashtbl.mem seen (a, b) then None
        else begin
          Hashtbl.add seen (a, b) ();
          Some ([| a; b |], f)
        end)
      l
    |> Array.of_list)

let gus_gen =
  QCheck2.Gen.(
    let base rel =
      oneof
        [ (float_range 0.05 1.0 >|= fun p -> Gus.bernoulli ~rel p);
          ( pair (int_range 1 20) (int_range 0 20) >|= fun (n, extra) ->
            Gus.wor ~rel ~n ~out_of:(n + extra) ) ]
    in
    map2 Gus.join (base "r") (base "s"))

let brute_force_variance g pairs =
  (* E[X^2] - A^2 with E[X^2] = (1/a^2) * sum over ordered pairs of
     b'_{T(t,t')} f f' (diagonal uses a = b_full by the convention). *)
  let a = g.Gus.a in
  let acc = ref 0.0 in
  Array.iter
    (fun (l1, f1) ->
      Array.iter
        (fun (l2, f2) ->
          let t = Gus_relational.Lineage.common l1 l2 in
          acc := !acc +. (Gus.b_get g t *. f1 *. f2))
        pairs)
    pairs;
  let total = Array.fold_left (fun s (_, f) -> s +. f) 0.0 pairs in
  (!acc /. (a *. a)) -. (total *. total)

let prop_theorem1_consistency =
  QCheck2.Test.make ~name:"Thm 1 variance = brute force" ~count:150
    QCheck2.Gen.(pair gus_gen pairs_gen)
    (fun (g, pairs) ->
      Array.length pairs = 0
      ||
      let acc = Moments.Acc.create ~n_rels:2 () in
      Array.iter (fun (l, f) -> Moments.Acc.add acc l f) pairs;
      let alg = Gus.variance g ~y:(Moments.Acc.finalize acc).(0).(0) in
      let bf = brute_force_variance g pairs in
      Float.abs (alg -. bf) <= 1e-6 *. Float.max 1.0 (Float.abs bf))

(* ---- 2. sampler vs GUS: empirical inclusion probabilities ---- *)

let tiny_relation n =
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let rel = Relation.create_base ~name:"r" schema in
  for i = 0 to n - 1 do
    Relation.append_row rel [| Value.Int i |]
  done;
  rel

let empirical_inclusions sampler ~population ~trials ~seed =
  (* Frequencies of: row 0 present (a-hat); rows 0 and 1 present
     (b_empty-hat). *)
  let rel = tiny_relation population in
  let hit0 = ref 0 and both = ref 0 in
  for t = 1 to trials do
    let s = Sampler.apply sampler (Rng.create (seed + t)) rel in
    let in0 = ref false and in1 = ref false in
    Relation.iter
      (fun tup ->
        if tup.Tuple.lineage.(0) = 0 then in0 := true;
        if tup.Tuple.lineage.(0) = 1 then in1 := true)
      s;
    if !in0 then incr hit0;
    if !in0 && !in1 then incr both
  done;
  ( float_of_int !hit0 /. float_of_int trials,
    float_of_int !both /. float_of_int trials )

let check_sampler_matches_gus name sampler gus ~population =
  let a_hat, b_hat =
    empirical_inclusions sampler ~population ~trials:4000 ~seed:7
  in
  check_bool (name ^ ": a matches") true (Float.abs (a_hat -. gus.Gus.a) < 0.035);
  check_bool (name ^ ": b_empty matches") true
    (Float.abs (b_hat -. Gus.b_get gus Subset.empty) < 0.035)

let test_bernoulli_soa () =
  check_sampler_matches_gus "Bernoulli(0.4)" (Sampler.Bernoulli 0.4)
    (Gus.bernoulli ~rel:"r" 0.4) ~population:30

let test_wor_soa () =
  check_sampler_matches_gus "WOR(12/30)" (Sampler.Wor 12)
    (Gus.wor ~rel:"r" ~n:12 ~out_of:30) ~population:30

let test_hash_bernoulli_soa () =
  (* Hash-Bernoulli's decisions are deterministic per (seed, id); across
     seeds they behave like Bernoulli.  Vary the seed via the sampler. *)
  let rel = tiny_relation 30 in
  let hit0 = ref 0 and both = ref 0 in
  let trials = 4000 in
  for t = 1 to trials do
    let s =
      Sampler.apply (Sampler.Hash_bernoulli { seed = t; p = 0.4 }) (Rng.create 1) rel
    in
    let in0 = ref false and in1 = ref false in
    Relation.iter
      (fun tup ->
        if tup.Tuple.lineage.(0) = 0 then in0 := true;
        if tup.Tuple.lineage.(0) = 1 then in1 := true)
      s;
    if !in0 then incr hit0;
    if !in0 && !in1 then incr both
  done;
  let a_hat = float_of_int !hit0 /. float_of_int trials in
  let b_hat = float_of_int !both /. float_of_int trials in
  check_bool "a" true (Float.abs (a_hat -. 0.4) < 0.035);
  check_bool "b_empty (independent across ids)" true
    (Float.abs (b_hat -. 0.16) < 0.035)

let test_block_soa () =
  (* Two rows in the same block: P(both) = p, not p^2. *)
  let rel = tiny_relation 40 in
  let trials = 4000 in
  let same = ref 0 and diff = ref 0 in
  for t = 1 to trials do
    let s =
      Sampler.apply (Sampler.Block { rows_per_block = 10; p = 0.3 })
        (Rng.create (100 + t)) rel
    in
    let present = Hashtbl.create 8 in
    Relation.iter
      (fun tup ->
        (* lineage is the block id after block sampling; use values for rows *)
        match Tuple.value tup 0 with
        | Value.Int v -> Hashtbl.replace present v ()
        | _ -> ())
      s;
    if Hashtbl.mem present 0 && Hashtbl.mem present 1 then incr same;
    if Hashtbl.mem present 0 && Hashtbl.mem present 15 then incr diff
  done;
  let p_same = float_of_int !same /. float_of_int trials in
  let p_diff = float_of_int !diff /. float_of_int trials in
  check_bool "same block ~ p" true (Float.abs (p_same -. 0.3) < 0.03);
  check_bool "different blocks ~ p^2" true (Float.abs (p_diff -. 0.09) < 0.03)

(* ---- 3. random plans: rewriter variance vs Monte Carlo ---- *)

let test_random_plans_mc () =
  (* A handful of structurally different plans over a small fixed database;
     for each, the Theorem-1 variance (from exact moments) must match the
     Monte-Carlo variance of the estimates within MC noise. *)
  let db = Database.create () in
  let r = tiny_relation 60 in
  Database.add db r;
  let schema2 =
    Schema.make
      [ { Schema.name = "yk"; ty = Value.TInt };
        { Schema.name = "w"; ty = Value.TFloat } ]
  in
  let s = Relation.create_base ~name:"s" schema2 in
  for i = 0 to 14 do
    Relation.append_row s [| Value.Int i; Value.Float (1.0 +. float_of_int (i mod 4)) |]
  done;
  Database.add db s;
  (* join key: x mod 15 = yk *)
  let join_plan sampler_r sampler_s =
    Splan.Equi_join
      { left = Splan.Sample (sampler_r, Splan.Scan "r");
        right = Splan.Sample (sampler_s, Splan.Scan "s");
        left_key = Expr.(Bin (Sub, col "x", Bin (Mul, int 15, col "x" / int 15)));
        right_key = Expr.col "yk" }
  in
  let f = Expr.(col "w" + float 1.0) in
  let plans =
    [ ("B x B", join_plan (Sampler.Bernoulli 0.5) (Sampler.Bernoulli 0.6));
      ("B x WOR", join_plan (Sampler.Bernoulli 0.4) (Sampler.Wor 8));
      ("WOR x WOR", join_plan (Sampler.Wor 30) (Sampler.Wor 10));
      ( "select over sample",
        Splan.Select
          ( Expr.(col "x" > int 10),
            Splan.Sample (Sampler.Bernoulli 0.5, Splan.Scan "r") ) ) ]
  in
  List.iter
    (fun (name, plan) ->
      let f = if name = "select over sample" then Expr.(col "x" * float 0.1) else f in
      let analysis = Rewrite.analyze_db db plan in
      let gus = (Lazy.force analysis.Rewrite.gus) in
      let full = Splan.exec_exact db plan in
      let y = Moments.of_relation ~f full in
      let theory = Gus.variance gus ~y in
      let est = Gus_stats.Summary.create () in
      let trials = 1500 in
      for t = 1 to trials do
        let sample = Splan.exec db (Rng.create (9000 + t)) plan in
        let r = Sbox.of_relation ~gus ~f sample in
        Gus_stats.Summary.add est r.Sbox.estimate
      done;
      let truth = Sbox.exact db plan ~f in
      let mean = Gus_stats.Summary.mean est in
      check_bool
        (Printf.sprintf "%s: unbiased (mean %.3f truth %.3f)" name mean truth)
        true
        (Float.abs (mean -. truth) <= 0.05 *. Float.max 1.0 (Float.abs truth));
      let mc = Gus_stats.Summary.variance est in
      check_bool
        (Printf.sprintf "%s: MC var %.4f vs theory %.4f" name mc theory)
        true
        (theory = 0.0 || Float.abs ((mc /. theory) -. 1.0) < 0.25))
    plans

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_theorem1_consistency ]

let () =
  Alcotest.run "properties"
    [ ("theorem1", qcheck_tests);
      ( "soa-set-equivalence",
        [ Alcotest.test_case "Bernoulli" `Slow test_bernoulli_soa;
          Alcotest.test_case "WOR" `Slow test_wor_soa;
          Alcotest.test_case "hash Bernoulli" `Slow test_hash_bernoulli_soa;
          Alcotest.test_case "block" `Slow test_block_soa ] );
      ( "random-plans",
        [ Alcotest.test_case "rewriter vs Monte Carlo" `Slow test_random_plans_mc ] ) ]
