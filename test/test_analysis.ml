(* Tests for the abstract-interpretation layer (Gus_analysis.Absdom /
   Dataflow / Cost / Fix):

   1. Lattice laws of each abstract domain — unit cases plus QCheck
      properties for join-as-lub, widening soundness and arithmetic
      monotonicity.
   2. Dataflow facts pinned on small plans, and totality on plans the
      linter rejects.
   3. The static cost model: pass counts, the dead-relation set (every
      coefficient touching it bit-zero, on product forms and on the dense
      fallback), the Theorem-1 worst-case variance bound against a direct
      computation.
   4. Fix application: shape-directed rewrites, deepest-first batches,
      and the QCheck GUS-equivalence property — every applied fix
      preserves the sample-free skeleton and the effective inclusion
      probability a, hence the Theorem-1 estimator's expectation
      (E[estimate] = exact total over the skeleton for SUM/COUNT). *)

module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module Subset = Gus_util.Subset
module Lint = Gus_analysis.Lint
module Rewrite = Gus_analysis.Rewrite
module Absdom = Gus_analysis.Absdom
module Dataflow = Gus_analysis.Dataflow
module Cost = Gus_analysis.Cost
module Fix = Gus_analysis.Fix
module Itv = Absdom.Itv
module Card = Absdom.Card
module Cls = Absdom.Cls
module Sampler = Gus_sampling.Sampler
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let close msg a b = check (Alcotest.float 1e-9) msg a b

let card = function
  | "r" -> 100
  | "s" -> 1000
  | "t" -> 50
  | _ -> 100

let b01 = Sampler.Bernoulli 0.1
let b05 = Sampler.Bernoulli 0.5

let join l r =
  Splan.Equi_join
    { left = l; right = r; left_key = Expr.col "k"; right_key = Expr.col "k" }

(* ---- Itv ---- *)

let test_itv_basics () =
  let i = Itv.make 0.2 0.7 in
  check_bool "point" true (Itv.is_point (Itv.point 0.3));
  check_bool "not point" false (Itv.is_point i);
  check_bool "leq subset" true (Itv.leq (Itv.make 0.3 0.5) i);
  check_bool "leq not superset" false (Itv.leq i (Itv.make 0.3 0.5));
  let j = Itv.join (Itv.point 0.1) (Itv.point 0.9) in
  close "join lo" 0.1 (j : Itv.t).Itv.lo;
  close "join hi" 0.9 j.Itv.hi;
  (match Itv.make 0.7 0.2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lo > hi accepted");
  let m = Itv.mul (Itv.make 0.1 0.2) (Itv.make 0.5 1.0) in
  close "mul lo" 0.05 m.Itv.lo;
  close "mul hi" 0.2 m.Itv.hi;
  let u = Itv.union_prob (Itv.point 0.5) (Itv.point 0.5) in
  close "union_prob p+q-pq" 0.75 u.Itv.lo;
  close "union_prob point" 0.75 u.Itv.hi

let test_itv_widen () =
  let top = Itv.unit in
  let a = Itv.make 0.3 0.5 in
  (* stable bounds are kept *)
  let w = Itv.widen ~top a (Itv.make 0.3 0.5) in
  close "stable lo" 0.3 w.Itv.lo;
  close "stable hi" 0.5 w.Itv.hi;
  (* an unstable bound jumps to top's bound *)
  let w = Itv.widen ~top a (Itv.make 0.2 0.5) in
  close "unstable lo jumps" 0.0 w.Itv.lo;
  close "hi kept" 0.5 w.Itv.hi;
  let w = Itv.widen ~top a (Itv.make 0.3 0.6) in
  close "unstable hi jumps" 1.0 w.Itv.hi

let itv_gen =
  QCheck2.Gen.(
    map2
      (fun a b -> Itv.make (Float.min a b) (Float.max a b))
      (float_range 0.0 1.0) (float_range 0.0 1.0))

let itv_laws =
  QCheck2.Test.make ~name:"Itv: join is an upper bound, widen covers join"
    ~count:300
    QCheck2.Gen.(pair itv_gen itv_gen)
    (fun (a, b) ->
      let j = Itv.join a b in
      Itv.leq a j && Itv.leq b j
      && Itv.leq j (Itv.widen ~top:Itv.unit a b)
      (* mul is monotone w.r.t. inclusion *)
      && Itv.leq (Itv.mul a b) (Itv.mul j j)
      && Itv.leq (Itv.union_prob a b) (Itv.union_prob j j))

(* ---- Card ---- *)

let test_card_basics () =
  let c = Card.exact 100 in
  close "exact exp" 100.0 (Card.exp c);
  check_bool "leq refl" true (Card.leq c c);
  check_bool "exact below top" true (Card.leq c Card.top);
  let f = Card.filter c in
  close "filter lo" 0.0 (f : Card.t).Card.lo;
  close "filter hi" 100.0 f.Card.hi;
  let s = Card.sample (Itv.point 0.1) c in
  close "sample exp scaled" 10.0 (Card.exp s);
  close "sample hi kept" 100.0 s.Card.hi;
  let p = Card.product (Card.exact 10) (Card.exact 20) in
  close "product hi" 200.0 p.Card.hi;
  let j = Card.equi_join (Card.exact 10) (Card.exact 20) in
  close "join lo" 0.0 j.Card.lo;
  close "join hi" 200.0 j.Card.hi;
  let u = Card.sum (Card.exact 10) (Card.exact 20) in
  close "sum lo" 30.0 u.Card.lo;
  close "sum hi" 30.0 u.Card.hi;
  let w = Card.widen (Card.exact 10) (Card.make ~lo:5.0 ~hi:20.0 ~exp:10.0) in
  close "widen lo" 0.0 w.Card.lo;
  check_bool "widen hi to inf" true (w.Card.hi = infinity)

let card_gen =
  QCheck2.Gen.(
    map3
      (fun a b e ->
        let lo = Float.min a b and hi = Float.max a b in
        Card.make ~lo ~hi ~exp:(lo +. (e *. (hi -. lo))))
      (float_range 0.0 1000.0) (float_range 0.0 1000.0) (float_range 0.0 1.0))

let card_laws =
  QCheck2.Test.make ~name:"Card: join is an upper bound, widen covers join"
    ~count:300
    QCheck2.Gen.(pair card_gen card_gen)
    (fun (a, b) ->
      let j = Card.join a b in
      Card.leq a j && Card.leq b j && Card.leq j (Card.widen a b)
      && Card.leq a Card.top
      (* exp stays inside the interval by construction *)
      && (j : Card.t).Card.lo <= Card.exp j
      && Card.exp j <= j.Card.hi)

(* ---- Cls ---- *)

let test_cls_lattice () =
  let all = [ Cls.Ind_bernoulli; Cls.Product_form; Cls.General ] in
  check_bool "chain" true
    (Cls.leq Cls.Ind_bernoulli Cls.Product_form
    && Cls.leq Cls.Product_form Cls.General
    && not (Cls.leq Cls.General Cls.Ind_bernoulli));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let j = Cls.join a b in
          check_bool "join ub" true (Cls.leq a j && Cls.leq b j);
          check_bool "widen = join (finite lattice)" true
            (Cls.widen a b = j);
          check_bool "join commutes" true (Cls.join b a = j))
        all)
    all;
  check_bool "labels" true
    (List.for_all (fun c -> String.length (Cls.to_string c) > 0) all)

(* ---- Dataflow ---- *)

let test_dataflow_sampled_scan () =
  let plan = Splan.Sample (b01, Splan.Scan "r") in
  let facts = Dataflow.analyze ~card plan in
  let root = Dataflow.root facts in
  check_int "two nodes" 2 (List.length (Dataflow.to_list facts));
  close "a lo" 0.1 root.Dataflow.a.Itv.lo;
  close "a hi" 0.1 root.Dataflow.a.Itv.hi;
  check_int "width" 1 root.Dataflow.width;
  check_bool "sampled" true root.Dataflow.sampled;
  check_bool "class" true (root.Dataflow.cls = Cls.Ind_bernoulli);
  close "expected rows" 10.0 (Card.exp root.Dataflow.card);
  (* the scan child's fact is exact and unsampled *)
  match Dataflow.find facts [ 0 ] with
  | None -> Alcotest.fail "no fact for the scan"
  | Some scan ->
      close "scan exact" 100.0 (Card.exp scan.Dataflow.card);
      check_bool "scan unsampled" false scan.Dataflow.sampled

let test_dataflow_join_select () =
  let plan =
    join
      (Splan.Sample (b01, Splan.Scan "r"))
      (Splan.Select (Expr.(col "x" > int 0), Splan.Scan "s"))
  in
  let facts = Dataflow.analyze ~card plan in
  let root = Dataflow.root facts in
  check_int "width 2" 2 root.Dataflow.width;
  check_bool "sampled" true root.Dataflow.sampled;
  close "join card lo" 0.0 (root.Dataflow.card : Card.t).Card.lo;
  close "join card hi" 100000.0 root.Dataflow.card.Card.hi;
  (* the select's fact: lower bound dropped, upper kept *)
  match Dataflow.find facts [ 1 ] with
  | None -> Alcotest.fail "no fact for the select"
  | Some sel ->
      close "select lo" 0.0 (sel.Dataflow.card : Card.t).Card.lo;
      close "select hi" 1000.0 sel.Dataflow.card.Card.hi

let test_dataflow_total_on_rejected () =
  (* Plans the linter rejects still get a full fact table. *)
  let plans =
    [ Splan.Sample (Sampler.Wor 10, Splan.Sample (b01, Splan.Scan "r"));
      Splan.Sample (Sampler.Wr 5, Splan.Scan "r");
      Splan.Distinct (Splan.Sample (b01, Splan.Scan "r"));
      Splan.Union_samples
        (Splan.Sample (b01, Splan.Scan "r"), Splan.Scan "s") ]
  in
  List.iter
    (fun plan ->
      let facts = Dataflow.analyze ~card plan in
      let root = Dataflow.root facts in
      check_bool "a within [0,1]" true
        (root.Dataflow.a.Itv.lo >= 0.0 && root.Dataflow.a.Itv.hi <= 1.0);
      (* every node has a fact *)
      let rec count q =
        1
        + List.fold_left (fun acc c -> acc + count c) 0 (Splan.children q)
      in
      check_int "fact per node" (count plan)
        (List.length (Dataflow.to_list facts)))
    plans

(* ---- Cost ---- *)

let test_cost_half_sampled_join () =
  let plan = join (Splan.Sample (b01, Splan.Scan "r")) (Splan.Scan "s") in
  let report = Lint.run ~card plan in
  let a =
    match report.Lint.analysis with
    | Some a -> a
    | None -> Alcotest.fail "analyzable"
  in
  let c = a.Lint.cost in
  check_int "n_rels" 2 c.Cost.n_rels;
  check_int "passes 2^2-1" 3 c.Cost.passes;
  check_int "skipped: both masks touching s" 2 c.Cost.skipped;
  check_int "dead = bit of s" 2 c.Cost.dead;
  check_bool "est_groups >= 1" true (c.Cost.est_groups >= 1.0);
  close "predicted = live passes x groups"
    ((float_of_int (c.Cost.passes - c.Cost.skipped)) *. c.Cost.est_groups)
    c.Cost.predicted_cost;
  (* the bound agrees with a direct sum over the coefficient array *)
  let gus = (Lazy.force a.Lint.gus) in
  let coeffs = Gus.c_coefficients gus in
  let positive = ref 0.0 in
  Array.iter (fun cs -> if cs > 0.0 then positive := !positive +. cs) coeffs;
  let direct =
    Float.max 0.0 ((!positive /. (gus.Gus.a *. gus.Gus.a)) -. 1.0)
  in
  close "variance bound" direct c.Cost.variance_bound;
  close "bernoulli bound 1/p - 1" 9.0 c.Cost.variance_bound

let test_cost_dead_bit_zero () =
  (* Every coefficient touching a relation outside Symalg.live_mask is an
     exact 0.0 — what lets the estimator run only the live relations'
     passes — and the structural mask is the dense oracle's verified
     scan. *)
  let check_design what sym =
    let live = Symalg.live_mask sym in
    let dead = Subset.diff (Subset.full (Symalg.n_rels sym)) live in
    let g = Symalg.to_gus sym in
    let c = Gus.c_coefficients g in
    Array.iteri
      (fun s cs ->
        if s land dead <> 0 && not (Int64.equal (Int64.bits_of_float cs) 0L)
        then
          Alcotest.failf "%s: c%s = %h is not 0.0" what (Gus.subset_name g s)
            cs)
      c;
    check_int (what ^ ": dead = verified dense scan")
      (Dense_oracle.verified_dead_mask g c) dead
  in
  let b rel p = Symalg.bernoulli ~rel p in
  let id rel = Symalg.identity [| rel |] in
  check_design "bernoulli" (b "r" 0.1);
  check_design "identity" (id "r");
  check_design "sampled x unsampled" (Symalg.join (b "r" 0.1) (id "s"));
  check_design "both sampled" (Symalg.join (b "r" 0.1) (b "s" 0.25));
  check_design "B(1) x sampled" (Symalg.join (b "r" 1.0) (b "s" 0.25));
  (* the dense fallback: live_mask scans the materialized entries *)
  let dense =
    Symalg.of_gus
      (Gus.join
         (Gus.join (Gus.bernoulli ~rel:"r" 0.1) (Gus.identity [| "s" |]))
         (Gus.wor ~rel:"t" ~n:5 ~out_of:50))
  in
  check_design "dense fallback" dense;
  check_int "dense fallback: s dead" 0b101 (Symalg.live_mask dense);
  (* fully sampled: nothing dead; identity design: everything dead *)
  check_int "no dead relation" 0b11
    (Symalg.live_mask (Symalg.join (b "r" 0.1) (b "s" 0.25)));
  check_int "identity fully dead" 0
    (Symalg.live_mask (Symalg.identity [| "r"; "s" |]))

(* ---- Fix ---- *)

let test_fix_apply_shapes () =
  let stacked = Splan.Sample (b01, Splan.Sample (b05, Splan.Scan "r")) in
  let merged = Sampler.Bernoulli 0.05 in
  let fix = Fix.merge_stacked ~at:[] b01 b05 merged in
  (match Fix.apply fix stacked with
  | Some (Splan.Sample (Sampler.Bernoulli p, Splan.Scan "r")) ->
      close "merged rate" 0.05 p
  | _ -> Alcotest.fail "merge did not produce Sample(b.05, Scan r)");
  (* wrong shape -> None, not an exception *)
  check_bool "shape mismatch is None" true
    (Fix.apply fix (Splan.Scan "r") = None);
  let sel = Splan.Select (Expr.(col "x" > int 0), Splan.Scan "r") in
  let above = Splan.Sample (b01, sel) in
  (match Fix.apply (Fix.push_below_select ~at:[] b01) above with
  | Some (Splan.Select (_, Splan.Sample (s, Splan.Scan "r"))) ->
      check_bool "same sampler" true (s = b01)
  | _ -> Alcotest.fail "push_below_select shape");
  match Fix.apply (Fix.drop_sampler ~at:[] (Sampler.Bernoulli 1.0))
          (Splan.Sample (Sampler.Bernoulli 1.0, Splan.Scan "r"))
  with
  | Some (Splan.Scan "r") -> ()
  | _ -> Alcotest.fail "drop_sampler shape"

let test_fix_apply_all_deepest_first () =
  (* Two fixes along one spine: the deeper merge must apply before the
     outer path is interpreted, and apply_all reports both. *)
  let plan =
    Splan.Sample
      (b01, Splan.Sample (b05, Splan.Sample (Sampler.Bernoulli 0.2, Splan.Scan "r")))
  in
  let fixed, applied = Lint.apply_fixes ~card plan in
  check_bool "all collapsed to one Bernoulli" true
    (match fixed with
    | Splan.Sample (Sampler.Bernoulli p, Splan.Scan "r") ->
        Float.abs (p -. (0.1 *. 0.5 *. 0.2)) < 1e-12
    | _ -> false);
  check_bool "at least two merges applied" true (List.length applied >= 2)

(* ---- the GUS-equivalence property for fixes ---- *)

let sampler_gen =
  QCheck2.Gen.(
    oneof
      [ (float_range 0.05 1.0 >|= fun p -> Sampler.Bernoulli p);
        (int_range 1 120 >|= fun n -> Sampler.Wor n);
        ( pair (int_range 1 20) (float_range 0.1 1.0) >|= fun (b, p) ->
          Sampler.Block { rows_per_block = b; p } ) ])

let plan_gen =
  QCheck2.Gen.(
    let scan = oneofl [ "r"; "s"; "t" ] >|= fun r -> Splan.Scan r in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scan
           else
             let sub = self (n / 2) in
             oneof
               [ scan;
                 (sub >|= fun q -> Splan.Select (Expr.(col "x" > int 0), q));
                 map2 (fun s q -> Splan.Sample (s, q)) sampler_gen sub;
                 map2
                   (fun l r ->
                     Splan.Equi_join
                       { left = l; right = r; left_key = Expr.col "k";
                         right_key = Expr.col "k" })
                   sub sub;
                 map2 (fun l r -> Splan.Cross (l, r)) sub sub ]))

let prop_fixes_preserve_gus plan =
  let report = Lint.run ~card plan in
  let fixed, _applied = Lint.apply_fixes ~card plan in
  (* 1. fixes never touch the sample-free skeleton — for SUM/COUNT the
     Theorem-1 estimator's expectation is the exact total over the
     skeleton scaled by a/a = 1, so equal skeleton + equal a means the
     estimator's expectation is untouched *)
  let skeleton_ok =
    Splan.equal (Splan.strip_samples plan) (Splan.strip_samples fixed)
  in
  (* 2. analyzability is preserved and a is unchanged (drop only removes
     a = 1 samplers; merge multiplies exactly like Prop. 8 compaction;
     push commutes per Prop. 5) *)
  let a_ok =
    match report.Lint.analysis with
    | None -> true
    | Some orig -> (
        let report' = Lint.run ~card fixed in
        match report'.Lint.analysis with
        | None -> false
        | Some fixed_a ->
            Float.abs ((Lazy.force orig.Lint.gus).Gus.a -. (Lazy.force fixed_a.Lint.gus).Gus.a)
            <= 1e-9 *. (Lazy.force orig.Lint.gus).Gus.a)
  in
  (* 3. apply_fixes reaches a fixpoint: re-running applies nothing *)
  let fixpoint_ok =
    let fixed2, applied2 = Lint.apply_fixes ~card fixed in
    applied2 = [] && Splan.equal fixed fixed2
  in
  skeleton_ok && a_ok && fixpoint_ok

let fix_property =
  QCheck2.Test.make
    ~name:"fixes preserve skeleton, a, and estimator expectation" ~count:400
    plan_gen prop_fixes_preserve_gus

let () =
  Alcotest.run "gus_analysis.absdom"
    [ ( "itv",
        [ Alcotest.test_case "basics" `Quick test_itv_basics;
          Alcotest.test_case "widen" `Quick test_itv_widen;
          QCheck_alcotest.to_alcotest itv_laws ] );
      ( "card",
        [ Alcotest.test_case "basics" `Quick test_card_basics;
          QCheck_alcotest.to_alcotest card_laws ] );
      ("cls", [ Alcotest.test_case "lattice" `Quick test_cls_lattice ]);
      ( "dataflow",
        [ Alcotest.test_case "sampled scan" `Quick test_dataflow_sampled_scan;
          Alcotest.test_case "join + select" `Quick test_dataflow_join_select;
          Alcotest.test_case "total on rejected plans" `Quick
            test_dataflow_total_on_rejected ] );
      ( "cost",
        [ Alcotest.test_case "half-sampled join" `Quick
            test_cost_half_sampled_join;
          Alcotest.test_case "dead relations bit-zero" `Quick
            test_cost_dead_bit_zero ] );
      ( "fix",
        [ Alcotest.test_case "apply shapes" `Quick test_fix_apply_shapes;
          Alcotest.test_case "apply_all deepest first" `Quick
            test_fix_apply_all_deepest_first;
          QCheck_alcotest.to_alcotest fix_property ] ) ]
