(* Tests for the GUS algebra itself: constructors vs Figure 1, the
   combination rules vs the paper's worked examples, the semiring laws of
   Theorem 2, and the Theorem-1 coefficient machinery. *)

module Gus = Gus_core.Gus
module Subset = Gus_util.Subset

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

let b g names_mask = Gus.b_get g names_mask

(* ---- constructors (Figure 1) ---- *)

let test_bernoulli_params () =
  let g = Gus.bernoulli ~rel:"r" 0.1 in
  close "a = p" 0.1 g.Gus.a;
  close "b{} = p^2" 0.01 (b g 0);
  close "b{r} = p" 0.1 (b g 1)

let test_wor_params () =
  let g = Gus.wor ~rel:"r" ~n:1000 ~out_of:150000 in
  close ~eps:1e-12 "a = n/N" (1000.0 /. 150000.0) g.Gus.a;
  close ~eps:1e-12 "b{} = n(n-1)/N(N-1)"
    (1000.0 *. 999.0 /. (150000.0 *. 149999.0))
    (b g 0);
  close ~eps:1e-12 "b{r} = n/N" (1000.0 /. 150000.0) (b g 1)

let test_wor_edges () =
  let g = Gus.wor ~rel:"r" ~n:1 ~out_of:1 in
  close "n=N=1 a" 1.0 g.Gus.a;
  close "n=N=1 b_empty" 0.0 (b g 0);
  let g0 = Gus.wor ~rel:"r" ~n:0 ~out_of:10 in
  close "n=0" 0.0 g0.Gus.a;
  check_bool "n > N rejected" true
    (try ignore (Gus.wor ~rel:"r" ~n:5 ~out_of:3); false
     with Invalid_argument _ -> true);
  check_bool "N = 0 rejected" true
    (try ignore (Gus.wor ~rel:"r" ~n:0 ~out_of:0); false
     with Invalid_argument _ -> true)

let test_identity_null () =
  let id = Gus.identity [| "r"; "s" |] in
  close "identity a" 1.0 id.Gus.a;
  Array.iter (fun v -> close "identity b" 1.0 v) id.Gus.b;
  let z = Gus.null [| "r" |] in
  close "null a" 0.0 z.Gus.a;
  Array.iter (fun v -> close "null b" 0.0 v) z.Gus.b

let test_bernoulli_over () =
  let g = Gus.bernoulli_over [| "r"; "s" |] 0.3 in
  close "a" 0.3 g.Gus.a;
  close "b{}" 0.09 (b g 0);
  close "b{r}" 0.09 (b g 1);
  close "b{s}" 0.09 (b g 2);
  close "b{r,s} = p (diagonal)" 0.3 (b g 3)

let test_make_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "wrong b length" true
    (raises (fun () -> Gus.make ~rels:[| "r" |] ~a:0.5 ~b:[| 0.25 |]));
  check_bool "a out of range" true
    (raises (fun () -> Gus.make ~rels:[| "r" |] ~a:1.5 ~b:[| 0.2; 1.5 |]));
  check_bool "diagonal violation" true
    (raises (fun () -> Gus.make ~rels:[| "r" |] ~a:0.5 ~b:[| 0.25; 0.7 |]));
  check_bool "duplicate relations" true
    (raises (fun () -> Gus.identity [| "r"; "r" |]))

(* ---- Example 2/3: Query 1 ---- *)

let query1_gus () =
  Gus.join (Gus.bernoulli ~rel:"lineitem" 0.1)
    (Gus.wor ~rel:"orders" ~n:1000 ~out_of:150000)

let test_example3_join () =
  let g = query1_gus () in
  (* order: lineitem = bit 0, orders = bit 1 *)
  close ~eps:1e-7 "a" 6.667e-4 g.Gus.a;
  close ~eps:1e-9 "b{}" 4.44e-7 (b g 0);
  close ~eps:1e-8 "b{l}" 4.44e-6 (b g 1);
  close ~eps:1e-7 "b{o}" 6.667e-5 (b g 2);
  close ~eps:1e-7 "b{l,o}" 6.667e-4 (b g 3)

let test_join_self_join_rejected () =
  let g1 = Gus.bernoulli ~rel:"r" 0.5 in
  check_bool "self join" true
    (try ignore (Gus.join g1 g1); false with Gus.Incompatible _ -> true)

(* ---- Example 5 / Figure 5 ---- *)

let test_example5_composition () =
  let g =
    Gus.join (Gus.bernoulli ~rel:"l" 0.2) (Gus.bernoulli ~rel:"o" 0.3)
  in
  close "a3" 0.06 g.Gus.a;
  close "b{}" 0.0036 (b g 0);
  close "b{l}" 0.018 (b g 1);
  close "b{o}" 0.012 (b g 2);
  close "b{l,o}" 0.06 (b g 3)

let test_figure5_compaction () =
  let g12 = query1_gus () in
  let g3 =
    Gus.join (Gus.bernoulli ~rel:"lineitem" 0.2) (Gus.bernoulli ~rel:"orders" 0.3)
  in
  let g = Gus.compact g3 g12 in
  close ~eps:1e-8 "a123 = 4e-5" 4e-5 g.Gus.a;
  close ~eps:1e-11 "b{} = 1.598e-9" 1.598e-9 (b g 0);
  close ~eps:1e-10 "b{l} = 7.992e-8" 7.992e-8 (b g 1);
  close ~eps:1e-9 "b{o} = 8e-7" 8e-7 (b g 2);
  close ~eps:1e-8 "b{l,o} = 4e-5" 4e-5 (b g 3)

(* ---- union (Prop 7) ---- *)

let test_union_two_bernoullis () =
  (* Union of two independent Bernoulli samples of R is Bernoulli with
     rate 1-(1-p1)(1-p2). *)
  let p1 = 0.3 and p2 = 0.5 in
  let u = Gus.union (Gus.bernoulli ~rel:"r" p1) (Gus.bernoulli ~rel:"r" p2) in
  let p = 1.0 -. ((1.0 -. p1) *. (1.0 -. p2)) in
  let expected = Gus.bernoulli ~rel:"r" p in
  check_bool "equals direct Bernoulli" true (Gus.equal_approx ~eps:1e-12 u expected)

let test_union_with_null_is_identity_element () =
  let g = Gus.bernoulli ~rel:"r" 0.4 in
  let u = Gus.union g (Gus.null [| "r" |]) in
  check_bool "G + 0 = G" true (Gus.equal_approx u g)

let test_union_schema_mismatch () =
  check_bool "mismatch" true
    (try
       ignore (Gus.union (Gus.bernoulli ~rel:"r" 0.5) (Gus.bernoulli ~rel:"s" 0.5));
       false
     with Gus.Incompatible _ -> true)

(* Rounding can leave a union's b entry at 1 + 2^-52 for a rate near 1;
   union clamps it into [0, 1] instead of failing Gus.make. *)
let test_union_rate_near_one () =
  let b = Gus.bernoulli ~rel:"r" in
  let u =
    Gus.union
      (Gus.union (b 0x1.824a48a63aedp-4) (b 0x1.fffffffffffffp-1))
      (b 0x1.8f71966001c64p-3)
  in
  check_bool "associates" true
    (Gus.equal_approx ~eps:1e-9 u
       (Gus.union (b 0x1.824a48a63aedp-4)
          (Gus.union (b 0x1.fffffffffffffp-1) (b 0x1.8f71966001c64p-3))))

(* ---- compaction (Prop 8) ---- *)

let test_compact_bernoullis () =
  let c = Gus.compact (Gus.bernoulli ~rel:"r" 0.4) (Gus.bernoulli ~rel:"r" 0.5) in
  check_bool "B(p1) stacked on B(p2) = B(p1 p2)" true
    (Gus.equal_approx c (Gus.bernoulli ~rel:"r" 0.2))

let test_compact_identity_null () =
  let g = Gus.wor ~rel:"r" ~n:10 ~out_of:100 in
  check_bool "G * 1 = G" true (Gus.equal_approx (Gus.compact g (Gus.identity [| "r" |])) g);
  let z = Gus.compact g (Gus.null [| "r" |]) in
  check_bool "G * 0 = 0" true (Gus.equal_approx z (Gus.null [| "r" |]))

(* ---- extend / permute ---- *)

let test_extend () =
  let g = Gus.bernoulli ~rel:"r" 0.5 in
  let e = Gus.extend g [| "s"; "t" |] in
  check Alcotest.int "3 rels" 3 (Gus.n_rels e);
  close "a unchanged" 0.5 e.Gus.a;
  (* b for any T: depends only on whether r ∈ T *)
  close "b{} = p^2" 0.25 (b e 0);
  close "b{s,t} = p^2" 0.25 (b e 6);
  close "b{r,s,t} = p" 0.5 (b e 7);
  check_bool "extend by nothing" true (Gus.equal_approx (Gus.extend g [||]) g)

let test_permute () =
  let g = Gus.join (Gus.bernoulli ~rel:"r" 0.2) (Gus.bernoulli ~rel:"s" 0.5) in
  let p = Gus.permute g [| "s"; "r" |] in
  close "a preserved" g.Gus.a p.Gus.a;
  (* b{r} in g (mask 1) must equal b{r} in p (mask 2) *)
  close "b{r}" (b g 1) (b p 2);
  close "b{s}" (b g 2) (b p 1);
  check_bool "double permute = original" true
    (Gus.equal_approx (Gus.permute p [| "r"; "s" |]) g);
  check_bool "bad permutation" true
    (try ignore (Gus.permute g [| "r"; "x" |]); false
     with Gus.Incompatible _ -> true)

(* ---- Theorem 1 machinery ---- *)

let test_c_fast_equals_naive () =
  List.iter
    (fun g ->
      let fast = Gus.c_coefficients g and naive = Dense_oracle.c_naive g in
      Array.iteri (fun i c -> close ~eps:1e-12 "c match" naive.(i) c) fast)
    [ Gus.bernoulli ~rel:"r" 0.3;
      query1_gus ();
      Gus.join (query1_gus ()) (Gus.bernoulli ~rel:"part" 0.5);
      Gus.identity [| "a"; "b"; "c" |] ]

let test_c_bernoulli_closed_form () =
  let p = 0.3 in
  let g = Gus.bernoulli ~rel:"r" p in
  let c = Gus.c_coefficients g in
  close "c_empty = p^2" (p *. p) c.(0);
  close "c_r = p - p^2" (p -. (p *. p)) c.(1)

let test_c_identity () =
  (* Identity GUS: c_∅ = 1, all others 0 -> zero variance. *)
  let g = Gus.identity [| "a"; "b" |] in
  let c = Gus.c_coefficients g in
  close "c_empty" 1.0 c.(0);
  close "c_a" 0.0 c.(1);
  close "c_b" 0.0 c.(2);
  close "c_ab" 0.0 c.(3)

let test_mobius_inverse () =
  (* sum_{T ⊆ S} c_T = b'_S: the transform inverts correctly. *)
  let g = query1_gus () in
  let c = Gus.c_coefficients g in
  Subset.iter_all (Gus.n_rels g) (fun s ->
      let acc = ref 0.0 in
      Subset.iter_subsets s (fun t -> acc := !acc +. c.(t));
      close ~eps:1e-12 "inverse transform" (b g s) !acc)

let test_variance_bernoulli_closed_form () =
  (* Var[(1/p) sum f] for Bernoulli(p) = (1-p)/p * sum f^2. *)
  let p = 0.25 in
  let g = Gus.bernoulli ~rel:"r" p in
  let fs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  let sum = Array.fold_left ( +. ) 0.0 fs in
  let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 fs in
  let y = [| sum *. sum; sumsq |] in
  close ~eps:1e-9 "bernoulli variance" ((1.0 -. p) /. p *. sumsq)
    (Gus.variance g ~y)

let test_variance_wor_closed_form () =
  (* Classic finite-population: Var = N^2 (1-f) S^2 / n. *)
  let n = 4 and nn = 10 in
  let g = Gus.wor ~rel:"r" ~n ~out_of:nn in
  let fs = Array.init nn (fun i -> float_of_int (i * i)) in
  let total = Array.fold_left ( +. ) 0.0 fs in
  let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 fs in
  let y = [| total *. total; sumsq |] in
  let mean = total /. float_of_int nn in
  let s2 =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 fs
    /. float_of_int (nn - 1)
  in
  let fr = float_of_int n /. float_of_int nn in
  let classic = float_of_int (nn * nn) *. (1.0 -. fr) *. s2 /. float_of_int n in
  close ~eps:1e-6 "wor variance" classic (Gus.variance g ~y)

let test_variance_identity_zero () =
  let g = Gus.identity [| "r" |] in
  close "no sampling, no variance" 0.0 (Gus.variance g ~y:[| 100.0; 42.0 |])

let test_variance_errors () =
  let g = Gus.bernoulli ~rel:"r" 0.5 in
  check_bool "wrong y length" true
    (try ignore (Gus.variance g ~y:[| 1.0 |]); false
     with Invalid_argument _ -> true);
  let z = Gus.null [| "r" |] in
  check_bool "a = 0" true
    (try ignore (Gus.variance z ~y:[| 1.0; 1.0 |]); false
     with Gus.Incompatible _ -> true)

let test_scale_up () =
  let g = Gus.bernoulli ~rel:"r" 0.1 in
  close "scale" 100.0 (Gus.scale_up g 10.0)

let test_d_correction_identities () =
  let g = query1_gus () in
  let n = Gus.n_rels g in
  Subset.iter_all n (fun s ->
      let d = Gus.d_correction g ~s in
      close ~eps:1e-12 "d_{S,S} = b_S" (b g s) d.(Subset.empty));
  (* full set: d over empty complement is just a *)
  let d_full = Gus.d_correction g ~s:(Subset.full n) in
  close "d_full" g.Gus.a d_full.(Subset.empty)

(* ---- qcheck: algebraic laws over randomly built GUS values ---- *)

let gus_gen rels =
  (* A random GUS over [rels] built from guaranteed-consistent pieces. *)
  let open QCheck2.Gen in
  let base rel =
    oneof
      [ (float_range 0.01 1.0 >|= fun p -> Gus.bernoulli ~rel p);
        ( pair (int_range 1 50) (int_range 0 50) >|= fun (nn, extra) ->
          Gus.wor ~rel ~n:(min nn (nn + extra)) ~out_of:(nn + extra) ) ]
  in
  let single rel =
    oneof
      [ base rel;
        (pair (base rel) (base rel) >|= fun (a, b) -> Gus.compact a b);
        (pair (base rel) (base rel) >|= fun (a, b) -> Gus.union a b) ]
  in
  let rec build = function
    | [] -> invalid_arg "gus_gen: empty"
    | [ r ] -> single r
    | r :: rest -> map2 Gus.join (single r) (build rest)
  in
  build rels

let prop_union_commutative =
  QCheck2.Test.make ~name:"union commutative" ~count:200
    QCheck2.Gen.(pair (gus_gen [ "r"; "s" ]) (gus_gen [ "r"; "s" ]))
    (fun (g1, g2) -> Gus.equal_approx ~eps:1e-9 (Gus.union g1 g2) (Gus.union g2 g1))

let prop_union_associative =
  QCheck2.Test.make ~name:"union associative" ~count:200
    QCheck2.Gen.(triple (gus_gen [ "r" ]) (gus_gen [ "r" ]) (gus_gen [ "r" ]))
    (fun (g1, g2, g3) ->
      Gus.equal_approx ~eps:1e-9
        (Gus.union (Gus.union g1 g2) g3)
        (Gus.union g1 (Gus.union g2 g3)))

let prop_compact_commutative =
  QCheck2.Test.make ~name:"compaction commutative" ~count:200
    QCheck2.Gen.(pair (gus_gen [ "r"; "s" ]) (gus_gen [ "r"; "s" ]))
    (fun (g1, g2) ->
      Gus.equal_approx ~eps:1e-9 (Gus.compact g1 g2) (Gus.compact g2 g1))

let prop_compact_associative =
  QCheck2.Test.make ~name:"compaction associative" ~count:200
    QCheck2.Gen.(triple (gus_gen [ "r" ]) (gus_gen [ "r" ]) (gus_gen [ "r" ]))
    (fun (g1, g2, g3) ->
      Gus.equal_approx ~eps:1e-9
        (Gus.compact (Gus.compact g1 g2) g3)
        (Gus.compact g1 (Gus.compact g2 g3)))

let prop_semiring_identities =
  QCheck2.Test.make ~name:"semiring identities (Thm 2)" ~count:200
    (gus_gen [ "r"; "s" ])
    (fun g ->
      let rels = g.Gus.rels in
      Gus.equal_approx ~eps:1e-9 (Gus.union g (Gus.null rels)) g
      && Gus.equal_approx ~eps:1e-9 (Gus.compact g (Gus.identity rels)) g
      && Gus.equal_approx ~eps:1e-9
           (Gus.compact g (Gus.null rels))
           (Gus.null rels))

let prop_join_symmetric_up_to_permutation =
  QCheck2.Test.make ~name:"join symmetric up to permutation" ~count:200
    QCheck2.Gen.(pair (gus_gen [ "r" ]) (gus_gen [ "s" ]))
    (fun (g1, g2) ->
      let ab = Gus.join g1 g2 in
      let ba = Gus.permute (Gus.join g2 g1) [| "r"; "s" |] in
      Gus.equal_approx ~eps:1e-9 ab ba)

let prop_c_transform_roundtrip =
  QCheck2.Test.make ~name:"c fast = c naive on random GUS" ~count:100
    (gus_gen [ "r"; "s"; "t" ])
    (fun g ->
      let fast = Gus.c_coefficients g and naive = Dense_oracle.c_naive g in
      Array.for_all2 (fun a bv -> Float.abs (a -. bv) < 1e-9) fast naive)

let prop_probability_consistency =
  (* Any GUS built from real samplers satisfies b_T <= min over supersets:
     agreeing on more lineage can only help (for our independent pieces,
     b is monotone in T). *)
  QCheck2.Test.make ~name:"b monotone in T for sampler-built GUS" ~count:200
    (gus_gen [ "r"; "s" ])
    (fun g ->
      let ok = ref true in
      let n = Gus.n_rels g in
      Subset.iter_all n (fun s ->
          Subset.iter_all n (fun t ->
              if Subset.subset s t && Gus.b_get g s > Gus.b_get g t +. 1e-12 then
                ok := false));
      !ok)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_commutative; prop_union_associative; prop_compact_commutative;
      prop_compact_associative; prop_semiring_identities;
      prop_join_symmetric_up_to_permutation; prop_c_transform_roundtrip;
      prop_probability_consistency ]

let () =
  Alcotest.run "gus_core.gus"
    [ ( "constructors",
        [ Alcotest.test_case "bernoulli (Fig 1)" `Quick test_bernoulli_params;
          Alcotest.test_case "wor (Fig 1)" `Quick test_wor_params;
          Alcotest.test_case "wor edge cases" `Quick test_wor_edges;
          Alcotest.test_case "identity / null" `Quick test_identity_null;
          Alcotest.test_case "bernoulli over derived" `Quick test_bernoulli_over;
          Alcotest.test_case "validation" `Quick test_make_validation ] );
      ( "paper-examples",
        [ Alcotest.test_case "Example 3 join" `Quick test_example3_join;
          Alcotest.test_case "self-join rejected" `Quick test_join_self_join_rejected;
          Alcotest.test_case "Example 5 composition" `Quick test_example5_composition;
          Alcotest.test_case "Figure 5 compaction" `Quick test_figure5_compaction ] );
      ( "union-compact",
        [ Alcotest.test_case "union of Bernoullis" `Quick test_union_two_bernoullis;
          Alcotest.test_case "union null element" `Quick test_union_with_null_is_identity_element;
          Alcotest.test_case "union schema mismatch" `Quick test_union_schema_mismatch;
          Alcotest.test_case "union at a rate near 1" `Quick test_union_rate_near_one;
          Alcotest.test_case "compact Bernoullis" `Quick test_compact_bernoullis;
          Alcotest.test_case "compact identity/null" `Quick test_compact_identity_null ] );
      ( "reshaping",
        [ Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "permute" `Quick test_permute ] );
      ( "theorem1",
        [ Alcotest.test_case "c fast = naive" `Quick test_c_fast_equals_naive;
          Alcotest.test_case "c Bernoulli closed form" `Quick test_c_bernoulli_closed_form;
          Alcotest.test_case "c identity" `Quick test_c_identity;
          Alcotest.test_case "Mobius inverse" `Quick test_mobius_inverse;
          Alcotest.test_case "variance: Bernoulli closed form" `Quick test_variance_bernoulli_closed_form;
          Alcotest.test_case "variance: WOR finite population" `Quick test_variance_wor_closed_form;
          Alcotest.test_case "variance: identity = 0" `Quick test_variance_identity_zero;
          Alcotest.test_case "variance errors" `Quick test_variance_errors;
          Alcotest.test_case "scale_up" `Quick test_scale_up;
          Alcotest.test_case "d-correction identities" `Quick test_d_correction_identities ] );
      ("laws", qcheck_tests) ]
