(* Tests for the y_S / Y_S moment computation (Section 6.3's group-by
   lineage machinery). *)

module Moments = Gus_estimator.Moments
module Subset = Gus_util.Subset
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

(* Hand-computed 2-relation fixture:
   pairs (lineage (r,s), f):
     (0,0) -> 1
     (0,1) -> 2
     (1,0) -> 3
     (1,1) -> 4
   y_{} = (1+2+3+4)^2 = 100
   y_{r} = (1+2)^2 + (3+4)^2 = 9 + 49 = 58
   y_{s} = (1+3)^2 + (2+4)^2 = 16 + 36 = 52
   y_{rs} = 1 + 4 + 9 + 16 = 30 *)
let fixture =
  [| ([| 0; 0 |], 1.0); ([| 0; 1 |], 2.0); ([| 1; 0 |], 3.0); ([| 1; 1 |], 4.0) |]

let test_hand_computed () =
  let y = Moments.of_pairs ~n_rels:2 fixture in
  close "y_empty" 100.0 y.(0);
  close "y_r" 58.0 y.(1);
  close "y_s" 52.0 y.(2);
  close "y_rs" 30.0 y.(3)

let test_single_relation () =
  let pairs = [| ([| 0 |], 2.0); ([| 1 |], 3.0); ([| 2 |], 5.0) |] in
  let y = Moments.of_pairs ~n_rels:1 pairs in
  close "y_empty = total^2" 100.0 y.(0);
  close "y_r = sum of squares" 38.0 y.(1)

let test_duplicate_lineage_grouped () =
  (* Block-granular lineage: several tuples share the full lineage and must
     be summed inside their group even at S = full. *)
  let pairs = [| ([| 7 |], 1.0); ([| 7 |], 2.0); ([| 8 |], 10.0) |] in
  let y = Moments.of_pairs ~n_rels:1 pairs in
  close "y_empty" 169.0 y.(0);
  close "y_full grouped" (9.0 +. 100.0) y.(1)

let test_empty_input () =
  let y = Moments.of_pairs ~n_rels:2 [||] in
  Array.iter (fun v -> close "all zero" 0.0 v) y

let test_zero_rels () =
  let y = Moments.of_pairs ~n_rels:0 [| ([||], 3.0); ([||], 4.0) |] in
  close "single moment = total^2" 49.0 y.(0)

let test_length_mismatch () =
  check_bool "lineage length" true
    (try ignore (Moments.of_pairs ~n_rels:2 [| ([| 1 |], 1.0) |]); false
     with Invalid_argument _ -> true)

let test_monotone_in_subsets () =
  (* For non-negative f, y_S decreases as S grows (coarser groups give
     bigger squares): y_∅ >= y_{r} >= y_{rs} etc. along chains. *)
  let y = Moments.of_pairs ~n_rels:2 fixture in
  check_bool "y_empty >= y_r" true (y.(0) >= y.(1));
  check_bool "y_empty >= y_s" true (y.(0) >= y.(2));
  check_bool "y_r >= y_rs" true (y.(1) >= y.(3));
  check_bool "y_s >= y_rs" true (y.(2) >= y.(3))

let test_bilinear_reduces_to_plain () =
  let tri = Array.map (fun (l, f) -> (l, f, f)) fixture in
  let yb = Moments.bilinear_of_pairs ~n_rels:2 tri in
  let y = Moments.of_pairs ~n_rels:2 fixture in
  Array.iteri (fun i v -> close "f=g agreement" y.(i) v) yb

let test_bilinear_hand_computed () =
  (* g = 1 everywhere: y^{fg}_S = sum over groups (sum f)(group size). *)
  let tri = Array.map (fun (l, f) -> (l, f, 1.0)) fixture in
  let yb = Moments.bilinear_of_pairs ~n_rels:2 tri in
  close "empty: total_f * total_g" 40.0 yb.(0);
  close "r: 3*2 + 7*2" 20.0 yb.(1);
  close "s: 4*2 + 6*2" 20.0 yb.(2);
  close "rs: sum f*1" 10.0 yb.(3)

let test_bilinear_symmetric () =
  let tri = [| ([| 0; 0 |], 1.0, 5.0); ([| 0; 1 |], 2.0, 6.0); ([| 1; 1 |], 3.0, 7.0) |] in
  let flipped = Array.map (fun (l, f, g) -> (l, g, f)) tri in
  let a = Moments.bilinear_of_pairs ~n_rels:2 tri in
  let b = Moments.bilinear_of_pairs ~n_rels:2 flipped in
  Array.iteri (fun i v -> close "symmetry" b.(i) v) a

let test_of_relation () =
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TFloat } ]
  in
  let r = Relation.create_base ~name:"r" schema in
  Relation.append_row r [| Value.Int 1; Value.Float 2.0 |];
  Relation.append_row r [| Value.Int 2; Value.Float 3.0 |];
  Relation.append_row r [| Value.Int 3; Value.Null |];
  let y = Moments.of_relation ~f:(Expr.col "v") r in
  close "null treated as 0" 25.0 y.(0);
  close "sum of squares" 13.0 y.(1);
  let pairs = Moments.pairs_of_relation ~f:(Expr.col "v") r in
  close "total" 5.0 (Moments.total pairs);
  check Alcotest.int "pair count" 3 (Array.length pairs)

(* Property: y_S computed by the implementation equals the brute-force
   double sum over pairs agreeing on S. *)
let pairs_gen =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (pair (pair (int_range 0 4) (int_range 0 4)) (float_range (-5.0) 5.0))
    >|= fun l ->
    Array.of_list (List.map (fun ((a, b), f) -> ([| a; b |], f)) l))

let brute_force_y pairs s =
  let agree (l1 : int array) l2 =
    let ok = ref true in
    Array.iteri
      (fun i v -> if Subset.mem s i && v <> l2.(i) then ok := false)
      l1;
    !ok
  in
  let acc = ref 0.0 in
  Array.iter
    (fun (l1, f1) ->
      Array.iter (fun (l2, f2) -> if agree l1 l2 then acc := !acc +. (f1 *. f2)) pairs)
    pairs;
  !acc

let prop_matches_brute_force =
  QCheck2.Test.make ~name:"y_S equals brute-force pair sum" ~count:100 pairs_gen
    (fun pairs ->
      let y = Moments.of_pairs ~n_rels:2 pairs in
      let ok = ref true in
      for s = 0 to 3 do
        let bf = brute_force_y pairs s in
        if Float.abs (y.(s) -. bf) > 1e-6 *. Float.max 1.0 (Float.abs bf) then
          ok := false
      done;
      !ok)

let prop_mobius_z_nonneg_sum =
  (* z_S = sum_{T ⊇ S} (-1)^{|T|-|S|} y_T are exact-agreement sums; their
     total over all S must equal y_∅. *)
  QCheck2.Test.make ~name:"Mobius inversion of y sums to y_empty" ~count:100
    pairs_gen (fun pairs ->
      let y = Moments.of_pairs ~n_rels:2 pairs in
      let z s =
        let acc = ref 0.0 in
        Subset.iter_supersets 2 s (fun t ->
            let sign =
              if (Subset.cardinal (Subset.diff t s)) land 1 = 0 then 1.0 else -1.0
            in
            acc := !acc +. (sign *. y.(t)));
        !acc
      in
      let total = z 0 +. z 1 +. z 2 +. z 3 in
      Float.abs (total -. y.(0)) <= 1e-6 *. Float.max 1.0 (Float.abs y.(0)))

(* ---- optimized kernel vs the test-side naive reference ---------------- *)

(* Pools of size 1 (inline), 2 (always at least one worker domain), and the
   machine's recommended count.  par_threshold:0 forces the parallel path
   even on tiny inputs so the fan-out itself is exercised. *)
let pools =
  lazy
    (let module Pool = Gus_util.Pool in
     [ Pool.create ~size:1;
       Pool.create ~size:2;
       Pool.create ~size:(Pool.recommended_size ()) ])

(* Random (lineage, f, g) triples over 0..6 relations with ids drawn from a
   tiny range (to force genuine groups) and a duplicated prefix (to cover
   block-granular inputs where several tuples share a full lineage). *)
let kernel_gen =
  QCheck2.Gen.(
    int_range 0 6 >>= fun n_rels ->
    list_size (int_range 0 40)
      (pair
         (list_repeat n_rels (int_range 0 3))
         (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)))
    >>= fun base ->
    int_range 0 (List.length base) >|= fun dup ->
    let tri =
      List.map (fun (l, (f, g)) -> (Array.of_list l, f, g)) base
    in
    let blocks = List.filteri (fun i _ -> i < dup) tri in
    (n_rels, Array.of_list (tri @ blocks)))

let close_rel ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs b)

let prop_kernel_matches_naive =
  QCheck2.Test.make ~name:"of_pairs kernel = naive (pool sizes 1/2/N)"
    ~count:200 kernel_gen (fun (n_rels, tri) ->
      let pairs = Array.map (fun (l, f, _) -> (l, f)) tri in
      let reference = Dense_oracle.moments ~n_rels pairs in
      List.for_all
        (fun pool ->
          let y = Moments.of_pairs ~pool ~par_threshold:0 ~n_rels pairs in
          Array.for_all2 close_rel y reference)
        (Lazy.force pools))

let prop_bilinear_kernel_matches_naive =
  QCheck2.Test.make
    ~name:"bilinear_of_pairs kernel = naive (pool sizes 1/2/N)" ~count:200
    kernel_gen (fun (n_rels, tri) ->
      let reference = Dense_oracle.bilinear_moments ~n_rels tri in
      List.for_all
        (fun pool ->
          let y = Moments.bilinear_of_pairs ~pool ~par_threshold:0 ~n_rels tri in
          Array.for_all2 close_rel y reference)
        (Lazy.force pools))

let test_kernel_large_parallel () =
  (* One deterministic above-threshold input per pool, so the default
     threshold path and chunked fan-out both run on real volume. *)
  let rng = Gus_util.Rng.create 4242 in
  let pairs =
    Array.init 6000 (fun _ ->
        (Array.init 3 (fun _ -> Gus_util.Rng.int rng 50), Gus_util.Rng.float rng))
  in
  let reference = Dense_oracle.moments ~n_rels:3 pairs in
  List.iter
    (fun pool ->
      let y = Moments.of_pairs ~pool ~n_rels:3 pairs in
      Array.iteri
        (fun s v ->
          close ~eps:(1e-9 *. Float.max 1.0 (Float.abs reference.(s)))
            (Printf.sprintf "y.(%d)" s) reference.(s) v)
        y)
    (Lazy.force pools)

(* ---- views: a kernel over a subset of the lineage columns computes,
   at every one of its masks, exactly the full kernel's entry at the
   embedded mask (same code path, same order — not merely close) ---- *)

let view_gen =
  QCheck2.Gen.(
    kernel_gen >>= fun (n_rels, tri) ->
    int_range 0 (Subset.full n_rels) >|= fun live -> (n_rels, tri, live))

let prop_view_bit_identical =
  QCheck2.Test.make
    ~name:"view kernel = full kernel, bitwise"
    ~count:200 view_gen (fun (n_rels, tri, live) ->
      let pairs = Array.map (fun (l, f, _) -> (l, f)) tri in
      let view = Array.of_list (Subset.elements live) in
      let k = Array.length view in
      let lineage_width = n_rels in
      let full = Moments.of_pairs ~n_rels pairs in
      let viewed = Moments.of_pairs ~view ~lineage_width ~n_rels:k pairs in
      let bilinear_full = Moments.bilinear_of_pairs ~n_rels tri in
      let bilinear_viewed =
        Moments.bilinear_of_pairs ~view ~lineage_width ~n_rels:k tri
      in
      (* the streaming accumulator's group tables run the same path *)
      let acc = Moments.Acc.create ~view ~lineage_width ~n_rels:k () in
      let acc_full = Moments.Acc.create ~n_rels () in
      Array.iter
        (fun (l, f) ->
          Moments.Acc.add acc l f;
          Moments.Acc.add acc_full l f)
        pairs;
      let streamed = Moments.Acc.finalize acc in
      let streamed_full = Moments.Acc.finalize acc_full in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let embed s =
        List.fold_left
          (fun m j -> Subset.add m view.(j))
          Subset.empty (Subset.elements s)
      in
      let ok = ref true in
      for s = 0 to Subset.full k do
        let e = embed s in
        if not (same viewed.(s) full.(e)) then ok := false;
        if not (same bilinear_viewed.(s) bilinear_full.(e)) then ok := false;
        if not (same streamed.(s) streamed_full.(e)) then ok := false
      done;
      !ok)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_brute_force; prop_mobius_z_nonneg_sum;
      prop_kernel_matches_naive; prop_bilinear_kernel_matches_naive;
      prop_view_bit_identical ]

let () =
  Alcotest.run "gus_estimator.moments"
    [ ( "unit",
        [ Alcotest.test_case "hand-computed 2-rel" `Quick test_hand_computed;
          Alcotest.test_case "single relation" `Quick test_single_relation;
          Alcotest.test_case "duplicate lineage (block)" `Quick test_duplicate_lineage_grouped;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "zero relations" `Quick test_zero_rels;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "monotone along chains" `Quick test_monotone_in_subsets ] );
      ( "bilinear",
        [ Alcotest.test_case "f=g reduces to plain" `Quick test_bilinear_reduces_to_plain;
          Alcotest.test_case "hand-computed" `Quick test_bilinear_hand_computed;
          Alcotest.test_case "symmetric" `Quick test_bilinear_symmetric ] );
      ( "relation",
        [ Alcotest.test_case "of_relation with nulls" `Quick test_of_relation ] );
      ( "kernel",
        [ Alcotest.test_case "large input across pools" `Quick
            test_kernel_large_parallel ] );
      ("properties", qcheck_tests) ]
