(* Tests for the y_S / Y_S moment computation (Section 6.3's group-by
   lineage machinery): the one kernel, [Moments.Acc], and the relation
   feed in front of it. *)

module Moments = Gus_estimator.Moments
module Subset = Gus_util.Subset
open Gus_relational

let check = Alcotest.check
let check_bool = check Alcotest.bool
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

(* The kernel over [(lineage, values)] rows with [k] values each. *)
let kernel ~n_rels ~k rows =
  let acc = Moments.Acc.create ~k ~n_rels () in
  Array.iter (fun (l, vs) -> Moments.Acc.add_values acc l vs) rows;
  Moments.Acc.finalize acc

(* The k = 1 moment vector of [(lineage, f)] pairs. *)
let moments ~n_rels pairs =
  let acc = Moments.Acc.create ~n_rels () in
  Array.iter (fun (l, f) -> Moments.Acc.add acc l f) pairs;
  (Moments.Acc.finalize acc).(0).(0)

let bilinear ~n_rels tri =
  (kernel ~n_rels ~k:2 (Array.map (fun (l, f, g) -> (l, [| f; g |])) tri)).(0).(1)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

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
  let y = moments ~n_rels:2 fixture in
  close "y_empty" 100.0 y.(0);
  close "y_r" 58.0 y.(1);
  close "y_s" 52.0 y.(2);
  close "y_rs" 30.0 y.(3)

let test_single_relation () =
  let pairs = [| ([| 0 |], 2.0); ([| 1 |], 3.0); ([| 2 |], 5.0) |] in
  let y = moments ~n_rels:1 pairs in
  close "y_empty = total^2" 100.0 y.(0);
  close "y_r = sum of squares" 38.0 y.(1)

let test_duplicate_lineage_grouped () =
  (* Block-granular lineage: several tuples share the full lineage and must
     be summed inside their group even at S = full. *)
  let pairs = [| ([| 7 |], 1.0); ([| 7 |], 2.0); ([| 8 |], 10.0) |] in
  let y = moments ~n_rels:1 pairs in
  close "y_empty" 169.0 y.(0);
  close "y_full grouped" (9.0 +. 100.0) y.(1)

let test_empty_input () =
  let y = moments ~n_rels:2 [||] in
  Array.iter (fun v -> close "all zero" 0.0 v) y

let test_zero_rels () =
  let y = moments ~n_rels:0 [| ([||], 3.0); ([||], 4.0) |] in
  close "single moment = total^2" 49.0 y.(0)

let test_length_mismatch () =
  let reject what f =
    check_bool what true (try f (); false with Invalid_argument _ -> true)
  in
  reject "lineage length" (fun () ->
      Moments.Acc.add (Moments.Acc.create ~n_rels:2 ()) [| 1 |] 1.0);
  reject "value count" (fun () ->
      Moments.Acc.add_values
        (Moments.Acc.create ~k:2 ~n_rels:1 ())
        [| 1 |] [| 1.0 |]);
  reject "add on k = 2" (fun () ->
      Moments.Acc.add (Moments.Acc.create ~k:2 ~n_rels:1 ()) [| 1 |] 1.0);
  reject "too many relations" (fun () ->
      ignore (Moments.Acc.create ~n_rels:(Subset.max_universe + 1) ()))

let test_monotone_in_subsets () =
  (* For non-negative f, y_S decreases as S grows (coarser groups give
     bigger squares): y_∅ >= y_{r} >= y_{rs} etc. along chains. *)
  let y = moments ~n_rels:2 fixture in
  check_bool "y_empty >= y_r" true (y.(0) >= y.(1));
  check_bool "y_empty >= y_s" true (y.(0) >= y.(2));
  check_bool "y_r >= y_rs" true (y.(1) >= y.(3));
  check_bool "y_s >= y_rs" true (y.(2) >= y.(3))

let test_bilinear_reduces_to_plain () =
  let yb = bilinear ~n_rels:2 (Array.map (fun (l, f) -> (l, f, f)) fixture) in
  let y = moments ~n_rels:2 fixture in
  Array.iteri (fun i v -> check_bool "f=g agreement" true (same y.(i) v)) yb

let test_bilinear_hand_computed () =
  (* g = 1 everywhere: y^{fg}_S = sum over groups (sum f)(group size). *)
  let yb = bilinear ~n_rels:2 (Array.map (fun (l, f) -> (l, f, 1.0)) fixture) in
  close "empty: total_f * total_g" 40.0 yb.(0);
  close "r: 3*2 + 7*2" 20.0 yb.(1);
  close "s: 4*2 + 6*2" 20.0 yb.(2);
  close "rs: sum f*1" 10.0 yb.(3)

let test_bilinear_symmetric () =
  let tri = [| ([| 0; 0 |], 1.0, 5.0); ([| 0; 1 |], 2.0, 6.0); ([| 1; 1 |], 3.0, 7.0) |] in
  let flipped = Array.map (fun (l, f, g) -> (l, g, f)) tri in
  let a = bilinear ~n_rels:2 tri in
  let b = bilinear ~n_rels:2 flipped in
  Array.iteri (fun i v -> check_bool "symmetry" true (same b.(i) v)) a

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
  let acc = Moments.feed ~slots:[| 0 |] ~fs:[| Expr.col "v"; Expr.col "k" |] r in
  close "total" 5.0 (Moments.Acc.total acc 0);
  close "second total" 6.0 (Moments.Acc.total acc 1);
  check Alcotest.int "tuple count" 3 (Moments.Acc.count acc);
  let some = Moments.feed ~rows:[| 2; 0 |] ~slots:[||] ~fs:[| Expr.col "k" |] r in
  close "row subset total" 4.0 (Moments.Acc.total some 0);
  check Alcotest.int "row subset count" 2 (Moments.Acc.count some)

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
      let y = moments ~n_rels:2 pairs in
      let ok = ref true in
      for s = 0 to 3 do
        let bf = brute_force_y pairs s in
        if Float.abs (y.(s) -. bf) > 1e-6 *. Float.max 1.0 (Float.abs bf) then
          ok := false
      done;
      !ok)

(* Property: the cross moment y^{fg}_S of a k = 2 run equals the
   brute-force double sum of f(t)·g(t') over pairs agreeing on S, over
   0–6 relations with ids from a tiny range (genuine groups) and a
   duplicated prefix (tuples sharing a full lineage). *)
let triples_gen =
  QCheck2.Gen.(
    int_range 0 6 >>= fun n_rels ->
    list_size (int_range 0 40)
      (pair
         (list_repeat n_rels (int_range 0 3))
         (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)))
    >>= fun base ->
    int_range 0 (List.length base) >|= fun dup ->
    let tri = List.map (fun (l, (f, g)) -> (Array.of_list l, f, g)) base in
    (n_rels, Array.of_list (tri @ List.filteri (fun i _ -> i < dup) tri)))

let brute_force_yfg tri s =
  let acc = ref 0.0 in
  Array.iter
    (fun (l1, f, _) ->
      Array.iter
        (fun (l2, _, g) ->
          if List.for_all (fun i -> l1.(i) = l2.(i)) (Subset.elements s) then
            acc := !acc +. (f *. g))
        tri)
    tri;
  !acc

let prop_cross_matches_brute_force =
  QCheck2.Test.make ~name:"y^fg_S equals brute-force pair sum" ~count:200
    triples_gen (fun (n_rels, tri) ->
      let y = bilinear ~n_rels tri in
      let ok = ref true in
      for s = 0 to Subset.full n_rels do
        let bf = brute_force_yfg tri s in
        if Float.abs (y.(s) -. bf) > 1e-6 *. Float.max 1.0 (Float.abs bf) then
          ok := false
      done;
      !ok)

let prop_mobius_z_nonneg_sum =
  (* z_S = sum_{T ⊇ S} (-1)^{|T|-|S|} y_T are exact-agreement sums; their
     total over all S must equal y_∅. *)
  QCheck2.Test.make ~name:"Mobius inversion of y sums to y_empty" ~count:100
    pairs_gen (fun pairs ->
      let y = moments ~n_rels:2 pairs in
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

(* ---- the kernel against the first-seen oracle, bit for bit ---------- *)

let all_same a b =
  Array.length a = Array.length b && Array.for_all2 same a b

(* y.(i).(j) tables agree bitwise on every i ≤ j and mask. *)
let tables_same ~k a b =
  let ok = ref true in
  for i = 0 to k - 1 do
    for j = i to k - 1 do
      if not (all_same a.(i).(j) b.(i).(j)) then ok := false
    done
  done;
  !ok

(* A sample as a relation: [width] lineage columns with ids drawn from a
   tiny range (genuine groups), [k] float value columns, a duplicated
   prefix (block-granular inputs where several tuples share a full
   lineage), and the live slots: an ascending subset of 0–6 lineage
   positions. *)
let sample_gen =
  QCheck2.Gen.(
    int_range 1 3 >>= fun k ->
    int_range 0 8 >>= fun width ->
    list_size (int_range 0 40)
      (pair
         (list_repeat width (int_range 0 3))
         (list_repeat k (float_range (-5.0) 5.0)))
    >>= fun base ->
    int_range 0 (List.length base) >>= fun dup ->
    int_range 0 (Subset.full width) >|= fun live ->
    let rows =
      List.map (fun (l, vs) -> (Array.of_list l, Array.of_list vs)) base
    in
    let rows = rows @ List.filteri (fun i _ -> i < dup) rows in
    let slots =
      Array.of_list (List.filteri (fun i _ -> i < 6) (Subset.elements live))
    in
    (k, width, Array.of_list rows, slots))

let print_sample (k, width, rows, slots) =
  Printf.sprintf "k=%d width=%d rows=%d slots=[%s]" k width (Array.length rows)
    (String.concat ";" (Array.to_list (Array.map string_of_int slots)))

let relation_of ~k ~width rows =
  let schema =
    Schema.make
      (List.init k (fun j ->
           { Schema.name = Printf.sprintf "f%d" j; ty = Value.TFloat }))
  in
  let rel =
    Relation.derived schema (Array.init width (Printf.sprintf "r%d"))
  in
  Array.iter
    (fun (l, vs) ->
      Relation.append_tuple rel
        (Tuple.make (Array.map (fun v -> Value.Float v) vs) l))
    rows;
  rel

let value_exprs k = Array.init k (fun j -> Expr.col (Printf.sprintf "f%d" j))

let prop_kernel_matches_oracle =
  QCheck2.Test.make ~name:"kernel = first-seen oracle, bitwise"
    ~count:300 ~print:print_sample sample_gen (fun (k, width, rows, slots) ->
      let rel = relation_of ~k ~width rows in
      let y =
        Moments.Acc.finalize (Moments.feed ~slots ~fs:(value_exprs k) rel)
      in
      let narrow =
        Array.map (fun (l, vs) -> (Array.map (fun p -> l.(p)) slots, vs)) rows
      in
      let n_rels = Array.length slots in
      tables_same ~k y (Dense_oracle.group_moments ~n_rels ~k narrow)
      && tables_same ~k y (kernel ~n_rels ~k narrow))

(* One value of a k-value run is the k = 1 run on that value alone: adding
   an AVG or a second SUM to a SELECT never moves the first item's bits. *)
let prop_k_run_diagonal =
  QCheck2.Test.make ~name:"k-value run diagonal = single-value run, bitwise"
    ~count:300 ~print:print_sample sample_gen (fun (k, width, rows, slots) ->
      let rel = relation_of ~k ~width rows in
      let fs = value_exprs k in
      let y = Moments.Acc.finalize (Moments.feed ~slots ~fs rel) in
      let ok = ref true in
      for i = 0 to k - 1 do
        let one = Moments.Acc.finalize (Moments.feed ~slots ~fs:[| fs.(i) |] rel) in
        if not (all_same y.(i).(i) one.(0).(0)) then ok := false
      done;
      !ok)

(* A run over some live slots computes, at every one of its masks,
   exactly the full-lineage run's entry at the embedded mask: same
   groups, same first-seen order, same sums. *)
let prop_view_bit_identical =
  QCheck2.Test.make ~name:"view kernel = full kernel, bitwise" ~count:200
    ~print:print_sample sample_gen (fun (k, width, rows, slots) ->
      let rel = relation_of ~k ~width rows in
      let fs = value_exprs k in
      let viewed = Moments.Acc.finalize (Moments.feed ~slots ~fs rel) in
      let full =
        Moments.Acc.finalize
          (Moments.feed ~slots:(Array.init width Fun.id) ~fs rel)
      in
      let embed s =
        List.fold_left
          (fun m j -> Subset.add m slots.(j))
          Subset.empty (Subset.elements s)
      in
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = i to k - 1 do
          for s = 0 to Subset.full (Array.length slots) do
            if not (same viewed.(i).(j).(s) full.(i).(j).(embed s)) then
              ok := false
          done
        done
      done;
      !ok)

(* One deterministic input, large enough to grow the buffer from its
   default size, finalized once per lane of pools of 1, 2 and 4 lanes at
   the same time: the kernel's scratch is per call, so concurrent runs
   on several domains (as in a served batch) all give the oracle's
   bits. *)
let test_kernel_large_parallel () =
  let rng = Gus_util.Rng.create 4242 in
  let rows =
    Array.init 6000 (fun _ ->
        ( Array.init 3 (fun _ -> Gus_util.Rng.int rng 50),
          [| Gus_util.Rng.float rng; Gus_util.Rng.float rng |] ))
  in
  let acc = Moments.Acc.create ~k:2 ~n_rels:3 () in
  Array.iter (fun (l, vs) -> Moments.Acc.add_values acc l vs) rows;
  let expect = Dense_oracle.group_moments ~n_rels:3 ~k:2 rows in
  List.iter
    (fun lanes ->
      let pool = Gus_util.Pool.create ~size:lanes in
      Fun.protect ~finally:(fun () -> Gus_util.Pool.shutdown pool) @@ fun () ->
      let ys = Array.make lanes [||] in
      Gus_util.Pool.run_chunks pool ~lo:0 ~hi:lanes (fun lo hi ->
          for i = lo to hi - 1 do
            ys.(i) <- Moments.Acc.finalize acc
          done);
      Array.iter
        (fun y ->
          check_bool
            (Printf.sprintf "pool %d: bitwise = oracle" lanes)
            true (tables_same ~k:2 y expect))
        ys)
    [ 1; 2; 4 ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_brute_force; prop_mobius_z_nonneg_sum;
      prop_kernel_matches_oracle; prop_cross_matches_brute_force;
      prop_k_run_diagonal; prop_view_bit_identical ]

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
