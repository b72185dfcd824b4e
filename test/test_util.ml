(* Unit and property tests for gus_util: Vec, Subset, Rng, Hashing, Dist,
   Tablefmt. *)

module Vec = Gus_util.Vec
module Subset = Gus_util.Subset
module Rng = Gus_util.Rng
module Hashing = Gus_util.Hashing
module Dist = Gus_util.Dist
module Tablefmt = Gus_util.Tablefmt

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float what = check (Alcotest.float 1e-9) what

(* ---- Vec ---- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 7" 49 (Vec.get v 7);
  check_int "get 99" 9801 (Vec.get v 99)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index -1 out of bounds [0,3)")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vec: index 3 out of bounds [0,3)")
    (fun () -> ignore (Vec.get v 3))

let test_vec_set () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.set v 1 42;
  check (Alcotest.list Alcotest.int) "after set" [ 1; 42; 3 ] (Vec.to_list v)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2 ] in
  check (Alcotest.option Alcotest.int) "pop" (Some 2) (Vec.pop v);
  check (Alcotest.option Alcotest.int) "pop" (Some 1) (Vec.pop v);
  check (Alcotest.option Alcotest.int) "pop empty" None (Vec.pop v);
  check_bool "empty" true (Vec.is_empty v)

let test_vec_iter_fold_map () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Vec.fold ( + ) 0 v);
  let doubled = Vec.map (fun x -> 2 * x) v in
  check (Alcotest.list Alcotest.int) "map" [ 2; 4; 6; 8 ] (Vec.to_list doubled);
  let evens = Vec.filter (fun x -> x mod 2 = 0) v in
  check (Alcotest.list Alcotest.int) "filter" [ 2; 4 ] (Vec.to_list evens);
  check_bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check_bool "for_all" true (Vec.for_all (fun x -> x > 0) v);
  check_bool "for_all false" false (Vec.for_all (fun x -> x > 1) v)

let test_vec_append_sort () =
  let a = Vec.of_list [ 3; 1 ] and b = Vec.of_list [ 2 ] in
  Vec.append a b;
  Vec.sort compare a;
  check (Alcotest.list Alcotest.int) "append+sort" [ 1; 2; 3 ] (Vec.to_list a)

let test_vec_clear_make () =
  let v = Vec.make 5 7 in
  check_int "make length" 5 (Vec.length v);
  check_int "make value" 7 (Vec.get v 4);
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v)

(* ---- Subset ---- *)

let test_subset_basics () =
  let s = Subset.of_elements [ 0; 2; 5 ] in
  check_int "cardinal" 3 (Subset.cardinal s);
  check_bool "mem 2" true (Subset.mem s 2);
  check_bool "mem 1" false (Subset.mem s 1);
  check (Alcotest.list Alcotest.int) "elements" [ 0; 2; 5 ] (Subset.elements s);
  check_int "remove" 2 (Subset.cardinal (Subset.remove s 2));
  check_int "full 3" 7 (Subset.full 3);
  check_int "complement" (Subset.of_elements [ 1; 3; 4 ])
    (Subset.complement 6 s)

let test_subset_algebra () =
  let a = Subset.of_elements [ 0; 1 ] and b = Subset.of_elements [ 1; 2 ] in
  check_int "inter" (Subset.singleton 1) (Subset.inter a b);
  check_int "union" (Subset.of_elements [ 0; 1; 2 ]) (Subset.union a b);
  check_int "diff" (Subset.singleton 0) (Subset.diff a b);
  check_bool "subset yes" true (Subset.subset (Subset.singleton 1) a);
  check_bool "subset no" false (Subset.subset a b)

let test_subset_iteration () =
  let count = ref 0 in
  Subset.iter_all 4 (fun _ -> incr count);
  check_int "iter_all 2^4" 16 !count;
  let subs = ref [] in
  Subset.iter_subsets (Subset.of_elements [ 0; 2 ]) (fun s -> subs := s :: !subs);
  check (Alcotest.list Alcotest.int) "subsets of {0,2}" [ 5; 4; 1; 0 ] !subs;
  let downs = ref [] in
  Subset.iter_subsets_down (Subset.of_elements [ 0; 2 ]) (fun s ->
      downs := s :: !downs);
  check (Alcotest.list Alcotest.int) "subsets of {0,2} down" [ 0; 1; 4; 5 ] !downs;
  let sups = ref 0 in
  Subset.iter_supersets 4 (Subset.of_elements [ 1 ]) (fun _ -> incr sups);
  check_int "supersets of {1} in univ 4" 8 !sups

let test_subset_limits () =
  Alcotest.check_raises "universe too big"
    (Invalid_argument "Subset: universe size 27 not in [0,26]") (fun () ->
      ignore (Subset.full 27));
  check_int "count 0" 1 (Subset.count 0);
  check_int "full 0" 0 (Subset.full 0)

let test_subset_sign () =
  check_float "even" 1.0 (Subset.sign (Subset.of_elements [ 0 ]) (Subset.of_elements [ 1 ]));
  check_float "odd" (-1.0) (Subset.sign Subset.empty (Subset.of_elements [ 1 ]))

let test_subset_pp () =
  let names = [| "a"; "b"; "c" |] in
  check Alcotest.string "pp" "{a,c}"
    (Subset.to_string ~names (Subset.of_elements [ 0; 2 ]));
  check Alcotest.string "pp empty" "{}" (Subset.to_string ~names Subset.empty)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_uniformity () =
  (* Coarse chi-square-ish check on 10 buckets. *)
  let rng = Rng.create 9 in
  let buckets = Array.make 10 0 in
  let n = 100000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      check_bool "bucket within 5%" true
        (abs (c - expected) < expected / 20))
    buckets

let test_rng_wor () =
  let rng = Rng.create 10 in
  let s = Rng.sample_without_replacement rng 20 100 in
  check_int "size" 20 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 19 do
    check_bool "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun x -> check_bool "in range" true (x >= 0 && x < 100)) s;
  (* k = n returns a permutation. *)
  let all = Rng.sample_without_replacement rng 10 10 in
  Array.sort compare all;
  check (Alcotest.list Alcotest.int) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Array.to_list all);
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k=5 n=3") (fun () ->
      ignore (Rng.sample_without_replacement rng 5 3))

let test_rng_wor_uniform () =
  (* Every element should be included with probability k/n. *)
  let rng = Rng.create 11 in
  let hits = Array.make 10 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    Array.iter (fun i -> hits.(i) <- hits.(i) + 1)
      (Rng.sample_without_replacement rng 3 10)
  done;
  Array.iter
    (fun h ->
      let p = float_of_int h /. float_of_int trials in
      check_bool "p close to 0.3" true (Float.abs (p -. 0.3) < 0.02))
    hits

let test_rng_split () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  check_bool "child differs from parent" false (Rng.bits64 parent = Rng.bits64 child)

let test_rng_derive () =
  (* Same parent state + same index -> same child stream. *)
  let draws rng = List.init 8 (fun _ -> Rng.bits64 rng) in
  let a = Rng.derive (Rng.create 7) 3 and b = Rng.derive (Rng.create 7) 3 in
  check (Alcotest.list Alcotest.int64) "deterministic" (draws a) (draws b);
  (* Deriving is a pure read: it must not advance the parent. *)
  let parent = Rng.create 7 in
  let before = Rng.copy parent in
  ignore (Rng.derive parent 0);
  ignore (Rng.derive parent 100);
  check (Alcotest.list Alcotest.int64) "parent unperturbed" (draws before)
    (draws parent);
  (* Distinct indices -> distinct streams (first draws all differ). *)
  let parent = Rng.create 7 in
  let firsts = List.init 64 (fun i -> Rng.bits64 (Rng.derive parent i)) in
  check_int "64 distinct child streams" 64
    (List.length (List.sort_uniq compare firsts))

(* The SplitMix64 stream, pinned value by value.  Every sample, and so
   every served estimate, is a function of this stream; these values
   were recorded from the generator as it stood before its state was
   unboxed, so a change to the state layout that moves one bit fails
   here.  Per seed: the first 8 [bits64] of a fresh generator, then in
   order [float], [int 10], [bernoulli 0.3], 16 more [bernoulli 0.3],
   the first draw of a [split] child, the first draw of [derive 3] (which
   does not advance the parent), [sample_without_replacement 5 20], and
   the parent's next [bits64]. *)
type rng_pin = {
  seed : int;
  bits : int64 list;
  float_ : string;  (* [%h] *)
  int10 : int;
  bern : bool;
  bern16 : string;
  split : int64;
  derive3 : int64;
  wor : int list;
  after : int64;
}

let rng_pins =
  [ { seed = 0;
      bits =
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
          0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
          0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ];
      float_ = "0x1.f72bc4820e4c4p-3";
      int10 = 5;
      bern = false;
      bern16 = "0000000100000000";
      split = 0xf6933da3885b9770L;
      derive3 = 0xb0d7688aa7c9ec79L;
      wor = [ 15; 1; 11; 4; 12 ];
      after = 0x3c3c41a3b43343a1L };
    { seed = 7;
      bits =
        [ 0x863b891f4c0abd4fL; 0x4d58fbd282eaf415L; 0xf0e521070cc03750L;
          0xe21b503436e97f5bL; 0xa9e76cff841529f5L; 0x583825d25ace04f8L;
          0x660295fd0c2fa166L; 0x9acd7389a1455c90L ];
      float_ = "0x1.9f6fe141e86bcp-1";
      int10 = 2;
      bern = false;
      bern16 = "1001000110000000";
      split = 0xe004e956fcfe233dL;
      derive3 = 0xbcf31fc09bfe308cL;
      wor = [ 5; 1; 19; 15; 18 ];
      after = 0x2a0cfcf91b570809L };
    { seed = 42;
      bits =
        [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
          0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
          0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ];
      float_ = "0x1.8578493c50ec1p-1";
      int10 = 3;
      bern = false;
      bern16 = "0011011100100001";
      split = 0x281bcb1f0cd0aacfL;
      derive3 = 0x33137d4e73f89989L;
      wor = [ 15; 9; 5; 0; 13 ];
      after = 0x627574470bcad1e1L } ]

let test_rng_pinned_stream () =
  let hex = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016Lx" v) Int64.equal in
  List.iter
    (fun p ->
      let what s = Printf.sprintf "seed %d: %s" p.seed s in
      let r = Rng.create p.seed in
      check (Alcotest.list hex) (what "bits64") p.bits
        (List.init 8 (fun _ -> Rng.bits64 r));
      check Alcotest.string (what "float") p.float_ (Printf.sprintf "%h" (Rng.float r));
      check_int (what "int 10") p.int10 (Rng.int r 10);
      check_bool (what "bernoulli 0.3") p.bern (Rng.bernoulli r 0.3);
      check Alcotest.string (what "16 x bernoulli 0.3") p.bern16
        (String.init 16 (fun _ -> if Rng.bernoulli r 0.3 then '1' else '0'));
      check hex (what "split") p.split (Rng.bits64 (Rng.split r));
      check hex (what "derive 3") p.derive3 (Rng.bits64 (Rng.derive r 3));
      check (Alcotest.list Alcotest.int) (what "wor 5 20") p.wor
        (Array.to_list (Rng.sample_without_replacement r 5 20));
      check hex (what "after") p.after (Rng.bits64 r))
    rng_pins

let test_rng_shuffle () =
  let rng = Rng.create 12 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.list Alcotest.int) "permutation preserved"
    (List.init 50 Fun.id) (Array.to_list sorted)

(* ---- Hashing ---- *)

let test_prf_deterministic () =
  check_float "same inputs same output"
    (Hashing.prf_float ~seed:3 12345)
    (Hashing.prf_float ~seed:3 12345);
  check_bool "different ids differ" true
    (Hashing.prf_float ~seed:3 1 <> Hashing.prf_float ~seed:3 2);
  check_bool "different seeds differ" true
    (Hashing.prf_float ~seed:3 1 <> Hashing.prf_float ~seed:4 1)

let test_prf_range_and_uniformity () =
  let below = ref 0 in
  let n = 50000 in
  for i = 0 to n - 1 do
    let x = Hashing.prf_float ~seed:17 i in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0);
    if x < 0.25 then incr below
  done;
  let p = float_of_int !below /. float_of_int n in
  check_bool "quartile frequency" true (Float.abs (p -. 0.25) < 0.01)

let test_hash_string () =
  check_bool "strings differ" true
    (Hashing.hash_string ~seed:1 "abc" <> Hashing.hash_string ~seed:1 "abd");
  check_bool "deterministic" true
    (Hashing.hash_string ~seed:1 "abc" = Hashing.hash_string ~seed:1 "abc")

let test_mix64_bijective_smoke () =
  (* Distinct inputs should not collide on a small probe set. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to 1000 do
    let h = Hashing.mix64 (Int64.of_int i) in
    check_bool "no collision" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

(* ---- Dist ---- *)

let test_uniform_int () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Dist.uniform_int rng 5 9 in
    check_bool "in [5,9]" true (x >= 5 && x <= 9)
  done;
  check_int "degenerate" 4 (Dist.uniform_int rng 4 4)

let test_exponential_mean () =
  let rng = Rng.create 14 in
  let n = 50000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let x = Dist.exponential rng 2.0 in
    check_bool "positive" true (x >= 0.0);
    acc := !acc +. x
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean close to 1/lambda" true (Float.abs (mean -. 0.5) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create 15 in
  let s = Gus_stats.Summary.create () in
  for _ = 1 to 50000 do
    Gus_stats.Summary.add s (Dist.gaussian rng ~mu:3.0 ~sigma:2.0)
  done;
  check_bool "mean" true (Float.abs (Gus_stats.Summary.mean s -. 3.0) < 0.05);
  check_bool "sd" true (Float.abs (Gus_stats.Summary.stddev s -. 2.0) < 0.05)

let test_zipf () =
  let z = Dist.zipf_create ~n:100 ~s:1.0 in
  let rng = Rng.create 16 in
  let counts = Array.make 101 0 in
  for _ = 1 to 50000 do
    let k = Dist.zipf_draw z rng in
    check_bool "rank in range" true (k >= 1 && k <= 100);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(1) > counts.(2));
  check_bool "rank 2 beats rank 50" true (counts.(2) > counts.(50))

let test_pareto () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    check_bool "above scale" true (Dist.pareto rng ~scale:2.0 ~shape:1.5 >= 2.0)
  done

(* ---- Tablefmt ---- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Tablefmt.create ~headers:[ "name"; "value" ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_sep t;
  Tablefmt.add_row t [ "long-name"; "2" ];
  let s = Tablefmt.render t in
  check_bool "contains header" true (contains_sub s "name");
  check_bool "contains rule" true (contains_sub s "---");
  check_bool "contains row" true (contains_sub s "long-name");
  (* header + rule + row + sep rule + row *)
  check_int "line count" 5
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))

let test_float_cell () =
  check Alcotest.string "integer" "42" (Tablefmt.float_cell 42.0);
  check Alcotest.string "small" "1.230e-05" (Tablefmt.float_cell 1.23e-5);
  check Alcotest.string "ordinary" "3.142" (Tablefmt.float_cell 3.14159);
  check Alcotest.string "nan" "nan" (Tablefmt.float_cell Float.nan)

(* ---- qcheck properties ---- *)

let subset_arb = QCheck2.Gen.int_range 0 ((1 lsl 8) - 1)

let prop_inter_subset =
  QCheck2.Test.make ~name:"inter is subset of both" ~count:500
    QCheck2.Gen.(pair subset_arb subset_arb)
    (fun (a, b) ->
      let i = Subset.inter a b in
      Subset.subset i a && Subset.subset i b)

let prop_union_superset =
  QCheck2.Test.make ~name:"union contains both" ~count:500
    QCheck2.Gen.(pair subset_arb subset_arb)
    (fun (a, b) ->
      let u = Subset.union a b in
      Subset.subset a u && Subset.subset b u)

let prop_complement_involution =
  QCheck2.Test.make ~name:"complement is an involution" ~count:500 subset_arb
    (fun s -> Subset.complement 8 (Subset.complement 8 s) = s)

let prop_cardinal_additive =
  QCheck2.Test.make ~name:"|a|+|b| = |a∪b|+|a∩b|" ~count:500
    QCheck2.Gen.(pair subset_arb subset_arb)
    (fun (a, b) ->
      Subset.cardinal a + Subset.cardinal b
      = Subset.cardinal (Subset.union a b) + Subset.cardinal (Subset.inter a b))

let prop_subsets_count =
  QCheck2.Test.make ~name:"iter_subsets visits 2^|s| sets" ~count:100 subset_arb
    (fun s ->
      let n = ref 0 in
      Subset.iter_subsets s (fun _ -> incr n);
      !n = 1 lsl Subset.cardinal s)

let prop_vec_roundtrip =
  QCheck2.Test.make ~name:"Vec of_list/to_list roundtrip" ~count:200
    QCheck2.Gen.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_subsets_down_is_reverse =
  QCheck2.Test.make ~name:"iter_subsets_down = reverse of iter_subsets"
    ~count:200 subset_arb (fun s ->
      let up = ref [] and down = ref [] in
      Subset.iter_subsets s (fun t -> up := t :: !up);
      Subset.iter_subsets_down s (fun t -> down := t :: !down);
      !up = List.rev !down)

(* ---- Pool ------------------------------------------------------------- *)

module Pool = Gus_util.Pool

let test_pool_covers_range () =
  let pool = Pool.create ~size:3 in
  check_int "lanes" 3 (Pool.size pool);
  let hits = Array.make 100 0 in
  Pool.run_chunks pool ~lo:0 ~hi:100 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri (fun i n -> check_int (Printf.sprintf "index %d once" i) 1 n) hits;
  (* Reuse: a second job on the same pool. *)
  let total = Atomic.make 0 in
  Pool.run_chunks pool ~lo:5 ~hi:25 (fun lo hi ->
      ignore (Atomic.fetch_and_add total (hi - lo)));
  check_int "reused pool sums range" 20 (Atomic.get total);
  Pool.shutdown pool

let test_pool_size_one_inline () =
  let pool = Pool.create ~size:1 in
  check_int "single lane" 1 (Pool.size pool);
  let calls = ref [] in
  Pool.run_chunks pool ~lo:2 ~hi:7 (fun lo hi -> calls := (lo, hi) :: !calls);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "one inline chunk" [ (2, 7) ] !calls;
  Pool.run_chunks pool ~lo:3 ~hi:3 (fun _ _ -> Alcotest.fail "empty range ran");
  Pool.shutdown pool

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~size:3 in
  check_bool "live after create" true (Pool.is_live pool);
  Pool.shutdown pool;
  check_bool "dead after shutdown" false (Pool.is_live pool);
  (* A second shutdown must be a no-op, not a hang or double-join. *)
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_bool "still dead" false (Pool.is_live pool);
  check_bool "use after shutdown rejected" true
    (try
       Pool.run_chunks pool ~lo:0 ~hi:4 (fun _ _ -> ());
       false
     with Invalid_argument _ -> true);
  (* The empty range short-circuits before the liveness check, matching
     run_chunks on a live pool doing no work for it. *)
  Pool.run_chunks pool ~lo:7 ~hi:7 (fun _ _ -> Alcotest.fail "empty range ran")

let test_pool_exception_propagates () =
  let pool = Pool.create ~size:2 in
  check_bool "worker exception reraised" true
    (try
       Pool.run_chunks pool ~lo:0 ~hi:10 (fun lo _ ->
           if lo > 0 then failwith "boom");
       false
     with Failure _ -> true);
  (* The pool survives a failed job. *)
  let total = Atomic.make 0 in
  Pool.run_chunks pool ~lo:0 ~hi:10 (fun lo hi ->
      ignore (Atomic.fetch_and_add total (hi - lo)));
  check_int "usable after failure" 10 (Atomic.get total);
  Pool.shutdown pool;
  check_bool "rejected after shutdown" true
    (try
       Pool.run_chunks pool ~lo:0 ~hi:10 (fun _ _ -> ());
       false
     with Invalid_argument _ -> true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_inter_subset; prop_union_superset; prop_complement_involution;
      prop_cardinal_additive; prop_subsets_count; prop_subsets_down_is_reverse;
      prop_vec_roundtrip ]

let () =
  Alcotest.run "gus_util"
    [ ( "vec",
        [ Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "iter/fold/map/filter" `Quick test_vec_iter_fold_map;
          Alcotest.test_case "append/sort" `Quick test_vec_append_sort;
          Alcotest.test_case "clear/make" `Quick test_vec_clear_make ] );
      ( "subset",
        [ Alcotest.test_case "basics" `Quick test_subset_basics;
          Alcotest.test_case "algebra" `Quick test_subset_algebra;
          Alcotest.test_case "iteration" `Quick test_subset_iteration;
          Alcotest.test_case "limits" `Quick test_subset_limits;
          Alcotest.test_case "sign" `Quick test_subset_sign;
          Alcotest.test_case "pp" `Quick test_subset_pp ] );
      ( "pool",
        [ Alcotest.test_case "covers range" `Quick test_pool_covers_range;
          Alcotest.test_case "size-1 inline" `Quick test_pool_size_one_inline;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "exceptions" `Quick test_pool_exception_propagates ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "wor" `Quick test_rng_wor;
          Alcotest.test_case "wor uniform" `Slow test_rng_wor_uniform;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "derive" `Quick test_rng_derive;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream ] );
      ( "hashing",
        [ Alcotest.test_case "prf deterministic" `Quick test_prf_deterministic;
          Alcotest.test_case "prf uniform" `Slow test_prf_range_and_uniformity;
          Alcotest.test_case "hash_string" `Quick test_hash_string;
          Alcotest.test_case "mix64 collisions" `Quick test_mix64_bijective_smoke ] );
      ( "dist",
        [ Alcotest.test_case "uniform_int" `Quick test_uniform_int;
          Alcotest.test_case "exponential" `Slow test_exponential_mean;
          Alcotest.test_case "gaussian" `Slow test_gaussian_moments;
          Alcotest.test_case "zipf" `Slow test_zipf;
          Alcotest.test_case "pareto" `Quick test_pareto ] );
      ( "tablefmt",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "float_cell" `Quick test_float_cell ] );
      ("properties", qcheck_tests) ]
