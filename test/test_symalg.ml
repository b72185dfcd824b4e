(* Tests for the symbolic sum-of-products coefficient algebra: every
   constructor and combinator mirrored against the dense {!Gus} oracle,
   random plans linted bit-identically to the test-side dense lint
   engine, the rewrite-rule book, structure queries (live mask,
   monotonicity, projection, including the dense fallback), the
   62-relation mask guard, and the live-slot moments that carry
   wide-plan estimation past the dense 2^n wall. *)

module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module Sampler = Gus_sampling.Sampler
module Lint = Gus_analysis.Lint
module Subset = Gus_util.Subset
module Moments = Gus_estimator.Moments

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let close ?(eps = 1e-9) what expected actual =
  check (Alcotest.float eps) what expected actual

let bits f = Int64.bits_of_float f

let check_gus_bits what (g : Gus.t) (h : Gus.t) =
  check_bool (what ^ ": rels") true (g.Gus.rels = h.Gus.rels);
  check_bool (what ^ ": a bits") true (bits g.Gus.a = bits h.Gus.a);
  Array.iteri
    (fun s bg ->
      if bits bg <> bits h.Gus.b.(s) then
        Alcotest.failf "%s: b_%s differs: %h vs %h" what
          (Gus.subset_name g s) bg h.Gus.b.(s))
    g.Gus.b

let check_gus_close ?(eps = 1e-9) what (g : Gus.t) (h : Gus.t) =
  check_bool (what ^ ": rels") true (g.Gus.rels = h.Gus.rels);
  close ~eps (what ^ ": a") g.Gus.a h.Gus.a;
  Array.iteri (fun s bg -> close ~eps (what ^ ": b") bg h.Gus.b.(s)) g.Gus.b

(* ---- constructors mirror the dense Figure-1 values bit-for-bit ---- *)

let test_constructors_vs_dense () =
  check_gus_bits "identity"
    (Gus.identity [| "r"; "s" |])
    (Symalg.to_gus (Symalg.identity [| "r"; "s" |]));
  check_gus_bits "null" (Gus.null [| "r" |])
    (Symalg.to_gus (Symalg.null [| "r" |]));
  check_gus_bits "bernoulli"
    (Gus.bernoulli ~rel:"r" 0.1)
    (Symalg.to_gus (Symalg.bernoulli ~rel:"r" 0.1));
  check_gus_bits "wor"
    (Gus.wor ~rel:"r" ~n:1000 ~out_of:150000)
    (Symalg.to_gus (Symalg.wor ~rel:"r" ~n:1000 ~out_of:150000));
  check_gus_bits "wor n=N=1"
    (Gus.wor ~rel:"r" ~n:1 ~out_of:1)
    (Symalg.to_gus (Symalg.wor ~rel:"r" ~n:1 ~out_of:1));
  check_gus_bits "bernoulli_over"
    (Gus.bernoulli_over [| "r"; "s"; "t" |] 0.3)
    (Symalg.to_gus (Symalg.bernoulli_over [| "r"; "s"; "t" |] 0.3))

(* ---- combinators: left-deep product forms bitwise, the rest 1e-9 ---- *)

let test_join_compact_bitwise () =
  (* The plan-walk shape: each sampler compacts onto its single-relation
     input, then the join folds left-deep.  Evaluation order matches the
     dense fold exactly, so every entry is bit-equal. *)
  let gd =
    Gus.join
      (Gus.compact (Gus.bernoulli ~rel:"r" 0.1) (Gus.identity [| "r" |]))
      (Gus.compact
         (Gus.wor ~rel:"s" ~n:10 ~out_of:100)
         (Gus.identity [| "s" |]))
  in
  let gs =
    Symalg.join
      (Symalg.compact (Symalg.bernoulli ~rel:"r" 0.1) (Symalg.identity [| "r" |]))
      (Symalg.compact
         (Symalg.wor ~rel:"s" ~n:10 ~out_of:100)
         (Symalg.identity [| "s" |]))
  in
  check_gus_bits "join+compact" gd (Symalg.to_gus gs)

let test_multi_rel_compact_close () =
  (* Compacting a multi-relation sampler onto a joined input reassociates
     the factor product, so entries agree to rounding, with [a] exact. *)
  let gd =
    Gus.compact
      (Gus.bernoulli_over [| "r"; "s" |] 0.4)
      (Gus.join (Gus.bernoulli ~rel:"r" 0.1)
         (Gus.wor ~rel:"s" ~n:10 ~out_of:100))
  in
  let gs =
    Symalg.compact
      (Symalg.bernoulli_over [| "r"; "s" |] 0.4)
      (Symalg.join
         (Symalg.bernoulli ~rel:"r" 0.1)
         (Symalg.wor ~rel:"s" ~n:10 ~out_of:100))
  in
  check_bool "a bits equal" true (bits gd.Gus.a = bits (Symalg.to_gus gs).Gus.a);
  check_gus_close "multi-rel compact" gd (Symalg.to_gus gs)

let test_union_close () =
  let mk_d p = Gus.join (Gus.bernoulli ~rel:"r" p) (Gus.bernoulli ~rel:"s" p) in
  let mk_s p =
    Symalg.join (Symalg.bernoulli ~rel:"r" p) (Symalg.bernoulli ~rel:"s" p)
  in
  let gd = Gus.union (mk_d 0.2) (mk_d 0.5) in
  let gs = Symalg.union (mk_s 0.2) (mk_s 0.5) in
  check_bool "a bits equal" true (bits gd.Gus.a = bits (Symalg.to_gus gs).Gus.a);
  check_gus_close "union" gd (Symalg.to_gus gs)

let test_extend_permute () =
  check_gus_bits "extend"
    (Gus.extend (Gus.bernoulli ~rel:"r" 0.25) [| "s"; "t" |])
    (Symalg.to_gus (Symalg.extend (Symalg.bernoulli ~rel:"r" 0.25) [| "s"; "t" |]));
  let gd = Gus.join (Gus.bernoulli ~rel:"r" 0.1) (Gus.bernoulli ~rel:"s" 0.7) in
  let gs =
    Symalg.join (Symalg.bernoulli ~rel:"r" 0.1) (Symalg.bernoulli ~rel:"s" 0.7)
  in
  check_gus_bits "permute"
    (Gus.permute gd [| "s"; "r" |])
    (Symalg.to_gus (Symalg.permute gs [| "s"; "r" |]))

(* ---- mirrored random op sequences: coefficients agree ---- *)

(* Build a random design twice — once densely, once symbolically — from
   the same structural choices, then compare the Theorem-1 coefficient
   vectors.  Product forms (joins/compacts only) must agree bitwise;
   sequences containing unions agree to 1e-9 (the SoP distributes what
   the dense operator evaluates pointwise, so float association
   differs). *)
let random_design rand n =
  let rel i = Printf.sprintf "x%d" i in
  let leaf i =
    match rand 4 with
    | 0 -> (Gus.identity [| rel i |], Symalg.identity [| rel i |], false)
    | 1 ->
        let p = 0.05 +. (0.9 *. float_of_int (rand 19) /. 19.0) in
        (Gus.bernoulli ~rel:(rel i) p, Symalg.bernoulli ~rel:(rel i) p, false)
    | 2 ->
        let big_n = 10 + rand 1000 in
        let n = 1 + rand big_n in
        ( Gus.wor ~rel:(rel i) ~n ~out_of:big_n,
          Symalg.wor ~rel:(rel i) ~n ~out_of:big_n,
          false )
    | _ -> (Gus.null [| rel i |], Symalg.null [| rel i |], false)
  in
  (* Left-deep joins mirror the planner's cross folds, so the dense and
     symbolic evaluation orders coincide. *)
  let rec joins i (gd, gs) =
    if i >= n then (gd, gs)
    else
      let gd2, gs2, _ = leaf i in
      joins (i + 1) (Gus.join gd gd2, Symalg.join gs gs2)
  in
  let gd0, gs0, _ = leaf 0 in
  let gd, gs = joins 1 (gd0, gs0) in
  let rels = gd.Gus.rels in
  (* Optionally stack a multi-relation Bernoulli and/or union with a
     shifted-rate copy — both reassociate floats, so those cases are
     checked to 1e-9 instead of bitwise. *)
  let gd, gs, exact =
    match rand 3 with
    | 0 -> (gd, gs, true)
    | 1 ->
        let p = 0.1 +. (0.8 *. float_of_int (rand 9) /. 9.0) in
        ( Gus.compact (Gus.bernoulli_over rels p) gd,
          Symalg.compact (Symalg.bernoulli_over rels p) gs,
          n = 1 )
    | _ ->
        let p = 0.3 in
        ( Gus.union gd (Gus.compact (Gus.bernoulli_over rels p) gd),
          Symalg.union gs (Symalg.compact (Symalg.bernoulli_over rels p) gs),
          false )
  in
  (gd, gs, exact)

let test_qcheck_coefficients_agree () =
  let gen =
    QCheck2.Gen.(pair (int_range 1 8) (int_bound 1_000_000))
  in
  let cell = QCheck2.Test.make ~count:200 ~name:"symbolic c = dense c" gen
      (fun (n, seed) ->
        let st = Random.State.make [| seed |] in
        let rand k = Random.State.int st k in
        let gd, gs, exact = random_design rand n in
        let cd = Gus.c_coefficients gd in
        let cs = Gus.c_coefficients (Symalg.to_gus gs) in
        Array.for_all2
          (fun a b ->
            if exact then bits a = bits b
            else Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a))
          cd cs)
  in
  QCheck_alcotest.to_alcotest cell

(* The same structural choices as plans: each relation is scanned
   unsampled, Bernoulli-sampled, WOR-sampled or kept whole by a redundant
   Bernoulli(1); left-deep cross joins; then optionally a Bernoulli over
   the whole join or a union with a Bernoulli-thinned copy of it.  The
   linter must report exactly what the dense engine reports over the
   materialized design — root diagnostics, [a], passes, skipped passes,
   variance bound — bit for bit. *)
let random_plan rand n =
  let rel i = Printf.sprintf "x%d" i in
  let cards = Array.init n (fun _ -> 10 + rand 1000) in
  let card r = cards.(int_of_string (String.sub r 1 (String.length r - 1))) in
  let leaf i =
    let scan = Splan.Scan (rel i) in
    match rand 4 with
    | 0 -> scan
    | 1 ->
        let p = 0.05 +. (0.9 *. float_of_int (rand 19) /. 19.0) in
        Splan.Sample (Sampler.Bernoulli p, scan)
    | 2 -> Splan.Sample (Sampler.Wor (1 + rand cards.(i)), scan)
    | _ -> Splan.Sample (Sampler.Bernoulli 1.0, scan)
  in
  let rec joins i acc =
    if i >= n then acc else joins (i + 1) (Splan.Cross (acc, leaf i))
  in
  let plan = joins 1 (leaf 0) in
  let plan =
    match rand 3 with
    | 0 -> plan
    | 1 ->
        let p = 0.1 +. (0.8 *. float_of_int (rand 9) /. 9.0) in
        Splan.Sample (Sampler.Bernoulli p, plan)
    | _ ->
        Splan.Union_samples
          (plan, Splan.Sample (Sampler.Bernoulli 0.3, plan))
  in
  (plan, card)

let test_qcheck_lint_matches_dense () =
  let gen = QCheck2.Gen.(pair (int_range 1 8) (int_bound 1_000_000)) in
  let cell =
    QCheck2.Test.make ~count:200 ~name:"lint = dense lint engine" gen
      (fun (n, seed) ->
        let st = Random.State.make [| seed |] in
        let plan, card = random_plan (Random.State.int st) n in
        match Dense_oracle.lint_mismatch plan (Lint.run ~card plan) with
        | None -> true
        | Some what ->
            QCheck2.Test.fail_reportf "%a: %s" Splan.pp plan what)
  in
  QCheck_alcotest.to_alcotest cell

(* ---- the rule book ---- *)

let test_rule_book () =
  (* A union produces shift terms with weight 0 when a = 0.5 (2a − 1 = 0):
     the rule book prunes them. *)
  let g = Symalg.bernoulli ~rel:"r" 0.5 in
  let u = Symalg.union g g in
  let simplified, rules = Symalg.simplify u in
  check_bool "fixpoint reached: resimplify is a no-op" true
    (snd (Symalg.simplify simplified) = []);
  check_bool "at least one term survives" true (Symalg.term_count simplified >= 1);
  ignore rules;
  (* Terms at identical factor vectors merge: B(p) ∪ B(p) over the same
     relation stays a handful of terms, never 2^terms. *)
  let rec fold k acc = if k = 0 then acc else fold (k - 1) (Symalg.union acc g) in
  let chained = fold 6 g in
  check_bool "union chain stays compact" true (Symalg.term_count chained <= 16);
  check_gus_close "union chain value" ~eps:1e-9
    (let gd = Gus.bernoulli ~rel:"r" 0.5 in
     let rec fd k acc = if k = 0 then acc else fd (k - 1) (Gus.union acc gd) in
     fd 6 gd)
    (Symalg.to_gus chained)

let test_rule_book_drops () =
  (* drop-zero-term / merge-duplicate-terms leave the evaluation intact. *)
  let g =
    Symalg.union
      (Symalg.bernoulli ~rel:"r" 0.2)
      (Symalg.bernoulli ~rel:"r" 0.4)
  in
  let s, _ = Symalg.simplify g in
  check_bool "simplify preserves a (bits)" true
    (bits g.Symalg.a = bits s.Symalg.a);
  for mask = 0 to 1 do
    close ~eps:0.0 "simplify preserves b" (Symalg.b_get g mask)
      (Symalg.b_get s mask)
  done;
  check_bool "terms never empty" true (Symalg.term_count s >= 1)

(* ---- structure queries ---- *)

let test_live_mask () =
  let g =
    Symalg.join
      (Symalg.join (Symalg.identity [| "a" |]) (Symalg.bernoulli ~rel:"b" 0.5))
      (Symalg.join (Symalg.identity [| "c" |]) (Symalg.wor ~rel:"d" ~n:2 ~out_of:9))
  in
  check_int "live = {b, d}" 0b1010 (Symalg.live_mask g);
  check_bool "nonneg_monotone product form" true (Symalg.nonneg_monotone g);
  (* p = 1 Bernoulli is inert too: lo = hi = 1. *)
  check_int "B(1) inert" 0 (Symalg.live_mask (Symalg.bernoulli ~rel:"r" 1.0))

let test_project () =
  let g =
    Symalg.join
      (Symalg.join (Symalg.identity [| "a" |]) (Symalg.bernoulli ~rel:"b" 0.5))
      (Symalg.identity [| "c" |])
  in
  let live = Symalg.live_mask g in
  let p = Symalg.project g live in
  check_int "projected width" 1 (Symalg.n_rels p);
  check_bool "projected a bits" true (bits g.Symalg.a = bits p.Symalg.a);
  (* Projected entries are bit-equal to the dense b at the embedded
     masks. *)
  let gd = Symalg.to_gus g and pd = Symalg.to_gus p in
  check_bool "b{} embeds" true (bits (Gus.b_get gd 0) = bits (Gus.b_get pd 0));
  check_bool "b{b} embeds" true
    (bits (Gus.b_get gd 0b010) = bits (Gus.b_get pd 1));
  (* A dense fallback projects by gathering its entries at the embedded
     masks: the same design. *)
  let dense = Symalg.of_gus gd in
  check_gus_bits "dense fallback projection" pd
    (Symalg.to_gus (Symalg.project dense (Symalg.live_mask dense)));
  (* Projecting away a live relation is refused. *)
  check_bool "cannot project away live" true
    (try ignore (Symalg.project g 0); false with Gus.Incompatible _ -> true)

let test_is_identity () =
  check_bool "identity" true (Symalg.is_identity (Symalg.identity [| "r"; "s" |]));
  check_bool "bernoulli not identity" false
    (Symalg.is_identity (Symalg.bernoulli ~rel:"r" 0.5));
  check_bool "B(1) is identity" true
    (Symalg.is_identity (Symalg.bernoulli ~rel:"r" 1.0))

(* ---- wide widths and the 62-bit mask guard ---- *)

let test_wide_widths () =
  let rels = Array.init 40 (fun i -> Printf.sprintf "w%d" i) in
  let g =
    Array.fold_left
      (fun acc r ->
        let leaf = Symalg.bernoulli ~rel:r 0.5 in
        match acc with None -> Some leaf | Some a -> Some (Symalg.join a leaf))
      None rels
  in
  let g = Option.get g in
  check_int "40 relations" 40 (Symalg.n_rels g);
  close ~eps:1e-300 "a = 0.5^40" (Float.pow 0.5 40.0) g.Symalg.a;
  check_bool "to_gus refused past dense wall" true
    (try ignore (Symalg.to_gus g); false with Gus.Incompatible _ -> true);
  (* live subsets enumerate fine via the wide full mask *)
  check_int "live mask cardinal" 40 (Subset.cardinal (Symalg.live_mask g))

let test_mask_guard () =
  check_bool "check_mask_bits refuses 63" true
    (try Subset.check_mask_bits 63; false with Invalid_argument msg ->
       (* the message names the limit *)
       let has_sub s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         m = 0 || go 0
       in
       has_sub msg "62");
  check_int "full_wide 62 = max_int" max_int (Subset.full_wide 62);
  check_int "full_wide 3" 7 (Subset.full_wide 3);
  (* join past 62 relations refused *)
  let wide n =
    let g = ref (Symalg.bernoulli ~rel:"q0" 0.5) in
    for i = 1 to n - 1 do
      g := Symalg.join !g (Symalg.bernoulli ~rel:(Printf.sprintf "q%d" i) 0.5)
    done;
    !g
  in
  check_int "62 rels ok" 62 (Symalg.n_rels (wide 62));
  check_bool "63 rels refused" true
    (try ignore (wide 63); false with Gus.Incompatible _ -> true)

let test_subset_elements_wide () =
  (* bits at the top of the usable range round-trip *)
  let mask = Subset.union (1 lsl 61) 0b101 in
  check (Alcotest.list Alcotest.int) "elements" [ 0; 2; 61 ]
    (Subset.elements mask)

(* ---- live-slot moments: wide lineages, small kernel universes ---- *)

(* [n] tuples over [width] lineage columns, as a relation with one float
   column "f"; only the [live] columns vary. *)
let mk_wide_relation ~width ~live n =
  let open Gus_relational in
  let rel =
    Relation.derived
      (Schema.make [ { Schema.name = "f"; ty = Value.TFloat } ])
      (Array.init width (Printf.sprintf "w%02d"))
  in
  for i = 0 to n - 1 do
    let l = Array.make width 0 in
    List.iteri (fun j p -> l.(p) <- (i / (j + 1)) mod 3) live;
    Relation.append_tuple rel
      (Tuple.make [| Value.Float (1.0 +. float_of_int (i mod 7)) |] l)
  done;
  rel

let test_view_matches_dense_restriction () =
  let width = 20 and live = [ 4; 9; 14 ] in
  let rel = mk_wide_relation ~width ~live 500 in
  let slots = Array.of_list live in
  let f = Gus_relational.Expr.col "f" in
  let y_view = (Moments.Acc.finalize (Moments.feed ~slots ~fs:[| f |] rel)).(0).(0) in
  (* oracle: restrict the lineages by hand and run the narrow kernel *)
  let acc = Moments.Acc.create ~n_rels:(Array.length slots) () in
  let lineage = Gus_relational.Relation.lineage rel in
  let value = Gus_relational.Relation.bind_float rel f in
  for i = 0 to Gus_relational.Relation.cardinality rel - 1 do
    let l = lineage i in
    Moments.Acc.add acc (Array.map (fun p -> l.(p)) slots) (value i)
  done;
  let y_narrow = (Moments.Acc.finalize acc).(0).(0) in
  Array.iteri
    (fun s v ->
      if bits v <> bits y_narrow.(s) then
        Alcotest.failf "mask %d: %h vs %h" s v y_narrow.(s))
    y_view

(* The live-slot estimate computed on every lane of pools of 1, 2 and 4
   lanes at once lands on the sequential bits: each kernel run allocates
   its own scratch. *)
let test_view_acc_and_pools () =
  let width = 20 and live = [ 4; 9; 14 ] in
  let rel = mk_wide_relation ~width ~live 800 in
  let slots = Array.of_list live in
  let f = Gus_relational.Expr.col "f" in
  let run () = (Moments.Acc.finalize (Moments.feed ~slots ~fs:[| f |] rel)).(0).(0) in
  let y_seq = run () in
  List.iter
    (fun lanes ->
      let pool = Gus_util.Pool.create ~size:lanes in
      Fun.protect ~finally:(fun () -> Gus_util.Pool.shutdown pool) @@ fun () ->
      let ys = Array.make lanes [||] in
      Gus_util.Pool.run_chunks pool ~lo:0 ~hi:lanes (fun lo hi ->
          for i = lo to hi - 1 do
            ys.(i) <- run ()
          done);
      Array.iter
        (Array.iteri (fun s v ->
             if bits v <> bits y_seq.(s) then
               Alcotest.failf "pool %d mask %d: %h vs %h" lanes s v y_seq.(s)))
        ys)
    [ 1; 2; 4 ]

let test_view_validation () =
  let module Sbox = Gus_estimator.Sbox in
  let reject what f =
    check_bool what true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let rel = mk_wide_relation ~width:5 ~live:[ 1; 3 ] 10 in
  let f = Gus_relational.Expr.col "f" in
  let design rels =
    Array.fold_left
      (fun acc r ->
        let g = Gus.bernoulli ~rel:r 0.5 in
        match acc with None -> Some g | Some a -> Some (Gus.join a g))
      None rels
    |> Option.get
  in
  reject "design out of schema order" (fun () ->
      Sbox.of_relation ~gus:(design [| "w03"; "w01" |]) ~f rel);
  reject "relation outside the lineage" (fun () ->
      Sbox.of_relation ~gus:(design [| "w01"; "w07" |]) ~f rel);
  reject "kernel wider than a mask" (fun () ->
      Moments.Acc.create ~n_rels:(Subset.max_universe + 1) ());
  check_int "live projection accepted" 10
    (Sbox.of_relation ~gus:(design [| "w01"; "w03" |]) ~f rel).Sbox.n_tuples

let () =
  Alcotest.run "symalg"
    [ ( "constructors",
        [ Alcotest.test_case "figure 1 vs dense (bitwise)" `Quick
            test_constructors_vs_dense;
          Alcotest.test_case "join/compact bitwise" `Quick
            test_join_compact_bitwise;
          Alcotest.test_case "multi-rel compact within 1e-9" `Quick
            test_multi_rel_compact_close;
          Alcotest.test_case "union within 1e-9, a bitwise" `Quick
            test_union_close;
          Alcotest.test_case "extend/permute" `Quick test_extend_permute ] );
      ( "coefficients",
        [ test_qcheck_coefficients_agree ();
          test_qcheck_lint_matches_dense () ] );
      ( "rule-book",
        [ Alcotest.test_case "fixpoint + compaction" `Quick test_rule_book;
          Alcotest.test_case "drops preserve evaluation" `Quick
            test_rule_book_drops ] );
      ( "structure",
        [ Alcotest.test_case "live mask" `Quick test_live_mask;
          Alcotest.test_case "projection embeds bitwise" `Quick test_project;
          Alcotest.test_case "is_identity" `Quick test_is_identity ] );
      ( "wide",
        [ Alcotest.test_case "40 relations" `Quick test_wide_widths;
          Alcotest.test_case "62-bit mask guard" `Quick test_mask_guard;
          Alcotest.test_case "Subset.elements top bits" `Quick
            test_subset_elements_wide ] );
      ( "views",
        [ Alcotest.test_case "view = restricted dense (bitwise)" `Quick
            test_view_matches_dense_restriction;
          Alcotest.test_case "Acc + pools 1/2/4 (bitwise)" `Quick
            test_view_acc_and_pools;
          Alcotest.test_case "validation" `Quick test_view_validation ] ) ]
