(* Determinism tests:

   1. One sample per (plan, seed): over random executable plans with
      RNG-consuming samplers on either or both join sides, exec and
      exec_profiled return the same rows in the same order, and every
      profile's rows_in is the sum of its children's rows_out.
   2. Harness.trials_par and map_trials_par return bit-identical results
      for every lane count, including no pool at all. *)

module Splan = Gus_core.Splan
module Harness = Gus_experiments.Harness
module Sampler = Gus_sampling.Sampler
module Pool = Gus_util.Pool
module Rng = Gus_util.Rng
open Gus_relational

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* One pool per size for the whole binary; the at_exit registry reaps
   them, and reuse keeps the loops from respawning domains. *)
let pool_of =
  let tbl = Hashtbl.create 4 in
  fun size ->
    match Hashtbl.find_opt tbl size with
    | Some p -> p
    | None ->
        let p = Pool.create ~size in
        Hashtbl.add tbl size p;
        p

let db () = Harness.db_cached ~scale:0.1

(* ---- 1. one sample per (plan, seed) ---- *)

(* A base relation, maybe filtered by [pred] (Vexpr-compilable) and
   maybe sampled. *)
let leaf_gen db name pred =
  let card = Relation.cardinality (Database.find db name) in
  QCheck2.Gen.(
    let sampler =
      oneof
        [ map (fun p -> Sampler.Bernoulli p) (float_range 0.2 0.9);
          map (fun n -> Sampler.Wor n) (int_range 1 card);
          map2
            (fun seed p -> Sampler.Hash_bernoulli { seed; p })
            (int_range 0 1000) (float_range 0.2 0.9) ]
    in
    map2
      (fun filtered s ->
        let q = Splan.Scan name in
        let q = if filtered then Splan.Select (pred, q) else q in
        match s with Some s -> Splan.Sample (s, q) | None -> q)
      bool (opt sampler))

(* Either operand order: the right side runs (and draws) first. *)
let join_gen a b ~on:(ka, kb) =
  QCheck2.Gen.(
    map3
      (fun a b swap ->
        if swap then
          Splan.Equi_join
            { left = b; right = a; left_key = Expr.col kb; right_key = Expr.col ka }
        else
          Splan.Equi_join
            { left = a; right = b; left_key = Expr.col ka; right_key = Expr.col kb })
      a b bool)

let plan_gen db =
  let lineitem = leaf_gen db "lineitem" Expr.(col "l_quantity" < float 25.0)
  and orders = leaf_gen db "orders" Expr.(col "o_totalprice" > float 100000.0)
  and customer = leaf_gen db "customer" Expr.(col "c_acctbal" > float 0.0) in
  QCheck2.Gen.(
    let two = join_gen lineitem orders ~on:("l_orderkey", "o_orderkey") in
    let three = join_gen two customer ~on:("o_custkey", "c_custkey") in
    (* Above the joins: a filter and maybe one more sampler. *)
    let top =
      opt
        (oneof
           [ map (fun p -> Sampler.Bernoulli p) (float_range 0.2 0.9);
             map (fun n -> Sampler.Wor n) (int_range 1 400) ])
    in
    map3
      (fun core filtered s ->
        let q =
          if filtered then Splan.Select (Expr.(col "l_quantity" > float 10.0), core)
          else core
        in
        match s with Some s -> Splan.Sample (s, q) | None -> q)
      (oneof [ lineitem; two; three ]) bool top)

let tuples rel = Array.init (Relation.cardinality rel) (Relation.tuple rel)

let same_tuple (a : Tuple.t) (b : Tuple.t) =
  a.Tuple.lineage = b.Tuple.lineage
  && Array.length a.Tuple.values = Array.length b.Tuple.values
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Value.Float x, Value.Float y ->
             Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
         | x, y -> x = y)
       a.Tuple.values b.Tuple.values

let same_rows a b = Array.length a = Array.length b && Array.for_all2 same_tuple a b

(* Every node's rows_in is the sum of its children's rows_out; a Scan's
   is its own. *)
let profiles_consistent plan profs =
  let rows_out path =
    (List.find (fun p -> p.Splan.np_path = path) profs).Splan.np_rows_out
  in
  List.for_all
    (fun p ->
      match Splan.subtree plan p.Splan.np_path with
      | Some (Splan.Scan _) -> p.Splan.np_rows_in = p.Splan.np_rows_out
      | Some node ->
          let kids =
            List.mapi (fun i _ -> p.Splan.np_path @ [ i ]) (Splan.children node)
          in
          p.Splan.np_rows_in = List.fold_left (fun acc k -> acc + rows_out k) 0 kids
      | None -> false)
    profs

let rec node_count plan =
  1 + List.fold_left (fun acc c -> acc + node_count c) 0 (Splan.children plan)

let prop_one_sample_per_seed =
  let db = Harness.db_cached ~scale:0.01 in
  QCheck2.Test.make ~name:"one sample per (plan, seed)"
    ~count:200
    ~print:(fun (plan, seed) -> Format.asprintf "seed=%d plan=%a" seed Splan.pp plan)
    QCheck2.Gen.(pair (plan_gen db) (int_range 0 10_000))
    (fun (plan, seed) ->
      let plain = tuples (Splan.exec db (Rng.create seed) plan) in
      let profiled, profs = Splan.exec_profiled db (Rng.create seed) plan in
      same_rows plain (tuples profiled)
      && List.length profs = node_count plan
      && profiles_consistent plan profs)

(* ---- 2. trials_par bit-identical across lane counts ---- *)

let test_trials_par_lane_invariant () =
  let db = db () in
  let plan = Harness.query1_plan () in
  let base =
    Harness.trials_par ~trials:12 ~seed:5 db plan ~f:Harness.revenue_f
  in
  List.iter
    (fun size ->
      let s =
        Harness.trials_par ~pool:(pool_of size) ~trials:12 ~seed:5 db plan
          ~f:Harness.revenue_f
      in
      (* Every field, bit for bit: same per-trial samples (derived child
         streams), same block-order reduction regardless of lanes. *)
      check_bool (Printf.sprintf "pool %d bit-identical" size) true (s = base))
    [ 1; 2; 3 ]

let test_map_trials_par_lane_invariant () =
  let run pool =
    Harness.map_trials_par ?pool ~trials:25 ~seed:9 (fun rng t ->
        (t, Rng.bits64 rng, Rng.float rng))
  in
  let base = run None in
  check_int "trial count" 25 (Array.length base);
  Array.iteri (fun i (t, _, _) -> check_int "slot order" i t) base;
  List.iter
    (fun size ->
      check_bool
        (Printf.sprintf "pool %d bit-identical" size)
        true
        (run (Some (pool_of size)) = base))
    [ 1; 2; 3 ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_one_sample_per_seed ]

let () =
  Alcotest.run "parallel"
    [ ("properties", qcheck_tests);
      ( "pool-invariance",
        [ Alcotest.test_case "trials_par lanes 0/1/2/3" `Quick
            test_trials_par_lane_invariant;
          Alcotest.test_case "map_trials_par lanes 0/1/2/3" `Quick
            test_map_trials_par_lane_invariant ] ) ]
