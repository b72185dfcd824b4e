(* Determinism tests:

   1. One sample per (plan, seed): over random executable plans with
      RNG-consuming samplers on either or both join sides, exec and
      exec_profiled return the same rows in the same order, and every
      profile's rows_in is the sum of its children's rows_out.
   2. Harness.trials_par and map_trials_par return bit-identical results
      for every lane count, including no pool at all.
   3. A read set moves no row: over random plans with every operator and
      every sampler kind, exec, exec_profiled and exec_exact with a
      random read set return the same rows, order, lineage and
      read-column values as without one. *)

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

let same_value x y =
  match (x, y) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | x, y -> x = y

let same_tuple (a : Tuple.t) (b : Tuple.t) =
  a.Tuple.lineage = b.Tuple.lineage
  && Array.length a.Tuple.values = Array.length b.Tuple.values
  && Array.for_all2 same_value a.Tuple.values b.Tuple.values

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

(* ---- 3. a read set moves no row ---- *)

let any_sampler card =
  QCheck2.Gen.(
    oneof
      [ map (fun p -> Sampler.Bernoulli p) (float_range 0.2 0.9);
        map (fun n -> Sampler.Wor n) (int_range 1 card);
        map (fun n -> Sampler.Wr n) (int_range 1 card);
        map2
          (fun rows_per_block p -> Sampler.Block { rows_per_block; p })
          (int_range 1 20) (float_range 0.2 0.9);
        map2
          (fun seed p -> Sampler.Hash_bernoulli { seed; p })
          (int_range 0 1000) (float_range 0.2 0.9) ])

(* One base relation: a leaf (maybe sampled, maybe filtered below or
   above the sampler), maybe the union of two of them, maybe under a
   Distinct, a Project or both.  The Project keeps the columns [keys]
   the operators above it read, under their own names, and adds one
   computed column [alias]. *)
let unit_gen db name ~pred ~keys ~alias ~value =
  let card = Relation.cardinality (Database.find db name) in
  QCheck2.Gen.(
    let leaf =
      map3
        (fun filter_at s filter_above ->
          let filter q = Splan.Select (pred, q) in
          let q = Splan.Scan name in
          let q = if filter_at = 1 then filter q else q in
          let q = match s with Some s -> Splan.Sample (s, q) | None -> q in
          if filter_above then filter q else q)
        (int_bound 2) (opt (any_sampler card)) bool
    in
    let distinct = map (fun q -> Splan.Distinct q) in
    let fields = List.map (fun k -> (k, Expr.col k)) keys @ [ (alias, value) ] in
    let project = map (fun q -> Splan.Project (fields, q)) in
    frequency
      [ (3, leaf);
        ( 1,
          map2
            (fun l r -> Splan.Union_samples (l, r))
            (oneof [ leaf; distinct leaf ])
            leaf );
        (1, distinct leaf);
        (1, project leaf);
        (1, distinct (project leaf)) ])

let read_plan_gen db =
  let lineitem =
    unit_gen db "lineitem" ~pred:Expr.(col "l_quantity" < float 25.0)
      ~keys:[ "l_orderkey" ] ~alias:"lv" ~value:Expr.(col "l_discount" * float 2.0)
  and orders =
    unit_gen db "orders" ~pred:Expr.(col "o_totalprice" > float 100000.0)
      ~keys:[ "o_orderkey"; "o_custkey" ] ~alias:"ov"
      ~value:Expr.(col "o_orderdate" + int 1)
  and customer =
    unit_gen db "customer" ~pred:Expr.(col "c_acctbal" > float 0.0)
      ~keys:[ "c_custkey"; "c_nationkey" ] ~alias:"cv" ~value:(Expr.col "c_mktsegment")
  and part =
    unit_gen db "part" ~pred:Expr.(col "p_size" > int 10)
      ~keys:[ "p_partkey"; "p_size" ] ~alias:"pv" ~value:(Expr.col "p_brand")
  and supplier =
    unit_gen db "supplier" ~pred:Expr.(col "s_acctbal" > float 0.0)
      ~keys:[ "s_suppkey" ] ~alias:"sv" ~value:Expr.(col "s_acctbal" * float 3.0)
  in
  QCheck2.Gen.(
    let two = join_gen lineitem orders ~on:("l_orderkey", "o_orderkey") in
    let three = join_gen two customer ~on:("o_custkey", "c_custkey") in
    let theta =
      map2
        (fun p c -> Splan.Theta_join (Expr.(col "p_size" > col "c_nationkey"), p, c))
        part customer
    in
    let cross = map2 (fun p s -> Splan.Cross (p, s)) part supplier in
    (* Above: maybe a filter on [key], a column every shape of the group
       keeps, maybe a sampler, maybe a Distinct or a Project of [key]. *)
    let top shapes key =
      map3
        (fun core (filtered, s) wrap ->
          let q =
            if filtered then Splan.Select (Expr.(col key > int 3), core) else core
          in
          let q = match s with Some s -> Splan.Sample (s, q) | None -> q in
          match wrap with
          | 0 -> Splan.Distinct q
          | 1 -> Splan.Project ([ ("top", Expr.(col key * int 2)) ], q)
          | _ -> q)
        (oneof shapes)
        (pair bool
           (opt
              (oneof
                 [ map (fun p -> Sampler.Bernoulli p) (float_range 0.2 0.9);
                   map (fun n -> Sampler.Wor n) (int_range 1 400);
                   map (fun n -> Sampler.Wr n) (int_range 1 400) ])))
        (int_range 0 4)
    in
    oneof
      [ top [ lineitem; two; three ] "l_orderkey"; top [ theta; cross ] "p_partkey" ])

(* Each of the database's columns, the units' aliases and a name no
   relation has, with probability 0.3. *)
let read_gen db =
  let names =
    List.concat_map
      (fun rel ->
        List.map
          (fun c -> c.Schema.name)
          (Schema.columns (Database.find db rel).Relation.schema))
      (Database.names db)
    @ [ "lv"; "ov"; "cv"; "pv"; "sv"; "top"; "nope" ]
  in
  QCheck2.Gen.(
    map (List.filter_map Fun.id)
      (flatten_l (List.map (fun n -> opt ~ratio:0.3 (pure n)) names)))

let outcome f =
  match f () with r -> Ok r | exception e -> Error (Printexc.exn_slot_name e)

(* [cut] (run with [read]) against [full] (run without): the same rows
   in the same order with the same lineage, and every read column of
   [full] in [cut] with the same values. *)
let same_read_rows read full cut =
  let n = Relation.cardinality full in
  let lin_full = Relation.lineage full and lin_cut = Relation.lineage cut in
  Relation.cardinality cut = n
  && full.Relation.lineage_schema = cut.Relation.lineage_schema
  && List.for_all (fun i -> lin_full i = lin_cut i) (List.init n Fun.id)
  && List.for_all
       (fun name ->
         match Schema.find_index full.Relation.schema name with
         | None -> true
         | Some j -> (
             match Schema.find_index cut.Relation.schema name with
             | None -> false
             | Some k ->
                 let a = full.Relation.cols.Relation.ccols.(j)
                 and b = cut.Relation.cols.Relation.ccols.(k) in
                 List.for_all
                   (fun i -> same_value (Column.get a i) (Column.get b i))
                   (List.init n Fun.id)))
       read

let same_outcome same full cut =
  match (full, cut) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let same_profiles a b =
  List.equal
    (fun (p : Splan.node_profile) (q : Splan.node_profile) ->
      p.np_path = q.np_path && p.np_label = q.np_label
      && p.np_rows_in = q.np_rows_in && p.np_rows_out = q.np_rows_out)
    a b

let prop_read_set_keeps_rows =
  let db = Harness.db_cached ~scale:0.01 in
  QCheck2.Test.make ~name:"a read set keeps rows, order, lineage and read values"
    ~count:300
    ~print:(fun (plan, read, seed) ->
      Format.asprintf "seed=%d read=[%s] plan=%a" seed (String.concat ";" read)
        Splan.pp plan)
    QCheck2.Gen.(triple (read_plan_gen db) (read_gen db) (int_range 0 10_000))
    (fun (plan, read, seed) ->
      let same = same_read_rows read in
      let run ?read () = Splan.exec ?read db (Rng.create seed) plan in
      let profiled ?read () = Splan.exec_profiled ?read db (Rng.create seed) plan in
      let exact ?read () = Splan.exec_exact ?read db plan in
      same_outcome same (outcome run) (outcome (run ~read))
      && same_outcome
           (fun (a, pa) (b, pb) -> same a b && same_profiles pa pb)
           (outcome profiled) (outcome (profiled ~read))
      && same_outcome same (outcome exact) (outcome (exact ~read))
      (* the scan walk names the lineage schema's relations, in order *)
      && match Splan.lineage_schema plan with
         | schema -> Splan.relations plan = Array.to_list schema
         | exception _ -> true)

(* The scans of a statement carry only its read set: the SELECT value's
   columns and the join keys. *)
let test_read_set_cuts_scans () =
  let db = Harness.db_cached ~scale:0.01 in
  let q02 =
    Splan.Equi_join
      { left = Splan.Sample (Sampler.Bernoulli 0.2, Splan.Scan "lineitem");
        right = Splan.Scan "orders";
        left_key = Expr.col "l_orderkey";
        right_key = Expr.col "o_orderkey" }
  in
  let names rel =
    List.map (fun c -> c.Schema.name) (Schema.columns rel.Relation.schema)
  in
  let cut = Splan.exec ~read:[ "l_extendedprice" ] db (Rng.create 3) q02 in
  Alcotest.(check (list string))
    "q02 gathers three columns"
    [ "l_orderkey"; "l_extendedprice"; "o_orderkey" ]
    (names cut);
  check_int "every lineitem and orders column without a read set" 15
    (List.length (names (Splan.exec db (Rng.create 3) q02)));
  let scan = Database.find db "lineitem" in
  let view = Relation.restrict_columns scan [ "l_tax"; "l_quantity"; "nope" ] in
  Alcotest.(check (list string)) "schema order" [ "l_quantity"; "l_tax" ] (names view);
  Alcotest.(check string) "name kept" "lineitem" view.Relation.name;
  check_bool "identity lineage kept" true
    (view.Relation.cols.Relation.clineage = Relation.Identity);
  let l_quantity = Schema.index_of scan.Relation.schema "l_quantity" in
  check_bool "columns shared, not copied" true
    (view.Relation.cols.Relation.ccols.(0)
    == scan.Relation.cols.Relation.ccols.(l_quantity));
  check_bool "fresh cols record" true (view.Relation.cols != scan.Relation.cols)

(* Two rows that differ only in a column nobody reads: a Distinct above
   their scan still compares whole rows, so both survive; above a
   Project onto the read column they are one row either way. *)
let test_read_set_below_distinct () =
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TFloat } ]
  in
  let t = Relation.create_base ~name:"t" schema in
  Relation.append_row t [| Value.Int 1; Value.Float 1.0 |];
  Relation.append_row t [| Value.Int 1; Value.Float 2.0 |];
  let db = Database.create () in
  Database.add db t;
  let rows ?read plan = Relation.cardinality (Splan.exec ?read db (Rng.create 0) plan) in
  let distinct = Splan.Distinct (Splan.Scan "t") in
  check_int "distinct, no read set" 2 (rows distinct);
  check_int "distinct, read set {k}" 2 (rows ~read:[ "k" ] distinct);
  let projected =
    Splan.Distinct (Splan.Project ([ ("k", Expr.col "k") ], Splan.Scan "t"))
  in
  check_int "distinct over project, no read set" 1 (rows projected);
  check_int "distinct over project, read set {k}" 1 (rows ~read:[ "k" ] projected)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_one_sample_per_seed; prop_read_set_keeps_rows ]

let () =
  Alcotest.run "parallel"
    [ ("properties", qcheck_tests);
      ( "read-set",
        [ Alcotest.test_case "scans carry the read set" `Quick
            test_read_set_cuts_scans;
          Alcotest.test_case "unread column below a distinct" `Quick
            test_read_set_below_distinct ] );
      ( "pool-invariance",
        [ Alcotest.test_case "trials_par lanes 0/1/2/3" `Quick
            test_trials_par_lane_invariant;
          Alcotest.test_case "map_trials_par lanes 0/1/2/3" `Quick
            test_map_trials_par_lane_invariant ] ) ]
