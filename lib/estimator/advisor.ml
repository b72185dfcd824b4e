module Splan = Gus_core.Splan
module Gus = Gus_core.Gus
module Interval = Gus_stats.Interval
module Sampler = Gus_sampling.Sampler
open Gus_relational

type join_graph = {
  relations : string list;
  predicates : (string * string * Expr.t * Expr.t) list;
}

type prefix_estimate = {
  after_joining : string;
  size : float;
  interval : Interval.t;
}

type ranked_order = {
  order : string list;
  cost : float;
  prefixes : prefix_estimate list;
  cross_products : int;
}

let max_relations = 7

let validate db graph =
  if List.length graph.relations > max_relations then
    invalid_arg
      (Printf.sprintf "Advisor: %d relations exceed the exhaustive limit %d"
         (List.length graph.relations) max_relations);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r then
        invalid_arg (Printf.sprintf "Advisor: duplicate relation %s" r);
      Hashtbl.add seen r ();
      if not (Database.mem db r) then
        invalid_arg (Printf.sprintf "Advisor: unknown relation %s" r))
    graph.relations;
  List.iter
    (fun (a, b, _, _) ->
      if not (Hashtbl.mem seen a && Hashtbl.mem seen b) then
        invalid_arg "Advisor: predicate over a relation not in the graph")
    graph.predicates

(* Find an unused predicate connecting [rel] to the prefix set. *)
let connecting graph prefix rel =
  List.find_opt
    (fun (a, b, _, _) ->
      (List.mem a prefix && b = rel) || (List.mem b prefix && a = rel))
    graph.predicates

let extend_plan graph prefix_rels plan rel =
  match connecting graph prefix_rels rel with
  | Some (a, _, ka, kb) ->
      let left_key, right_key = if List.mem a prefix_rels then (ka, kb) else (kb, ka) in
      (Splan.Equi_join { left = plan; right = Splan.Scan rel; left_key; right_key }, false)
  | None -> (Splan.Cross (plan, Splan.Scan rel), true)

let plan_of_order graph order =
  match order with
  | [] -> invalid_arg "Advisor.plan_of_order: empty order"
  | first :: rest ->
      let plan, _, _ =
        List.fold_left
          (fun (plan, prefix, crosses) rel ->
            let plan, is_cross = extend_plan graph prefix plan rel in
            (plan, rel :: prefix, if is_cross then crosses + 1 else crosses))
          (Splan.Scan first, [ first ], 0)
          rest
      in
      plan

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let advise ?(seed = 2013) ?(rate = 0.05) db graph =
  validate db graph;
  if not (rate > 0.0 && rate <= 1.0) then invalid_arg "Advisor: rate not in (0,1]";
  (* One shared pilot sample per base relation. *)
  let rng = Gus_util.Rng.create seed in
  let sampled = Database.create () in
  List.iter
    (fun r ->
      let s = Sampler.apply (Sampler.Bernoulli rate) rng (Database.find db r) in
      (* Re-register under the original name so skeleton Scans resolve. *)
      Database.add sampled { s with Relation.name = r })
    graph.relations;
  let cost_order order =
    match order with
    | [] -> invalid_arg "Advisor: empty order"
    | first :: rest ->
        let _, _, crosses, prefixes =
          List.fold_left
            (fun (plan, prefix_rels, crosses, acc) rel ->
              let plan, is_cross = extend_plan graph prefix_rels plan rel in
              let prefix_rels = rel :: prefix_rels in
              (* The prefix over the pilot samples, analyzed as a GUS plan:
                 every scan is a Bernoulli(rate) sample. *)
              let sample_rel = Splan.exec sampled (Gus_util.Rng.create 0) plan in
              let gus =
                List.fold_left
                  (fun g r ->
                    match g with
                    | None -> Some (Gus.bernoulli ~rel:r rate)
                    | Some g -> Some (Gus.join g (Gus.bernoulli ~rel:r rate)))
                  None (List.rev prefix_rels)
                |> Option.get
              in
              let report = Sbox.of_relation ~gus ~f:(Expr.float 1.0) sample_rel in
              let est =
                { after_joining = rel;
                  size = report.Sbox.estimate;
                  interval = Sbox.interval Interval.Normal report }
              in
              (plan, prefix_rels, (if is_cross then crosses + 1 else crosses),
               est :: acc))
            (Splan.Scan first, [ first ], 0, [])
            rest
        in
        let prefixes = List.rev prefixes in
        { order;
          cost = List.fold_left (fun acc p -> acc +. p.size) 0.0 prefixes;
          prefixes;
          cross_products = crosses }
  in
  let ranked = List.map cost_order (permutations graph.relations) in
  List.sort
    (fun a b ->
      match compare a.cross_products b.cross_products with
      | 0 -> compare a.cost b.cost
      | c -> c)
    ranked

let best ?seed ?rate db graph =
  match advise ?seed ?rate db graph with
  | [] -> invalid_arg "Advisor.best: empty graph"
  | first :: _ -> first
