open Gus_relational
module Sampler = Gus_sampling.Sampler

type t =
  | Scan of string
  | Select of Expr.t * t
  | Project of (string * Expr.t) list * t
  | Equi_join of { left : t; right : t; left_key : Expr.t; right_key : Expr.t }
  | Theta_join of Expr.t * t * t
  | Cross of t * t
  | Distinct of t
  | Sample of Sampler.t * t
  | Union_samples of t * t

exception Union_lineage_mismatch of { left : string list; right : string list }

let scan name = Scan name
let select pred q = Select (pred, q)

let equi_join left right ~on:(lk, rk) =
  Equi_join { left; right; left_key = Expr.col lk; right_key = Expr.col rk }

let sample s q = Sample (s, q)

let rec lineage_schema = function
  | Scan name -> Lineage.schema_of name
  | Select (_, q) | Project (_, q) | Sample (_, q) | Distinct q ->
      lineage_schema q
  | Equi_join { left; right; _ } ->
      Lineage.schema_concat (lineage_schema left) (lineage_schema right)
  | Theta_join (_, l, r) | Cross (l, r) ->
      Lineage.schema_concat (lineage_schema l) (lineage_schema r)
  | Union_samples (l, r) ->
      let sl = lineage_schema l and sr = lineage_schema r in
      if not (Lineage.schema_equal sl sr) then
        raise
          (Union_lineage_mismatch
             { left = Array.to_list sl; right = Array.to_list sr });
      sl

let rec strip_samples = function
  | Scan name -> Scan name
  | Select (p, q) -> Select (p, strip_samples q)
  | Project (fields, q) -> Project (fields, strip_samples q)
  | Equi_join { left; right; left_key; right_key } ->
      Equi_join
        { left = strip_samples left;
          right = strip_samples right;
          left_key;
          right_key }
  | Theta_join (p, l, r) -> Theta_join (p, strip_samples l, strip_samples r)
  | Cross (l, r) -> Cross (strip_samples l, strip_samples r)
  | Distinct q -> Distinct (strip_samples q)
  | Sample (_, q) -> strip_samples q
  | Union_samples (l, _) -> strip_samples l

let rec equal p q =
  match (p, q) with
  | Scan a, Scan b -> String.equal a b
  | Select (e1, q1), Select (e2, q2) -> e1 = e2 && equal q1 q2
  | Project (f1, q1), Project (f2, q2) -> f1 = f2 && equal q1 q2
  | Equi_join j1, Equi_join j2 ->
      j1.left_key = j2.left_key && j1.right_key = j2.right_key
      && equal j1.left j2.left && equal j1.right j2.right
  | Theta_join (e1, l1, r1), Theta_join (e2, l2, r2) ->
      e1 = e2 && equal l1 l2 && equal r1 r2
  | Cross (l1, r1), Cross (l2, r2) -> equal l1 l2 && equal r1 r2
  | Sample (s1, q1), Sample (s2, q2) -> s1 = s2 && equal q1 q2
  | Distinct q1, Distinct q2 -> equal q1 q2
  | Union_samples (l1, r1), Union_samples (l2, r2) -> equal l1 l2 && equal r1 r2
  | ( ( Scan _ | Select _ | Project _ | Equi_join _ | Theta_join _ | Cross _
      | Distinct _ | Sample _ | Union_samples _ ),
      _ ) ->
      false

let node_label = function
  | Scan name -> name
  | Select (e, _) -> Format.asprintf "select %a" Expr.pp e
  | Project (fields, _) ->
      Printf.sprintf "project %s" (String.concat "," (List.map fst fields))
  | Equi_join { left_key; right_key; _ } ->
      Format.asprintf "join %a = %a" Expr.pp left_key Expr.pp right_key
  | Theta_join (e, _, _) -> Format.asprintf "theta-join %a" Expr.pp e
  | Cross _ -> "cross"
  | Distinct _ -> "distinct"
  | Sample (s, _) -> Sampler.to_string s
  | Union_samples _ -> "union-samples"

let children = function
  | Scan _ -> []
  | Select (_, q) | Project (_, q) | Distinct q | Sample (_, q) -> [ q ]
  | Equi_join { left; right; _ } -> [ left; right ]
  | Theta_join (_, l, r) | Cross (l, r) | Union_samples (l, r) -> [ l; r ]

(* Per-node execution profile for EXPLAIN ANALYZE.  Unlike trace spans
   this is an explicit mode, not flag-guarded: callers ask for profiles
   and pay for the clock reads. *)

type node_profile = {
  np_path : int list;
  np_label : string;
  np_wall_ns : int;  (** inclusive of children *)
  np_rows_in : int;
  np_rows_out : int;
}

(* Every column a node's expression reads: predicates, join keys and
   projected fields. *)
let rec plan_columns acc = function
  | Scan _ -> acc
  | Select (e, q) -> plan_columns (Expr.columns e @ acc) q
  | Project (fields, q) ->
      plan_columns (List.concat_map (fun (_, e) -> Expr.columns e) fields @ acc) q
  | Equi_join { left; right; left_key; right_key } ->
      let acc = Expr.columns left_key @ Expr.columns right_key @ acc in
      plan_columns (plan_columns acc left) right
  | Theta_join (e, l, r) -> plan_columns (plan_columns (Expr.columns e @ acc) l) r
  | Cross (l, r) | Union_samples (l, r) -> plan_columns (plan_columns acc l) r
  | Distinct q | Sample (_, q) -> plan_columns acc q

(* The one plan walker behind [exec] and [exec_profiled].  A binary node
   runs its right child before its left: every seeded sample is pinned
   to that RNG draw order, so it is written out here once rather than
   left to the compiler's argument-evaluation order.  Trace spans (when
   tracing is on) and EXPLAIN profiles (when [profiles] is given) observe
   the same walk, so neither can perturb the sample.  [path] is the
   reversed root-to-node child-index list.

   With [read], every Scan returns a view of its base relation holding
   only the statement's read set: [read] plus the columns the plan's own
   nodes read.  [keep] is the set a subtree's scans are cut to, [None]
   for every column: a Distinct compares whole rows and a Union_samples
   needs one schema on both branches, so neither is cut beneath, up to
   a Project, whose output does not depend on its input's other
   columns. *)
let walk ?read ?profiles db rng plan =
  let read =
    Option.map
      (fun cols -> List.sort_uniq String.compare (plan_columns cols plan))
      read
  in
  let card = Relation.cardinality in
  let profiling = Option.is_some profiles in
  let rec go path keep plan =
    let traced = Gus_obs.Trace.enabled () in
    let label = if traced || profiling then node_label plan else "" in
    let t0 = if profiling then Gus_obs.Trace.now_ns () else 0 in
    if traced then Gus_obs.Trace.enter label;
    match node path keep plan with
    | rel, rows_in ->
        if traced then
          Gus_obs.Trace.leave label
            ~args:[ ("rows_out", string_of_int (card rel)) ];
        Option.iter
          (fun acc ->
            acc :=
              { np_path = List.rev path;
                np_label = label;
                np_wall_ns = Gus_obs.Trace.now_ns () - t0;
                np_rows_in = rows_in;
                np_rows_out = card rel }
              :: !acc)
          profiles;
        rel
    | exception e ->
        if traced then Gus_obs.Trace.leave label;
        raise e
  (* The node's output and its rows in: the sum of its inputs'
     cardinalities, a Scan's own. *)
  and node path keep = function
    | Scan name ->
        let r = Database.find db name in
        let r =
          match keep with
          | Some cols -> Relation.restrict_columns r cols
          | None -> r
        in
        (r, card r)
    | Select (pred, q) -> unary path keep (Ops.select pred) q
    | Project (fields, q) -> unary path read (Ops.project fields) q
    | Distinct q -> unary path None Ops.distinct q
    | Sample (s, q) -> unary path keep (Sampler.apply s rng) q
    | Equi_join { left; right; left_key; right_key } ->
        binary path keep (Ops.equi_join ~left_key ~right_key) left right
    | Theta_join (pred, l, r) -> binary path keep (Ops.theta_join pred) l r
    | Cross (l, r) -> binary path keep Ops.cross l r
    | Union_samples (l, r) -> binary path None Ops.union_lineage l r
  and unary path keep op q =
    let c = go (0 :: path) keep q in
    (op c, card c)
  and binary path keep op l r =
    let rr = go (1 :: path) keep r in
    let lr = go (0 :: path) keep l in
    (op lr rr, card lr + card rr)
  in
  go [] read plan

let exec ?read db rng plan = walk ?read db rng plan

let exec_profiled ?read db rng plan =
  let profiles = ref [] in
  let rel = walk ?read ~profiles db rng plan in
  (rel, List.rev !profiles)

let exec_exact ?read db q =
  (* No sampling remains, so the RNG is never consulted. *)
  exec ?read db (Gus_util.Rng.create 0) (strip_samples q)

let rec pp ppf = function
  | Scan name -> Format.pp_print_string ppf name
  | Select (e, q) -> Format.fprintf ppf "select[%a](%a)" Expr.pp e pp q
  | Project (fields, q) ->
      Format.fprintf ppf "project[%s](%a)"
        (String.concat "," (List.map fst fields))
        pp q
  | Equi_join { left; right; left_key; right_key } ->
      Format.fprintf ppf "join[%a=%a](%a, %a)" Expr.pp left_key Expr.pp right_key
        pp left pp right
  | Theta_join (e, l, r) ->
      Format.fprintf ppf "theta_join[%a](%a, %a)" Expr.pp e pp l pp r
  | Cross (l, r) -> Format.fprintf ppf "cross(%a, %a)" pp l pp r
  | Distinct q -> Format.fprintf ppf "distinct(%a)" pp q
  | Sample (s, q) -> Format.fprintf ppf "%s(%a)" (Sampler.to_string s) pp q
  | Union_samples (l, r) -> Format.fprintf ppf "union(%a, %a)" pp l pp r

let pp_tree ppf plan =
  Gus_obs.Planfmt.pp ~label:node_label ~children ppf plan

let relations plan =
  (* A walk over the scans, not [lineage_schema]: a self-join must list
     its relation once, not raise [Lineage.Overlap]. *)
  let rec go acc = function
    | Scan name -> if List.mem name acc then acc else name :: acc
    | q -> List.fold_left go acc (children q)
  in
  List.rev (go [] plan)

let rec subtree plan = function
  | [] -> Some plan
  | i :: rest -> (
      match List.nth_opt (children plan) i with
      | Some child -> subtree child rest
      | None -> None)
