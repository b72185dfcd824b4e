(* The boxed row engine the library no longer carries, kept as the test
   oracle for its columnar kernels.  A relation is a [Tuple.t array] and
   every operator is the plain tuple-at-a-time evaluation: select and
   project through [Expr.bind], the equi-join as nested loops that build
   on the smaller side and emit each probe row's matches in build order,
   and every sampler drawing from the RNG in row order.  [Ops] and
   [Sampler] are held against these bit for bit: the same values,
   lineage, row order and exceptions.  GROUP BY's rendered-key partition
   is kept here too, as the oracle for [Runner.partition_groups]. *)

open Gus_relational
module Rng = Gus_util.Rng
module Hashing = Gus_util.Hashing
module Sampler = Gus_sampling.Sampler
module Splan = Gus_core.Splan

type t = {
  name : string;
  schema : Schema.t;
  lineage_schema : Lineage.schema;
  rows : Tuple.t array;
}

let of_relation rel =
  { name = rel.Relation.name;
    schema = rel.Relation.schema;
    lineage_schema = rel.Relation.lineage_schema;
    rows = Array.init (Relation.cardinality rel) (Relation.tuple rel) }

let filter keep rows = Array.of_list (List.filter keep (Array.to_list rows))

let select pred r =
  let keep = Expr.bind_predicate r.schema pred in
  { r with name = Printf.sprintf "select(%s)" r.name; rows = filter keep r.rows }

let project fields r =
  let schema = Ops.project_schema fields r.schema in
  let evals = List.map (fun (_, e) -> Expr.bind r.schema e) fields in
  { r with
    name = Printf.sprintf "project(%s)" r.name;
    schema;
    rows =
      Array.map
        (fun tup ->
          Tuple.with_values tup (Array.of_list (List.map (fun f -> f tup) evals)))
        r.rows }

let equi_join ~left_key ~right_key a b =
  let schema = Schema.concat a.schema b.schema in
  let lineage_schema = Lineage.schema_concat a.lineage_schema b.lineage_schema in
  let lkey = Expr.bind a.schema left_key in
  let rkey = Expr.bind b.schema right_key in
  let build, probe, build_key, probe_key, build_left =
    if Array.length a.rows <= Array.length b.rows then (a, b, lkey, rkey, true)
    else (b, a, rkey, lkey, false)
  in
  let out = ref [] in
  Array.iter
    (fun ptup ->
      let k = probe_key ptup in
      if not (Value.is_null k) then
        Array.iter
          (fun btup ->
            let bk = build_key btup in
            if (not (Value.is_null bk)) && Value.equal bk k then
              out :=
                (if build_left then Tuple.concat btup ptup else Tuple.concat ptup btup)
                :: !out)
          build.rows)
    probe.rows;
  { name = Printf.sprintf "(%s*%s)" a.name b.name;
    schema;
    lineage_schema;
    rows = Array.of_list (List.rev !out) }

let sample s rng r =
  Sampler.validate s;
  let named suffix rows = { r with name = Printf.sprintf "%s(%s)" suffix r.name; rows } in
  let card = Array.length r.rows in
  match s with
  | Sampler.Bernoulli p -> named "sample" (filter (fun _ -> Rng.bernoulli rng p) r.rows)
  | Sampler.Wor n ->
      let idx = Rng.sample_without_replacement rng (min n card) card in
      Array.sort compare idx;
      named "sample" (Array.map (fun i -> r.rows.(i)) idx)
  | Sampler.Wr n ->
      named "sample"
        (if card = 0 then [||] else Array.init n (fun _ -> r.rows.(Rng.int rng card)))
  | Sampler.Block { rows_per_block; p } ->
      (* One draw per block up to the largest lineage id's block, and at
         least one per ceil(card / rows_per_block). *)
      let top = Array.fold_left (fun m tup -> max m tup.Tuple.lineage.(0)) (-1) r.rows in
      let keep =
        Array.init
          (max ((card + rows_per_block - 1) / rows_per_block)
             ((top + rows_per_block) / rows_per_block))
          (fun _ -> Rng.bernoulli rng p)
      in
      named "blocksample"
        (Array.of_list
           (List.filter_map
              (fun tup ->
                let block = tup.Tuple.lineage.(0) / rows_per_block in
                if keep.(block) then begin
                  let lineage = Array.copy tup.Tuple.lineage in
                  lineage.(0) <- block;
                  Some { tup with Tuple.lineage }
                end
                else None)
              (Array.to_list r.rows)))
  | Sampler.Hash_bernoulli { seed; p } ->
      named "hashsample"
        (filter (fun tup -> Hashing.prf_float ~seed tup.Tuple.lineage.(0) < p) r.rows)

(* GROUP BY's partition as the engine first computed it, over a
   relation: every key of every row rendered to its display string, and
   the groups found on the list of strings — the oracle for
   [Runner.partition_groups].  Groups in first-seen key order, each
   group's row indices in input order. *)
let partition_groups keys rel =
  let evals = List.map (Relation.bind rel) keys in
  let ids : (string list, int) Hashtbl.t = Hashtbl.create 32 in
  let order = Gus_util.Vec.create () and rows = Gus_util.Vec.create () in
  for i = 0 to Relation.cardinality rel - 1 do
    let k = List.map (fun ev -> Value.to_display (ev i)) evals in
    match Hashtbl.find_opt ids k with
    | Some g -> Gus_util.Vec.push (Gus_util.Vec.get rows g) i
    | None ->
        Hashtbl.add ids k (Gus_util.Vec.length order);
        Gus_util.Vec.push order k;
        let v = Gus_util.Vec.create () in
        Gus_util.Vec.push v i;
        Gus_util.Vec.push rows v
  done;
  List.combine (Gus_util.Vec.to_list order)
    (List.map Gus_util.Vec.to_array (Gus_util.Vec.to_list rows))

(* Plan evaluation over base relations, children evaluated right before
   left as [Splan.exec] does, so the RNG sees the same draw order. *)
let rec exec db rng plan =
  let go = exec db rng in
  match plan with
  | Splan.Scan name -> of_relation (Database.find db name)
  | Splan.Select (pred, q) -> select pred (go q)
  | Splan.Project (fields, q) -> project fields (go q)
  | Splan.Equi_join { left; right; left_key; right_key } ->
      let r = go right in
      let l = go left in
      equi_join ~left_key ~right_key l r
  | Splan.Sample (s, q) -> sample s rng (go q)
  | Splan.Theta_join _ | Splan.Cross _ | Splan.Distinct _ | Splan.Union_samples _ ->
      invalid_arg "Row_oracle.exec: operator outside the oracle"
