module Hashing = Gus_util.Hashing
open Gus_relational

type dim = { relation : string; seed : int; p : float }

let apply dims rel =
  List.iter
    (fun d ->
      if not (d.p >= 0.0 && d.p <= 1.0) then
        invalid_arg (Printf.sprintf "Subsample: rate %g not in [0,1]" d.p))
    dims;
  let schema = rel.Relation.lineage_schema in
  let find name =
    match List.filter (fun d -> String.equal d.relation name) dims with
    | [ d ] -> d
    | [] -> invalid_arg (Printf.sprintf "Subsample: no dimension for relation %s" name)
    | _ -> invalid_arg (Printf.sprintf "Subsample: duplicate dimension for %s" name)
  in
  let slot_dims = Array.map find schema in
  let kept row =
    let keep = ref true in
    Array.iteri
      (fun i d ->
        if !keep && Hashing.prf_float ~seed:d.seed (Relation.lineage_id rel ~slot:i row) >= d.p
        then keep := false)
      slot_dims;
    !keep
  in
  let idx, count = Ops.select_indices kept (Relation.cardinality rel) in
  Relation.gather_rows
    ~name:(Printf.sprintf "subsample(%s)" rel.Relation.name)
    rel idx count

let plan_rates ~target ~current ~ndims =
  if ndims <= 0 then invalid_arg "Subsample.plan_rates: ndims <= 0";
  if current <= 0 || target >= current then 1.0
  else begin
    let ratio = float_of_int target /. float_of_int current in
    let r = Float.pow ratio (1.0 /. float_of_int ndims) in
    Float.max 1e-9 (Float.min 1.0 r)
  end
