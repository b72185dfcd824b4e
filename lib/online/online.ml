module Splan = Gus_core.Splan
module Gus = Gus_core.Gus
module Sbox = Gus_estimator.Sbox
module Interval = Gus_stats.Interval
module Rng = Gus_util.Rng
open Gus_relational

type stream = {
  relation : Relation.t;
  order : int array;  (** shuffled row indices *)
  mutable consumed : int;
}

type t = {
  skeleton : Splan.t;
  f : Expr.t;
  streams : (string * stream) list;  (** in lineage-schema order *)
}

type checkpoint = {
  fractions : (string * float) list;
  rows_read : int;
  report : Sbox.report;
  interval : Interval.t;
}

let create ?(seed = 1) db ~plan ~f =
  let skeleton = Splan.strip_samples plan in
  let rels = Splan.relations skeleton in
  let rng = Rng.create seed in
  let streams =
    List.map
      (fun name ->
        let relation = Database.find db name in
        let order = Array.init (Relation.cardinality relation) Fun.id in
        Rng.shuffle rng order;
        (name, { relation; order; consumed = 0 }))
      rels
  in
  { skeleton; f; streams }

let finished t =
  List.for_all
    (fun (_, s) -> s.consumed >= Array.length s.order)
    t.streams

(* Keeps base-relation row ids: the WOR analysis only compares lineage. *)
let prefix_relation s = Relation.gather_rows s.relation s.order s.consumed

let estimate t =
  let db' = Database.create () in
  List.iter (fun (_, s) -> Database.add db' (prefix_relation s)) t.streams;
  let gus =
    List.fold_left
      (fun acc (name, s) ->
        let total = Array.length s.order in
        let g =
          if total = 0 then Gus.identity [| name |]
          else Gus.wor ~rel:name ~n:s.consumed ~out_of:total
        in
        match acc with None -> Some g | Some a -> Some (Gus.join a g))
      None t.streams
    |> Option.get
  in
  (* No sampling operators remain in the skeleton; the RNG goes unused. *)
  let report = Sbox.of_plan ~gus ~f:t.f db' (Rng.create 0) t.skeleton in
  let interval = Sbox.interval Interval.Normal report in
  { fractions =
      List.map
        (fun (name, s) ->
          let total = Array.length s.order in
          ( name,
            if total = 0 then 1.0
            else float_of_int s.consumed /. float_of_int total ))
        t.streams;
    rows_read = List.fold_left (fun acc (_, s) -> acc + s.consumed) 0 t.streams;
    report;
    interval }

let step t ~rows =
  if rows <= 0 then invalid_arg "Online.step: rows must be positive";
  List.iter
    (fun (_, s) -> s.consumed <- min (Array.length s.order) (s.consumed + rows))
    t.streams;
  estimate t

let run ?(seed = 1) db ~plan ~f ~checkpoints =
  if checkpoints <= 0 then invalid_arg "Online.run: checkpoints must be positive";
  let t = create ~seed db ~plan ~f in
  let max_rows =
    List.fold_left (fun acc (_, s) -> max acc (Array.length s.order)) 0 t.streams
  in
  let per_step = max 1 ((max_rows + checkpoints - 1) / checkpoints) in
  let rec go acc =
    let cp = step t ~rows:per_step in
    if finished t then List.rev (cp :: acc) else go (cp :: acc)
  in
  go []
