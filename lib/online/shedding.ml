module Splan = Gus_core.Splan
module Gus = Gus_core.Gus
module Sbox = Gus_estimator.Sbox
module Interval = Gus_stats.Interval
module Sampler = Gus_sampling.Sampler
open Gus_relational

type rates = (string * float) list

let proportional_rates ~arrivals ~capacity =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 arrivals in
  let r =
    if total = 0 then 1.0
    else Float.min 1.0 (float_of_int capacity /. float_of_int total)
  in
  List.map (fun (name, _) -> (name, r)) arrivals

let optimize_rates ~gus_of ~y ~arrivals ~capacity ?(grid = 40) () =
  if capacity <= 0 then invalid_arg "Shedding.optimize_rates: capacity <= 0";
  let k = List.length arrivals in
  if k < 1 || k > 3 then
    invalid_arg "Shedding.optimize_rates: 1 to 3 streams supported";
  let names = List.map fst arrivals in
  let ns = List.map (fun (_, n) -> float_of_int n) arrivals in
  let cap = float_of_int capacity in
  let total = List.fold_left ( +. ) 0.0 ns in
  if cap >= total then begin
    let rates = List.map (fun name -> (name, 1.0)) names in
    (rates, 0.0)
  end
  else begin
    let best = ref (proportional_rates ~arrivals ~capacity, infinity) in
    let consider rs =
      (* Clamp, check budget (small tolerance), evaluate. *)
      let feasible =
        List.for_all (fun (_, r) -> r > 0.0 && r <= 1.0) rs
        && List.fold_left2 (fun acc (_, r) n -> acc +. (r *. n)) 0.0 rs ns
           <= cap +. 1e-6
      in
      if feasible then begin
        let v = Gus.variance (gus_of rs) ~y in
        let _, cur = !best in
        if v < cur then best := (rs, v)
      end
    in
    let steps = List.init grid (fun i -> float_of_int (i + 1) /. float_of_int grid) in
    (match (names, ns) with
    | [ n1 ], [ s1 ] -> consider [ (n1, Float.min 1.0 (cap /. s1)) ]
    | [ n1; n2 ], [ s1; s2 ] ->
        List.iter
          (fun r1frac ->
            let r1 = r1frac in
            let budget_left = cap -. (r1 *. s1) in
            if budget_left > 0.0 then begin
              let r2 = Float.min 1.0 (budget_left /. s2) in
              consider [ (n1, r1); (n2, r2) ]
            end)
          steps
    | [ n1; n2; n3 ], [ s1; s2; s3 ] ->
        List.iter
          (fun r1 ->
            List.iter
              (fun r2 ->
                let budget_left = cap -. (r1 *. s1) -. (r2 *. s2) in
                if budget_left > 0.0 then begin
                  let r3 = Float.min 1.0 (budget_left /. s3) in
                  consider [ (n1, r1); (n2, r2); (n3, r3) ]
                end)
              steps)
          steps
    | _ -> assert false);
    let rates, v = !best in
    if v = infinity then
      (* Nothing strictly feasible on the grid; fall back. *)
      let fallback = proportional_rates ~arrivals ~capacity in
      (fallback, Gus.variance (gus_of fallback) ~y)
    else (rates, v)
  end

type window_report = {
  window : int;
  arrivals : (string * int) list;
  kept : (string * int) list;
  rates : rates;
  report : Sbox.report;
  interval : Interval.t;
}

(* Contiguous arrival chunks of a base relation, re-registered as a base
   relation so window-local lineage ids are dense. *)
let window_chunk rel ~windows ~w =
  let n = Relation.cardinality rel in
  let per = (n + windows - 1) / windows in
  let lo = w * per and hi = min n ((w + 1) * per) in
  let out = Relation.create_base ~name:rel.Relation.name rel.Relation.schema in
  for i = lo to hi - 1 do
    Relation.append_row out (Relation.tuple rel i).Tuple.values
  done;
  out

let window_db db rels ~windows ~w =
  let wdb = Database.create () in
  List.iter
    (fun name -> Database.add wdb (window_chunk (Database.find db name) ~windows ~w))
    rels;
  wdb

let gus_of_rates order rates =
  List.fold_left
    (fun acc name ->
      let r = match List.assoc_opt name rates with Some r -> r | None -> 1.0 in
      let g = Gus.bernoulli ~rel:name r in
      match acc with None -> Some g | Some a -> Some (Gus.join a g))
    None order
  |> Option.get

let simulate ?(seed = 1) db ~plan ~f ~windows ~capacity =
  if windows <= 0 then invalid_arg "Shedding.simulate: windows <= 0";
  let skeleton = Splan.strip_samples plan in
  let rels = Splan.relations skeleton in
  let out = ref [] in
  let current_rates = ref None in
  for w = 0 to windows - 1 do
    let wdb = window_db db rels ~windows ~w in
    let arrivals =
      List.map (fun r -> (r, Relation.cardinality (Database.find wdb r))) rels
    in
    let rates =
      match !current_rates with
      | Some r -> r
      | None -> proportional_rates ~arrivals ~capacity
    in
    (* Shed each stream with a lineage-keyed Bernoulli at its rate. *)
    let shed = Database.create () in
    List.iteri
      (fun stream_idx (name, _) ->
        let r = List.assoc name rates in
        (* Distinct seed per (window, stream): row ids overlap across
           streams, and sharing a seed would correlate their decisions. *)
        let sampler =
          Sampler.Hash_bernoulli
            { seed = seed + (31 * w) + (1000003 * (stream_idx + 1)); p = r }
        in
        let kept =
          Sampler.apply sampler (Gus_util.Rng.create 0) (Database.find wdb name)
        in
        Database.add shed { kept with Relation.name })
      arrivals;
    let kept =
      List.map (fun r -> (r, Relation.cardinality (Database.find shed r))) rels
    in
    let gus = gus_of_rates rels rates in
    (* The shed window is estimated by running the skeleton over it and
       feeding its output to the moments kernel. *)
    let report = Sbox.of_plan ~gus ~f shed (Gus_util.Rng.create 0) skeleton in
    let interval = Sbox.interval Interval.Normal report in
    out := { window = w; arrivals; kept; rates; report; interval } :: !out;
    (* Re-optimize for the next window from this window's moments. *)
    let next_rates, _ =
      optimize_rates
        ~gus_of:(gus_of_rates rels)
        ~y:report.Sbox.y_hat ~arrivals ~capacity ()
    in
    current_rates := Some next_rates
  done;
  List.rev !out

let window_truth db ~plan ~f ~windows =
  let skeleton = Splan.strip_samples plan in
  let rels = Splan.relations skeleton in
  List.init windows (fun w ->
      let wdb = window_db db rels ~windows ~w in
      let full = Splan.exec wdb (Gus_util.Rng.create 0) skeleton in
      let eval = Expr.bind_float full.Relation.schema f in
      Relation.fold (fun acc tup -> acc +. eval tup) 0.0 full)
