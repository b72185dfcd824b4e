(* Dense reference implementations the library no longer carries, kept
   as test oracles: the O(3ⁿ) coefficient sum, per-subset hashtable
   moments, and the dense lint engine — full 2ⁿ materialization, the
   bitwise dead-relation scan, the dead mask verified against the actual
   coefficients, the Theorem-1 bound summed over every coefficient, and
   the root findings it emitted.  The symbolic, live-projected library
   paths are held against these bit for bit. *)

module Gus = Gus_core.Gus
module Subset = Gus_util.Subset
module Cost = Gus_analysis.Cost
module Lint = Gus_analysis.Lint
module Dataflow = Gus_analysis.Dataflow
module Absdom = Gus_analysis.Absdom
module D = Gus_analysis.Diagnostic

(* ---- Theorem 1 coefficients ---- *)

(* c_S = Σ_{T ⊆ S} (−1)^{|S|−|T|} b_T, summed directly. *)
let c_naive g =
  let n = Gus.n_rels g in
  Array.init (Subset.count n) (fun s ->
      Subset.fold_subsets s
        (fun acc t ->
          let sign =
            if Subset.cardinal (Subset.diff s t) land 1 = 0 then 1.0 else -1.0
          in
          acc +. (sign *. Gus.b_get g t))
        0.0)

(* ---- moments: one fresh hashtable per subset ---- *)

let restrict l s =
  Array.of_list (List.map (fun i -> l.(i)) (Subset.elements s))

let group_moments ~n_rels ~lineage ~add ~zero ~square rows =
  let y = Array.make (Subset.count n_rels) 0.0 in
  for s = 0 to Subset.count n_rels - 1 do
    let groups = Hashtbl.create 64 in
    Array.iter
      (fun row ->
        let key = restrict (lineage row) s in
        let sum = Option.value (Hashtbl.find_opt groups key) ~default:zero in
        Hashtbl.replace groups key (add sum row))
      rows;
    y.(s) <- Hashtbl.fold (fun _ sum acc -> acc +. square sum) groups 0.0
  done;
  y

let moments ~n_rels pairs =
  group_moments ~n_rels ~lineage:fst
    ~add:(fun sum (_, f) -> sum +. f)
    ~zero:0.0
    ~square:(fun v -> v *. v)
    pairs

let bilinear_moments ~n_rels triples =
  group_moments ~n_rels
    ~lineage:(fun (l, _, _) -> l)
    ~add:(fun (sf, sg) (_, f, g) -> (sf +. f, sg +. g))
    ~zero:(0.0, 0.0)
    ~square:(fun (sf, sg) -> sf *. sg)
    triples

(* ---- the dense lint engine ---- *)

(* Relation [i] is dead when b_{T ∪ {i}} = b_T on float bits for every
   T. *)
let dead_mask g =
  let n = Gus.n_rels g in
  let dead = ref 0 in
  for i = 0 to n - 1 do
    let bit = 1 lsl i in
    let inert = ref true in
    Subset.iter_all n (fun t ->
        if t land bit = 0 && not (Gus.b_get g t = Gus.b_get g (t lor bit))
        then inert := false);
    if !inert then dead := !dead lor bit
  done;
  !dead

(* The scan's verdict, kept only if every dead-touching coefficient is
   exactly 0.0. *)
let verified_dead_mask g c =
  let dead = dead_mask g in
  let ok = ref true in
  Array.iteri
    (fun s cs -> if s land dead <> 0 && not (cs = 0.0) then ok := false)
    c;
  if !ok then dead else 0

let variance_bound ~a c =
  if not (a > 0.0) then infinity
  else begin
    let sum = ref 0.0 in
    Array.iter (fun cs -> if cs > 0.0 then sum := !sum +. cs) c;
    Float.max 0.0 ((!sum /. (a *. a)) -. 1.0)
  end

let analyze ~facts g : Cost.report =
  let n = Gus.n_rels g in
  let c = Gus.c_coefficients g in
  let dead = verified_dead_mask g c in
  let passes = Subset.count n - 1 in
  let skipped =
    if dead = 0 then 0
    else passes - (Subset.count (n - Subset.cardinal dead) - 1)
  in
  let root = Dataflow.root facts in
  let est_groups = Float.max 1.0 (Absdom.Card.exp root.Dataflow.card) in
  { Cost.n_rels = n;
    passes;
    skipped;
    est_groups;
    predicted_cost = float_of_int (passes - skipped) *. est_groups;
    variance_bound = variance_bound ~a:g.Gus.a c;
    dead;
    cls = root.Dataflow.cls }

let check_gus ~node g =
  let out = ref [] in
  let emit code message = out := D.make ~code ~path:[] ~node message :: !out in
  let a = g.Gus.a in
  if a = 0.0 then
    emit D.Zero_inclusion_probability
      "nothing is ever sampled (a = 0): the 1/a scale-up of Theorem 1 is \
       undefined"
  else if not (a > 0.0 && a <= 1.0) then
    emit D.Probability_out_of_range
      (Printf.sprintf
         "first-order inclusion probability a = %g is outside (0,1]" a);
  for s = 0 to Subset.count (Gus.n_rels g) - 1 do
    let bs = Gus.b_get g s in
    if bs > a +. 1e-9 then
      emit D.Probability_out_of_range
        (Printf.sprintf
           "b%s = %g exceeds its marginal a = %g: P[t,t' \xe2\x88\x88 S] can \
            never exceed P[t \xe2\x88\x88 S]"
           (Gus.subset_name g s) bs a)
  done;
  List.rev !out

(* Every finding the dense engine emitted at the plan root: coherence,
   small-a, then the cost model's GUS014/GUS015/GUS016. *)
let root_findings ~(config : Lint.config) ~sampled ~node ~facts g =
  let out = ref (List.rev (check_gus ~node g)) in
  let emit code message = out := D.make ~code ~path:[] ~node message :: !out in
  let a = g.Gus.a in
  if a > 0.0 && a < config.Lint.small_a then
    emit D.Small_inclusion_probability
      (Printf.sprintf
         "effective sampling fraction a = %g is below %g: Theorem-1 variance \
          terms scale with c_S/a\xc2\xb2 (blow-up factor \xe2\x89\x88 %.3g)"
         a config.Lint.small_a
         (1.0 /. (a *. a)));
  let cost = analyze ~facts g in
  if sampled && cost.Cost.predicted_cost > config.Lint.cost_budget then
    emit D.Enumeration_cost
      (Printf.sprintf
         "coefficient enumeration needs %d moment pass(es) over \xe2\x89\x88 \
          %.3g group(s) \xe2\x89\x88 %.3g operations, above the %.3g budget: \
          consider sampling fewer relations"
         (cost.Cost.passes - cost.Cost.skipped)
         cost.Cost.est_groups cost.Cost.predicted_cost config.Lint.cost_budget);
  if sampled && cost.Cost.variance_bound >= config.Lint.variance_bound then
    emit D.Variance_bound
      (Printf.sprintf
         "worst-case relative variance (Theorem 1, f \xe2\x89\xa5 0): \
          Var/E\xc2\xb2 \xe2\x89\xa4 %.3g \xe2\x89\xa5 the %.3g threshold \
          \xe2\x80\x94 relative standard error up to \xe2\x89\x88 %.3g\xc3\x97"
         cost.Cost.variance_bound config.Lint.variance_bound
         (Float.sqrt cost.Cost.variance_bound));
  if sampled && cost.Cost.dead <> 0 then begin
    let inert =
      List.filteri
        (fun i _ -> Subset.mem cost.Cost.dead i)
        (Array.to_list g.Gus.rels)
    in
    emit D.Zero_coefficients
      (Printf.sprintf
         "%d of %d coefficient subset(s) are provably zero (Prop. 6 product \
          form: [%s] carry no sampling randomness): the moments kernel skips \
          those passes"
         cost.Cost.skipped cost.Cost.passes (String.concat "," inert))
  end;
  (List.rev !out, cost)

(* The codes only the root cost/coherence section emits on an analyzable
   plan (the plan walk's own root findings would be errors). *)
let root_engine_code = function
  | D.Zero_inclusion_probability | D.Probability_out_of_range
  | D.Small_inclusion_probability | D.Enumeration_cost | D.Variance_bound
  | D.Zero_coefficients ->
      true
  | _ -> false

let findings ds =
  List.sort compare
    (List.filter_map
       (fun d ->
         if d.D.path = [] && root_engine_code d.D.code then
           Some (D.code_id d.D.code, d.D.message)
         else None)
       ds)

let bits = Int64.bits_of_float

(* [None] when [plan]'s analyzable lint report agrees with the dense
   engine run over [Symalg.to_gus] of its design, bit for bit; otherwise
   what differs. *)
let lint_mismatch ?(config = Lint.default_config) plan (r : Lint.report) =
  let module Splan = Gus_core.Splan in
  let sampled = not (Splan.equal (Splan.strip_samples plan) plan) in
  let node = Lint.node_label plan in
  match r.Lint.analysis with
  | None -> Some "not analyzable"
  | Some a ->
      let g = Gus_core.Symalg.to_gus a.Lint.sym in
      let expected, cost =
        root_findings ~config ~sampled ~node ~facts:a.Lint.facts g
      in
      let c = a.Lint.cost in
      (* the same design on the dense fallback representation *)
      let fallback =
        Cost.analyze_sym ~facts:a.Lint.facts (Gus_core.Symalg.of_gus g)
      in
      let diffs =
        List.filter_map Fun.id
          [ (if findings r.Lint.diagnostics <> findings expected then
               Some "root diagnostics"
             else None);
            (if bits a.Lint.sym.Gus_core.Symalg.a <> bits g.Gus.a then
               Some "a bits"
             else None);
            (if c.Cost.passes <> cost.Cost.passes then Some "passes" else None);
            (if c.Cost.skipped <> cost.Cost.skipped then Some "skipped"
             else None);
            (if c.Cost.dead <> cost.Cost.dead then Some "dead set" else None);
            (if bits c.Cost.variance_bound <> bits cost.Cost.variance_bound
             then
               Some
                 (Printf.sprintf "variance_bound %h vs %h" c.Cost.variance_bound
                    cost.Cost.variance_bound)
             else None);
            (if bits c.Cost.predicted_cost <> bits cost.Cost.predicted_cost
             then Some "predicted_cost"
             else None);
            (if fallback.Cost.dead <> cost.Cost.dead
                || fallback.Cost.skipped <> cost.Cost.skipped
                || bits fallback.Cost.variance_bound
                   <> bits cost.Cost.variance_bound
             then Some "dense fallback cost"
             else None) ]
      in
      if diffs = [] then None else Some (String.concat ", " diffs)
