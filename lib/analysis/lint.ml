module Subset = Gus_util.Subset
module Metrics = Gus_obs.Metrics
module Sampler = Gus_sampling.Sampler
module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module D = Diagnostic

type config = {
  small_a : float;
  variance_bound : float;
  cost_budget : float;
}

let default_config =
  { small_a = 1e-3; variance_bound = 1e4; cost_budget = 1e8 }

exception Unsupported of string

type analysis = {
  skeleton : Splan.t;
  sym : Symalg.t;
  gus : Gus.t Lazy.t;
  live : Gus.t Lazy.t;
  steps : (string * Symalg.t) list;
  facts : Dataflow.table;
  cost : Cost.report;
  sampler_gus : (D.path * Symalg.t) list;
}

type report = {
  diagnostics : D.t list;
  analysis : analysis option;
}

let m_lint_runs = Metrics.counter "analysis.lint.runs"

let with_severity sev r =
  List.filter (fun d -> D.severity d = sev) r.diagnostics

let errors = with_severity D.Error
let warnings = with_severity D.Warning
let hints = with_severity D.Hint

(* ---- rendering plan operators ---- *)

let node_label = Splan.node_label

(* ---- GUS coherence ---- *)

(* [a ∈ (0,1]] and [b_T ≤ a], checked without materializing 2^n entries.
   A nonneg-monotone SoP provably satisfies b_T ≤ b_full = a everywhere,
   so the scan is skipped wholesale (a dense scan over such a design is
   silent too — products of probabilities only ever shrink); otherwise
   only the live universe is enumerated, since dead-mask entries are
   bit-equal to their live projections. *)
let check_sym ?(path = []) ?(node = "GUS") sym =
  let out = ref [] in
  let emit code message = out := D.make ~code ~path ~node message :: !out in
  let a = sym.Symalg.a in
  if a = 0.0 then
    emit D.Zero_inclusion_probability
      "nothing is ever sampled (a = 0): the 1/a scale-up of Theorem 1 is \
       undefined"
  else if not (a > 0.0 && a <= 1.0) then
    emit D.Probability_out_of_range
      (Printf.sprintf "first-order inclusion probability a = %g is outside \
                       (0,1]" a);
  let check_entry s bs =
    if bs > a +. 1e-9 then
      emit D.Probability_out_of_range
        (Printf.sprintf
           "b%s = %g exceeds its marginal a = %g: P[t,t' \xe2\x88\x88 S] \
            can never exceed P[t \xe2\x88\x88 S]"
           (Symalg.subset_name sym s) bs a)
  in
  (match sym.Symalg.repr with
  | Symalg.Dense g -> Array.iteri check_entry g.Gus.b
  | Symalg.Sop _ ->
      if not (Symalg.nonneg_monotone sym) then begin
        let live = Symalg.live_mask sym in
        if Subset.cardinal live <= 20 then
          Subset.iter_subsets live (fun s ->
              check_entry s (Symalg.b_get sym s))
      end);
  List.rev !out

(* ---- sampler translation with diagnostics ---- *)

(* What a sampler sits on, as far as WOR/block translatability goes. *)
type sampler_input =
  | Over_scan  (** a bare [Scan] *)
  | Over_preserving
      (** a cardinality-preserving [Project] chain over one [Scan]:
          rows are 1:1 with base rows, so [N] resolves through the
          skeleton to the base cardinality *)
  | Over_fixed
      (** sample-free derived input: [N] is deterministic but not
          statically known (GUS018) *)
  | Over_random
      (** the input itself is sampled: [N] is a random variable
          (GUS003) *)

(* Mirrors the paper's Figure-1 translations.  Emits every applicable
   diagnostic instead of raising; returns the sampler's GUS when one exists
   (it may exist even alongside hints, e.g. a redundant identity sampler). *)
let translate_sampler_sym ~card ~over ~input ~path ~node ~emit s =
  let emitd ?fix code message =
    emit (D.make ?fix ~code ~path ~node message)
  in
  let drop_fix = Fix.drop_sampler ~at:path s in
  let check_p what p =
    if p = 0.0 then begin
      emitd D.Zero_inclusion_probability
        (Printf.sprintf
           "%s never keeps a tuple (a = 0): estimates would need the \
            undefined scale-up 1/a"
           what);
      false
    end
    else if not (p > 0.0 && p <= 1.0) then begin
      emitd D.Probability_out_of_range
        (Printf.sprintf "%s probability %g is outside (0,1]" what p);
      false
    end
    else begin
      if p = 1.0 then
        emitd ~fix:drop_fix D.Redundant_sampler
          (Printf.sprintf
             "%s keeps every tuple: it is the identity GUS and can be \
              removed"
             what);
      true
    end
  in
  match s with
  | Sampler.Bernoulli p ->
      if not (check_p "Bernoulli" p) then None
      else if Array.length over = 1 then Some (Symalg.bernoulli ~rel:over.(0) p)
      else Some (Symalg.bernoulli_over over p)
  | Sampler.Hash_bernoulli { p; _ } ->
      let p_ok = check_p "hash-Bernoulli" p in
      if Array.length over <> 1 then begin
        emitd D.Hash_over_derived
          (Printf.sprintf
             "hash-Bernoulli over a derived input (lineage [%s]); use the \
              multi-dimensional Subsample instead"
             (String.concat "," (Array.to_list over)));
        None
      end
      else if not p_ok then None
      else Some (Symalg.bernoulli ~rel:over.(0) p)
  | Sampler.Wor n ->
      if n < 0 then begin
        emitd D.Probability_out_of_range
          (Printf.sprintf "WOR sample size %d is negative" n);
        None
      end
      else if Array.length over <> 1 || input = Over_random then begin
        emitd D.Wor_over_derived
          "WOR over a derived or already-sampled input: its inclusion \
           probability n/N depends on a random cardinality";
        None
      end
      else if input = Over_fixed then begin
        emitd D.Wor_over_deterministic_derived
          (Printf.sprintf
             "WOR(%d) over a sample-free derived input: N is fixed but not \
              statically known, so a = n/N cannot be derived without \
              executing the skeleton; sample the base table instead"
             n);
        None
      end
      else begin
        let big_n = card over.(0) in
        if n = 0 then begin
          emitd D.Zero_inclusion_probability
            "WOR(0) never keeps a tuple (a = 0): estimates would need the \
             undefined scale-up 1/a";
          None
        end
        else if big_n < 1 then begin
          emitd D.Probability_out_of_range
            (Printf.sprintf
               "WOR over the empty relation %s: a = n/N is undefined"
               over.(0));
          None
        end
        else if n > big_n then begin
          emitd D.Probability_out_of_range
            (Printf.sprintf
               "WOR(%d) over %s (N = %d): inclusion probability n/N = %g \
                exceeds 1"
               n over.(0) big_n
               (float_of_int n /. float_of_int big_n));
          None
        end
        else begin
          if n = big_n then
            emitd ~fix:drop_fix D.Redundant_sampler
              (Printf.sprintf
                 "WOR(%d) over %s keeps all N = %d tuples: it is the \
                  identity GUS and can be removed"
                 n over.(0) big_n);
          Some (Symalg.wor ~rel:over.(0) ~n ~out_of:big_n)
        end
      end
  | Sampler.Block { rows_per_block; p } ->
      let p_ok =
        if rows_per_block <= 0 then begin
          emitd D.Probability_out_of_range
            (Printf.sprintf "block size %d must be positive" rows_per_block);
          false
        end
        else check_p "block sampling" p
      in
      if not (input = Over_scan && Array.length over = 1) then begin
        emitd D.Block_over_derived
          "block sampling is only supported directly over a base table: a \
           kept block is the Bernoulli unit, so the lineage must still be \
           at base granularity";
        None
      end
      else if not p_ok then None
      else
        (* Block-granular lineage: a kept *block* is one Bernoulli unit. *)
        Some (Symalg.bernoulli ~rel:over.(0) p)
  | Sampler.Wr _ ->
      emitd D.With_replacement
        "with-replacement sampling is not a randomized filter, hence not a \
         GUS method";
      None

(* Dense public wrapper: same Figure-1 logic, materialized.  Raises
   {!Gus_core.Gus.Incompatible} past the dense width, like the dense
   constructors always did. *)
let translate_sampler ~card ~over ~input ~path ~node ~emit s =
  Option.map Symalg.to_gus
    (translate_sampler_sym ~card ~over ~input ~path ~node ~emit s)

(* ---- the plan walk ---- *)

type info = {
  skeleton : Splan.t;
  lineage : string list;  (** base relations in plan order, duplicates kept *)
  sym : Symalg.t option;  (** [None] once an error invalidates the subtree *)
  sampled : bool;
}

let dups lineage =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun r ->
      let dup = Hashtbl.mem seen r in
      Hashtbl.replace seen r ();
      dup)
    lineage
  |> List.sort_uniq String.compare

(* A [Project] chain over a single [Scan] is 1:1 with the base rows. *)
let rec preserving_chain = function
  | Splan.Scan _ -> true
  | Splan.Project (_, q) -> preserving_chain q
  | _ -> false

let validate_config config =
  let check name v =
    if not (v >= 0.0) (* also rejects nan *) then
      invalid_arg
        (Printf.sprintf "Lint.run: config.%s = %g must be >= 0" name v)
  in
  check "small_a" config.small_a;
  check "variance_bound" config.variance_bound;
  check "cost_budget" config.cost_budget

(* The design the estimator runs: [sym] projected onto its live
   relations.  Dead relations' coefficients are exact zeros, so the 2^k
   moment passes over the k live ones are all Theorem 1 needs. *)
let live_design sym =
  let live = Symalg.live_mask sym in
  let k = Subset.cardinal live in
  if k > Subset.max_universe then
    raise
      (Unsupported
         (Printf.sprintf
            "plan spans %d relations with %d carrying sampling randomness: \
             estimation needs 2^%d moment passes, above the 2^%d limit"
            (Symalg.n_rels sym) k k Subset.max_universe));
  Symalg.to_gus (Symalg.project sym live)

let run ?(config = default_config) ~card plan =
  validate_config config;
  Metrics.incr m_lint_runs;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let steps = ref [] in
  let note what g = steps := (what, g) :: !steps in
  let samplers = ref [] in
  (* Interior combinator calls can only fail on inputs our own checks have
     already rejected; the guard keeps the linter total regardless. *)
  let guarded path node f =
    match f () with
    | g -> Some g
    | exception (Gus.Incompatible msg | Invalid_argument msg) ->
        emit (D.make ~code:D.Analysis_limit ~path ~node msg);
        None
  in
  let join_like path node mk l_info r_info =
    let overlap = List.filter (fun r -> List.mem r l_info.lineage) r_info.lineage in
    let overlap = List.sort_uniq String.compare overlap in
    if overlap <> [] then
      emit
        (D.make ~code:D.Self_join ~path ~node
           (Printf.sprintf
              "relation%s %s used on both sides of the join: overlapping \
               lineage violates Prop. 6's disjointness precondition \
               (self-joins are outside GUS)"
              (if List.length overlap > 1 then "s" else "")
              (String.concat ", " overlap)));
    let n = List.length l_info.lineage + List.length r_info.lineage in
    let sym =
      match (overlap, l_info.sym, r_info.sym) with
      | [], Some gl, Some gr ->
          if n > Subset.max_mask_bits then begin
            emit
              (D.make ~code:D.Analysis_limit ~path ~node
                 (Printf.sprintf
                    "%d relations exceed the %d-relation symbolic analysis \
                     limit (coefficient subsets are int bitmasks)"
                    n Subset.max_mask_bits));
            None
          end
          else
            guarded path node (fun () ->
                let g = Symalg.join gl gr in
                note "join (Prop 6)" g;
                g)
      | _ -> None
    in
    { skeleton = mk l_info.skeleton r_info.skeleton;
      lineage = l_info.lineage @ r_info.lineage;
      sym;
      sampled = l_info.sampled || r_info.sampled }
  in
  let rec go path plan =
    let node = node_label plan in
    match plan with
    | Splan.Scan name ->
        { skeleton = Splan.Scan name;
          lineage = [ name ];
          sym = Some (Symalg.identity [| name |]);
          sampled = false }
    | Splan.Select (p, q) ->
        (* Prop 5: selection commutes with GUS. *)
        let c = go (path @ [ 0 ]) q in
        { c with skeleton = Splan.Select (p, c.skeleton) }
    | Splan.Project (fields, q) ->
        let c = go (path @ [ 0 ]) q in
        { c with skeleton = Splan.Project (fields, c.skeleton) }
    | Splan.Equi_join { left; right; left_key; right_key } ->
        let l = go (path @ [ 0 ]) left and r = go (path @ [ 1 ]) right in
        join_like path node
          (fun ls rs ->
            Splan.Equi_join { left = ls; right = rs; left_key; right_key })
          l r
    | Splan.Theta_join (p, left, right) ->
        let l = go (path @ [ 0 ]) left and r = go (path @ [ 1 ]) right in
        join_like path node (fun ls rs -> Splan.Theta_join (p, ls, rs)) l r
    | Splan.Cross (left, right) ->
        let l = go (path @ [ 0 ]) left and r = go (path @ [ 1 ]) right in
        join_like path node (fun ls rs -> Splan.Cross (ls, rs)) l r
    | Splan.Sample (s, q) ->
        let c = go (path @ [ 0 ]) q in
        (match (s, q) with
        | (Sampler.Bernoulli _ | Sampler.Hash_bernoulli _), Splan.Select _ ->
            emit
              (D.make ~code:D.Sample_select_pushdown ~path ~node
                 ~fix:(Fix.push_below_select ~at:path s)
                 "this per-tuple sampler commutes with the selection below \
                  it: pushing the sample below the selection is \
                  SOA-equivalent and evaluates the predicate only on \
                  sampled tuples")
        | _ -> ());
        (match (s, q) with
        | Sampler.Bernoulli p1, Splan.Sample ((Sampler.Bernoulli p2 as s2), _)
          when p1 > 0.0 && p1 <= 1.0 && p2 > 0.0 && p2 <= 1.0 ->
            let merged = Sampler.Bernoulli (p1 *. p2) in
            emit
              (D.make ~code:D.Stacked_samplers ~path ~node
                 ~fix:(Fix.merge_stacked ~at:path s s2 merged)
                 (Printf.sprintf
                    "two stacked Bernoulli samplers compose into one \
                     (Prop. 8): %s over %s is the single %s"
                    (Sampler.to_string s) (Sampler.to_string s2)
                    (Sampler.to_string merged)))
        | _ -> ());
        let input =
          match q with
          | Splan.Scan _ -> Over_scan
          | _ when c.sampled -> Over_random
          | _ when preserving_chain q -> Over_preserving
          | _ -> Over_fixed
        in
        let dup_rels = dups c.lineage in
        let over =
          (* Deduplicate so the sampler's own checks still run (and its
             diagnostics still emit) even when the join below already broke
             Prop 6's disjointness precondition — that failure is reported
             as GUS001 at the join, not silenced here. *)
          let seen = Hashtbl.create 8 in
          Array.of_list
            (List.filter
               (fun r ->
                 if Hashtbl.mem seen r then false
                 else begin Hashtbl.add seen r (); true end)
               c.lineage)
        in
        let gs =
          Option.join
            (guarded path node (fun () ->
                 translate_sampler_sym ~card ~over ~input ~path ~node ~emit s))
        in
        (* With overlapping lineage below, no single GUS describes the
           subtree; keep the diagnostics but drop the value. *)
        let gs = if dup_rels = [] then gs else None in
        Option.iter (fun g -> samplers := (path, g) :: !samplers) gs;
        let sym =
          match (gs, c.sym) with
          | Some gs, Some g ->
              note (Printf.sprintf "translate %s" node) gs;
              (* Prop 8: stack the sampler's GUS on the input's GUS. *)
              guarded path node (fun () ->
                  let combined = Symalg.compact gs g in
                  note (Printf.sprintf "compact %s into input" node) combined;
                  combined)
          | _ -> None
        in
        { skeleton = c.skeleton; lineage = c.lineage; sym; sampled = true }
    | Splan.Distinct q ->
        let c = go (path @ [ 0 ]) q in
        let rejected =
          match c.sym with
          | Some g -> not (Symalg.is_identity g)
          | None -> c.sampled
        in
        if rejected then
          emit
            (D.make ~code:D.Distinct_over_sample ~path ~node
               "DISTINCT above sampling is outside GUS: duplicate \
                elimination depends on more than pairwise inclusion \
                probabilities");
        let sym = if rejected then None else c.sym in
        { c with skeleton = Splan.Distinct c.skeleton; sym }
    | Splan.Union_samples (left, right) ->
        let l = go (path @ [ 0 ]) left and r = go (path @ [ 1 ]) right in
        let same = Splan.equal l.skeleton r.skeleton in
        if not same then
          emit
            (D.make ~code:D.Union_skeleton_mismatch ~path ~node
               "union of samples of two different expressions: Prop. 7 \
                requires both samples to come from the same expression");
        let sym =
          match (same, l.sym, r.sym) with
          | true, Some gl, Some gr ->
              guarded path node (fun () ->
                  let g = Symalg.union gl gr in
                  note "GUS union (Prop 7)" g;
                  g)
          | _ -> None
        in
        { skeleton = l.skeleton;
          lineage = l.lineage;
          sym;
          sampled = l.sampled || r.sampled }
  in
  let root = go [] plan in
  let facts = Dataflow.analyze ~card plan in
  let cost =
    match root.sym with
    | None -> None
    | Some sym ->
        let node = node_label plan in
        List.iter emit (check_sym ~path:[] ~node sym);
        let analyzed =
          guarded [] node (fun () -> Cost.analyze_sym ~facts sym)
        in
        let a = sym.Symalg.a in
        if a > 0.0 && a < config.small_a then
          emit
            (D.make ~code:D.Small_inclusion_probability ~path:[] ~node
               (Printf.sprintf
                  "effective sampling fraction a = %g is below %g: Theorem-1 \
                   variance terms scale with c_S/a\xc2\xb2 (blow-up factor \
                   \xe2\x89\x88 %.3g)"
                  a config.small_a
                  (1.0 /. (a *. a))));
        match analyzed with
        | None -> None
        | Some cost ->
            (* Cost/variance findings only make sense on sampled plans: a
               sample-free plan answers exactly and never runs the
               estimator, so its identity GUS (every relation inert)
               would otherwise fire GUS014/GUS016 as pure noise. *)
            if root.sampled && cost.Cost.predicted_cost > config.cost_budget
            then
              emit
                (D.make ~code:D.Enumeration_cost ~path:[] ~node
                   (Printf.sprintf
                      "coefficient enumeration needs %d moment pass(es) \
                       over \xe2\x89\x88 %.3g group(s) \xe2\x89\x88 %.3g \
                       operations, above the %.3g budget: consider sampling \
                       fewer relations"
                      (cost.Cost.passes - cost.Cost.skipped)
                      cost.Cost.est_groups cost.Cost.predicted_cost
                      config.cost_budget));
            if root.sampled && cost.Cost.variance_bound >= config.variance_bound
            then
              emit
                (D.make ~code:D.Variance_bound ~path:[] ~node
                   (Printf.sprintf
                      "worst-case relative variance (Theorem 1, f \xe2\x89\xa5 \
                       0): Var/E\xc2\xb2 \xe2\x89\xa4 %.3g \xe2\x89\xa5 the \
                       %.3g threshold \xe2\x80\x94 relative standard error \
                       up to \xe2\x89\x88 %.3g\xc3\x97"
                      cost.Cost.variance_bound config.variance_bound
                      (Float.sqrt cost.Cost.variance_bound)));
            if root.sampled && cost.Cost.dead <> 0 then begin
              let inert =
                List.filter_map
                  (fun i ->
                    if Subset.mem cost.Cost.dead i then
                      Some sym.Symalg.rels.(i)
                    else None)
                  (List.init (Symalg.n_rels sym) Fun.id)
              in
              emit
                (D.make ~code:D.Zero_coefficients ~path:[] ~node
                   (Printf.sprintf
                      "%d of %d coefficient subset(s) are provably zero \
                       (Prop. 6 product form: [%s] carry no sampling \
                       randomness): the moments kernel skips those passes"
                      cost.Cost.skipped cost.Cost.passes
                      (String.concat "," inert)))
            end;
            Some cost
  in
  let diagnostics =
    List.stable_sort
      (fun d1 d2 ->
        let c = D.compare_path d1.D.path d2.D.path in
        if c <> 0 then c else compare (D.code_id d1.D.code) (D.code_id d2.D.code))
      (List.rev !diags)
  in
  let has_error =
    List.exists (fun d -> D.severity d = D.Error) diagnostics
  in
  let analysis =
    match (has_error, root.sym, cost) with
    | false, Some sym, Some cost ->
        Some
          { skeleton = root.skeleton;
            sym;
            gus = lazy (Symalg.to_gus sym);
            live = lazy (live_design sym);
            steps = List.rev !steps;
            facts;
            cost;
            sampler_gus = List.rev !samplers }
    | _ -> None
  in
  { diagnostics; analysis }

let run_db ?config db plan =
  run ?config plan
    ~card:(fun r ->
      Gus_relational.Relation.cardinality (Gus_relational.Database.find db r))

(* ---- machine-applicable fixes ---- *)

let fixes r = List.filter_map (fun d -> d.D.fix) r.diagnostics

let apply_fixes ?config ~card plan =
  (* Fixpoint loop: applying one fix can expose another (merging two
     stacked Bernoullis can stack the result on a third).  Each round
     re-lints, so every applied fix came from a fresh report; the plan
     shrinks or keeps its size each round, so 32 rounds is far beyond any
     real chain. *)
  let rec loop rounds plan applied =
    if rounds = 0 then (plan, List.rev applied)
    else
      let report = run ?config ~card plan in
      match fixes report with
      | [] -> (plan, List.rev applied)
      | fs -> (
          match Fix.apply_all fs plan with
          | _, [] -> (plan, List.rev applied)
          | plan', done_ -> loop (rounds - 1) plan' (List.rev_append done_ applied))
  in
  loop 32 plan []

(* ---- rendering ---- *)

let count_severity sev r = List.length (with_severity sev r)

let summary r =
  Printf.sprintf "%d error(s), %d warning(s), %d hint(s)"
    (count_severity D.Error r)
    (count_severity D.Warning r)
    (count_severity D.Hint r)

let pp_report ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." D.pp d) r.diagnostics;
  (match r.analysis with
  | Some a ->
      Format.fprintf ppf "plan is GUS-analyzable: a = %.6g over [%s]@."
        a.sym.Symalg.a
        (String.concat "," (Array.to_list a.sym.Symalg.rels))
  | None -> Format.fprintf ppf "plan is not GUS-analyzable@.");
  Format.fprintf ppf "%s@." (summary r)

let pp_annotated_plan ppf (plan, r) =
  let markers_at path =
    List.filter_map
      (fun d ->
        if D.compare_path d.D.path path = 0 then Some (D.code_id d.D.code)
        else None)
      r.diagnostics
  in
  Gus_obs.Planfmt.pp ~label:node_label ~children:Splan.children
    ~annot:(fun path _ ->
      match markers_at path with
      | [] -> ""
      | ms -> "  <-- " ^ String.concat ", " ms)
    ppf plan

let to_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"errors\": %d,\n  \"warnings\": %d,\n  \"hints\": %d,\n"
       (count_severity D.Error r)
       (count_severity D.Warning r)
       (count_severity D.Hint r));
  Buffer.add_string buf
    (Printf.sprintf "  \"analyzable\": %b,\n"
       (match r.analysis with Some _ -> true | None -> false));
  (match r.analysis with
  | Some a ->
      let c = a.cost in
      Buffer.add_string buf
        (Printf.sprintf
           "  \"analysis\": {\"a\": %g, \"class\": \"%s\", \"relations\": \
            %d, \"coefficient_passes\": %d, \"skipped_passes\": %d, \
            \"est_groups\": %g, \"predicted_cost\": %g, \"variance_bound\": \
            %g},\n"
           a.sym.Symalg.a
           (Absdom.Cls.to_string c.Cost.cls)
           c.Cost.n_rels c.Cost.passes c.Cost.skipped c.Cost.est_groups
           c.Cost.predicted_cost c.Cost.variance_bound)
  | None -> ());
  Buffer.add_string buf "  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (D.to_json d))
    r.diagnostics;
  if r.diagnostics <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}";
  Buffer.contents buf
