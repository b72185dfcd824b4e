module S = Gus_core.Splan
module Sam = Gus_sampling.Sampler
module Runner = Gus_sql.Runner
open Gus_relational

let m_prepares = Gus_obs.Metrics.counter "service.prepares"
let m_executes = Gus_obs.Metrics.counter "service.executes"
let m_repreparations = Gus_obs.Metrics.counter "service.repreparations"

type t = {
  p_dataset : string;
  p_sql : string;
  p_lint_config : Gus_analysis.Lint.config option;
  mutable p_version : int;
  mutable p_handle : Runner.prepared;
}

let prepare ?lint_config catalog ~dataset sql =
  let entry = Catalog.find_exn catalog dataset in
  let handle = Runner.prepare ?lint_config entry.Catalog.db sql in
  Gus_obs.Metrics.incr m_prepares;
  { p_dataset = dataset;
    p_sql = sql;
    p_lint_config = lint_config;
    p_version = entry.Catalog.version;
    p_handle = handle }

let dataset t = t.p_dataset
let sql t = t.p_sql
let version t = t.p_version
let handle t = t.p_handle

type overrides = {
  seed : int;
  rates : (string * float) list;
  explain : bool;
  exact : bool;
}

let default_overrides = { seed = 42; rates = []; explain = false; exact = false }

let override_rates ~card rates plan =
  let applied = ref [] in
  let wor_size rate rel =
    if rate < 0. || rate > 1. then
      invalid_arg
        (Printf.sprintf "rate override %g for %s out of [0,1]" rate rel);
    int_of_float (Float.round (rate *. float_of_int (card rel)))
  in
  let rec go plan =
    match plan with
    | S.Scan _ -> plan
    | S.Select (e, p) -> S.Select (e, go p)
    | S.Project (cols, p) -> S.Project (cols, go p)
    | S.Equi_join { left; right; left_key; right_key } ->
        S.Equi_join { left = go left; right = go right; left_key; right_key }
    | S.Theta_join (e, l, r) -> S.Theta_join (e, go l, go r)
    | S.Cross (l, r) -> S.Cross (go l, go r)
    | S.Distinct p -> S.Distinct (go p)
    | S.Union_samples (l, r) -> S.Union_samples (go l, go r)
    | S.Sample (sampler, child) -> (
        let child = go child in
        match S.relations child with
        | [ rel ] when List.mem_assoc rel rates ->
            let rate = List.assoc rel rates in
            applied := rel :: !applied;
            let sampler' =
              match sampler with
              | Sam.Bernoulli _ -> Sam.Bernoulli rate
              | Sam.Hash_bernoulli { seed; _ } ->
                  Sam.Hash_bernoulli { seed; p = rate }
              | Sam.Block { rows_per_block; _ } ->
                  Sam.Block { rows_per_block; p = rate }
              | Sam.Wor _ -> Sam.Wor (wor_size rate rel)
              | Sam.Wr _ -> Sam.Wr (wor_size rate rel)
            in
            Sam.validate sampler';
            S.Sample (sampler', child)
        | _ -> S.Sample (sampler, child))
  in
  let plan = go plan in
  (match
     List.filter (fun (rel, _) -> not (List.mem rel !applied)) rates
   with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "rate override for unsampled relation(s): %s"
           (String.concat ", " (List.map fst missing))));
  plan

(* Effective first-order sampling rate per base relation, read off the
   (post-override) plan for telemetry.  Composed samplers over the same
   relation multiply — [a]-values compose multiplicatively (Prop. 4) —
   and WOR/WR sizes are normalized by the base cardinality, so a nested
   outer WOR over an already-thinned input reads slightly low; the
   journal treats rates as provenance, not as replay inputs. *)
let sampling_rates ~card plan =
  let rates = ref [] in
  let note rel rate =
    match List.assoc_opt rel !rates with
    | Some prev ->
        rates := (rel, prev *. rate) :: List.remove_assoc rel !rates
    | None -> rates := (rel, rate) :: !rates
  in
  let rec go = function
    | S.Scan _ -> ()
    | S.Select (_, p) | S.Project (_, p) | S.Distinct p -> go p
    | S.Equi_join { left; right; _ } ->
        go left;
        go right
    | S.Theta_join (_, l, r) | S.Cross (l, r) | S.Union_samples (l, r) ->
        go l;
        go r
    | S.Sample (sampler, child) ->
        (match S.relations child with
        | [ rel ] ->
            let rate =
              match sampler with
              | Sam.Bernoulli p -> p
              | Sam.Hash_bernoulli { p; _ } -> p
              | Sam.Block { p; _ } -> p
              | Sam.Wor k | Sam.Wr k ->
                  let n = card rel in
                  if n = 0 then 0. else float_of_int k /. float_of_int n
            in
            note rel rate
        | _ -> ());
        go child
  in
  go plan;
  List.sort (fun (a, _) (b, _) -> compare a b) !rates

(* Re-prepare transparently when the catalog entry moved under us. *)
let refresh catalog t =
  let entry = Catalog.find_exn catalog t.p_dataset in
  if entry.Catalog.version <> t.p_version then begin
    t.p_handle <- Runner.prepare ?lint_config:t.p_lint_config entry.Catalog.db t.p_sql;
    t.p_version <- entry.Catalog.version;
    Gus_obs.Metrics.incr m_repreparations
  end;
  entry

let execute catalog t (ov : overrides) =
  let entry = refresh catalog t in
  let db = entry.Catalog.db in
  let handle =
    if ov.rates = [] then t.p_handle
    else begin
      (* A rate override changes the sampling design, so the plan must be
         re-linted: the overridden plan may move in or out of GUS range
         (e.g. rate 0 is GUS009).  The parse is still reused. *)
      let card rel = Relation.cardinality (Database.find db rel) in
      let plan = override_rates ~card ov.rates t.p_handle.Runner.pr_plan in
      { t.p_handle with
        Runner.pr_plan = plan;
        pr_lint = Gus_analysis.Lint.run_db ?config:t.p_lint_config db plan }
    end
  in
  let params =
    { Runner.seed = ov.seed; explain = ov.explain; exact = ov.exact }
  in
  Gus_obs.Metrics.incr m_executes;
  Runner.execute db handle params
