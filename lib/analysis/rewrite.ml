module Sampler = Gus_sampling.Sampler
module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module D = Diagnostic

exception Unsupported = Lint.Unsupported

let render_errors errs =
  String.concat "\n"
    (List.map
       (fun d ->
         Printf.sprintf "%s: %s [%s]" (D.code_id d.D.code) d.D.message
           (D.citation d.D.code))
       errs)

type result = {
  skeleton : Splan.t;
  sym : Symalg.t;
  gus : Gus.t Lazy.t;
  live : Gus.t Lazy.t;
  steps : (string * Symalg.t) list;
}

let dense r = Lazy.force r.gus

let sampler_gus ~card ~over ~input sampler =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let gus =
    Lint.translate_sampler ~card ~over ~input ~path:[]
      ~node:(Sampler.to_string sampler) ~emit sampler
  in
  let errs =
    List.filter (fun d -> D.severity d = D.Error) (List.rev !diags)
  in
  match (errs, gus) with
  | [], Some g -> g
  | [], None ->
      (* Unreachable: translation fails only alongside an Error. *)
      raise (Unsupported "sampler translation failed")
  | errs, _ -> raise (Unsupported (render_errors errs))

let analyze ~card plan =
  let report = Lint.run ~card plan in
  match (Lint.errors report, report.Lint.analysis) with
  | [], Some a ->
      { skeleton = a.Lint.skeleton;
        sym = a.Lint.sym;
        gus = a.Lint.gus;
        live = a.Lint.live;
        steps = a.Lint.steps }
  | [], None ->
      (* Unreachable: the linter produces an analysis iff it found no
         errors. *)
      raise (Unsupported "plan is not GUS-analyzable")
  | errs, _ -> raise (Unsupported (render_errors errs))

let analyze_db db plan =
  analyze plan
    ~card:(fun r ->
      Gus_relational.Relation.cardinality (Gus_relational.Database.find db r))
