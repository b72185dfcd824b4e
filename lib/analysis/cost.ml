module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Subset = Gus_util.Subset

type report = {
  n_rels : int;
  passes : int;
  skipped : int;
  est_groups : float;
  predicted_cost : float;
  variance_bound : float;
  dead : int;
  cls : Absdom.Cls.t;
}

let variance_bound_of_c ~a c =
  if not (a > 0.0) then infinity
  else begin
    let sum = ref 0.0 in
    Array.iter (fun cs -> if cs > 0.0 then sum := !sum +. cs) c;
    Float.max 0.0 ((!sum /. (a *. a)) -. 1.0)
  end

(* The report, computed from the sum-of-products form without touching
   2^n anywhere:

   - the dead set is the complement of the *structural* live mask (a
     factor with lo = hi on float bits multiplies identical values into
     b_T and b_{T∪{i}}, so the dense entries are bit-equal and the
     Möbius coefficients exact zeros);
   - the variance bound either enumerates the coefficients over the
     *projected* k-relation live universe (entries are bit-equal to the
     dense [b] at the embedded masks, the transform runs the same per-bit
     passes in the same order, and the positive-sum accumulates the
     surviving coefficients in the same ascending order a dense scan
     does), or uses the closed form Σ c_S⁺ = b_full = a for
     provably-nonnegative designs where enumeration would be wasteful. *)

(* Below this live-relation count, always enumerate: bit-parity with a
   dense enumeration costs at most 2^8 evaluations. *)
let sym_enum_limit = 8

(* Enumerating 2^k coefficients stays cheap well past the dense-array
   wall; beyond this the bound for non-monotone designs is unknown. *)
let sym_enum_hard_limit = 20

let analyze_sym ~(facts : Dataflow.table) (sym : Symalg.t) =
  let n = Symalg.n_rels sym in
  let live = Symalg.live_mask sym in
  let k = Subset.cardinal live in
  let passes = Subset.full_wide n (* 2^n − 1 without the 2^n array *) in
  let skipped = passes - Subset.full_wide k in
  let a = sym.Symalg.a in
  let enumerate () =
    let g_live = Symalg.to_gus (Symalg.project sym live) in
    variance_bound_of_c ~a (Gus.c_coefficients g_live)
  in
  let materialized =
    match sym.Symalg.repr with Symalg.Dense _ -> true | Symalg.Sop _ -> false
  in
  let variance_bound =
    if not (a > 0.0) then infinity
    else if materialized || k <= sym_enum_limit then enumerate ()
    else if Symalg.nonneg_monotone sym then
      (* Σ c_S⁺ = Σ c_S = b_full = a exactly (all coefficients are
         nonnegative and the telescoping sum is the diagonal). *)
      Float.max 0.0 ((a /. (a *. a)) -. 1.0)
    else if k <= sym_enum_hard_limit then enumerate ()
    else infinity
  in
  let root = Dataflow.root facts in
  let est_groups = Float.max 1.0 (Absdom.Card.exp root.Dataflow.card) in
  { n_rels = n;
    passes;
    skipped;
    est_groups;
    predicted_cost = float_of_int (passes - skipped) *. est_groups;
    variance_bound;
    dead = Subset.diff (Subset.full_wide n) live;
    cls = root.Dataflow.cls }

let pp ppf r =
  Format.fprintf ppf
    "%d relation(s), %d moment pass(es) (%d provably zero), ~%g group(s), \
     predicted cost %g, worst-case Var/E%s %s %g"
    r.n_rels r.passes r.skipped r.est_groups r.predicted_cost "\xc2\xb2"
    "\xe2\x89\xa4" r.variance_bound
