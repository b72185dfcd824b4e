(* The classical with-replacement estimator, kept as a test oracle: the
   non-GUS baseline that test_sbox holds the WR sampler against.  For a
   single relation sampled WR with [n] draws out of [N], the textbook
   estimator of [Σ f] is [(N/n) Σ_{draws} f], with variance
   [N²·Var(f)/n] estimated from the sample.  The paper excludes WR from
   GUS (it is not a filter).  [population] is the base relation's
   cardinality [N]; the relation holds the [n] draws. *)

open Gus_relational

type report = {
  estimate : float;
  variance : float;
  stddev : float;
  n_draws : int;
}

let estimate_sum ~population ~f rel =
  let eval = Expr.bind_float rel.Relation.schema f in
  let summary = Gus_stats.Summary.create () in
  Relation.iter (fun tup -> Gus_stats.Summary.add summary (eval tup)) rel;
  let n = Gus_stats.Summary.count summary in
  if n = 0 then { estimate = 0.0; variance = 0.0; stddev = 0.0; n_draws = 0 }
  else begin
    let nf = float_of_int n and pf = float_of_int population in
    let estimate = pf *. Gus_stats.Summary.mean summary in
    let variance = pf *. pf *. Gus_stats.Summary.variance summary /. nf in
    { estimate; variance; stddev = sqrt variance; n_draws = n }
  end
