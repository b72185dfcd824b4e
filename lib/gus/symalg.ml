module Subset = Gus_util.Subset

(* A symbolic sum-of-products representation of the second-moment vector
   b̄: every entry is

     b_T  =  Σ_k  w_k · Π_i  φ_k,i(i ∈ T)

   with one factor φ per lineage relation per term.  Prop 6 (join) keeps
   the form closed by concatenating factor lists, Prop 8 (compact) by
   multiplying factors pointwise, and Prop 7 (union) by distributing the
   shifted product (1−2a₁+b₁)(1−2a₂+b₂) over both operands' terms — so an
   independent-Bernoulli-style design stays a *single* term no matter how
   many relations it spans, and nothing ever materializes 2^n floats.

   Float discipline: [a] is maintained with exactly the dense operators'
   expressions, and every per-relation factor is combined with the same
   multiplication the dense combinator would apply to the corresponding
   b-entry.  For product-form designs (no unions) evaluating a term is the
   same left-to-right chain of [*.] the dense fold performed, so
   materialized entries are bit-identical to the dense path's — the
   property the estimator's byte-identity gates rely on. *)

type term = {
  w : float;  (** scalar weight; 1.0 for pure product designs *)
  lo : float array;  (** φ_i(false): factor value when i ∉ T *)
  hi : float array;  (** φ_i(true): factor value when i ∈ T *)
}

type repr =
  | Sop of term list
  | Dense of Gus.t
      (** fallback for designs whose term count blew past {!term_budget}
          inside the dense-representable width *)

type t = {
  rels : string array;
  a : float;
  repr : repr;
}

let incompatible fmt =
  Printf.ksprintf (fun s -> raise (Gus.Incompatible s)) fmt

let max_rels = Subset.max_mask_bits

let check_width ~what n =
  if n > max_rels then
    incompatible
      "Symalg.%s: %d relations exceed the %d-bit subset-mask limit" what n
      max_rels

let check_disjoint rels =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      if Hashtbl.mem seen r then
        invalid_arg
          (Printf.sprintf "Symalg: duplicate relation %s in lineage schema" r);
      Hashtbl.add seen r ())
    rels

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Symalg: %s = %g not in [0,1]" what p)

let n_rels t = Array.length t.rels
let full_mask t = Subset.full_wide (n_rels t)

(* ---- evaluation ---- *)

let[@inline] eval_term n (tm : term) s =
  let r = ref tm.w in
  for i = 0 to n - 1 do
    r :=
      !r
      *. (if s land (1 lsl i) <> 0 then Array.unsafe_get tm.hi i
          else Array.unsafe_get tm.lo i)
  done;
  !r

let eval_sop n terms s =
  match terms with
  | [] -> 0.0
  | t0 :: rest ->
      List.fold_left (fun acc tm -> acc +. eval_term n tm s) (eval_term n t0 s)
        rest

(* Union SoPs can cancel to tiny negatives exactly where the dense union
   operator clamps; products of probabilities never exceed 1 but the same
   cancellations could overshoot by an ulp. *)
let clamp01 v = Float.max 0.0 (Float.min 1.0 v)

let b_get t s =
  match t.repr with
  | Dense g -> Gus.b_get g s
  | Sop terms ->
      if s = full_mask t then t.a
      else clamp01 (eval_sop (n_rels t) terms s)

(* ---- constructors ---- *)

let const_term n v = { w = v; lo = Array.make n 1.0; hi = Array.make n 1.0 }

let constant rels v =
  check_disjoint rels;
  check_width ~what:"constant" (Array.length rels);
  check_prob "constant" v;
  { rels = Array.copy rels; a = v; repr = Sop [ const_term (Array.length rels) v ] }

let identity rels = constant rels 1.0
let null rels = constant rels 0.0

let bernoulli ~rel p =
  check_prob "p" p;
  { rels = [| rel |];
    a = p;
    repr = Sop [ { w = 1.0; lo = [| p *. p |]; hi = [| p |] } ] }

let wor ~rel ~n ~out_of =
  if out_of < 1 then invalid_arg "Symalg.wor: population must be >= 1";
  if n < 0 || n > out_of then
    invalid_arg (Printf.sprintf "Symalg.wor: n=%d out of [0,%d]" n out_of);
  let nf = float_of_int n and cf = float_of_int out_of in
  let a = nf /. cf in
  let b_empty =
    if out_of = 1 then 0.0 else nf *. (nf -. 1.0) /. (cf *. (cf -. 1.0))
  in
  { rels = [| rel |];
    a;
    repr = Sop [ { w = 1.0; lo = [| b_empty |]; hi = [| a |] } ] }

(* One Bernoulli draw keeps or drops *all* relations of the lineage at
   once: b_T = p² for proper T (two independent survivals) and p on the
   diagonal.  As an SoP: a constant p² plus a (p−p²)-weighted term that is
   non-zero only on the full subset. *)
let bernoulli_over rels p =
  check_prob "p" p;
  check_disjoint rels;
  let n = Array.length rels in
  check_width ~what:"bernoulli_over" n;
  { rels = Array.copy rels;
    a = p;
    repr =
      Sop
        [ const_term n (p *. p);
          { w = p -. (p *. p); lo = Array.make n 0.0; hi = Array.make n 1.0 }
        ] }

let of_gus (g : Gus.t) = { rels = g.Gus.rels; a = g.Gus.a; repr = Dense g }

(* ---- densification ---- *)

let to_gus t =
  match t.repr with
  | Dense g -> g
  | Sop terms ->
      let n = n_rels t in
      if n > Subset.max_universe then
        incompatible
          "Symalg.to_gus: %d relations exceed the %d-relation dense limit \
           (the b\xcc\x84 array would hold 2\xe2\x81\xbf entries)"
          n Subset.max_universe;
      let b =
        Array.init (Subset.count n) (fun s -> clamp01 (eval_sop n terms s))
      in
      Gus.make ~rels:t.rels ~a:t.a ~b

(* ---- the rule book ---- *)

(* Each rule either leaves the term list alone or returns a *strictly
   shorter* one, so the fixpoint below terminates after at most
   [List.length terms] firings. *)

let is_zero_term tm = tm.w = 0.0

let is_null_term tm =
  let n = Array.length tm.lo in
  let rec go i = i < n && ((tm.lo.(i) = 0.0 && tm.hi.(i) = 0.0) || go (i + 1)) in
  go 0

let same_factors t1 t2 =
  (* Bitwise float equality on purpose: merging is only a simplification
     when the merged term evaluates like the pair did. *)
  let n = Array.length t1.lo in
  Array.length t2.lo = n
  &&
  let rec go i =
    i >= n
    || (Int64.bits_of_float t1.lo.(i) = Int64.bits_of_float t2.lo.(i)
        && Int64.bits_of_float t1.hi.(i) = Int64.bits_of_float t2.hi.(i)
        && go (i + 1))
  in
  go 0

type rule = { rule_name : string; fire : term list -> term list option }

let filter_rule name pred =
  { rule_name = name;
    fire =
      (fun terms ->
        (* Never drop the last term: an all-zero SoP is still a valid
           (null) b̄ and downstream code expects at least one term. *)
        let kept = List.filter (fun tm -> not (pred tm)) terms in
        if kept <> [] && List.length kept < List.length terms then Some kept
        else None) }

let rule_merge =
  { rule_name = "merge-duplicate-terms";
    fire =
      (fun terms ->
        let merged = ref false in
        let out = ref [] in
        List.iter
          (fun tm ->
            match List.find_opt (fun (t0, _) -> same_factors t0 tm) !out with
            | Some (_, wref) ->
                wref := !wref +. tm.w;
                merged := true
            | None -> out := !out @ [ (tm, ref tm.w) ])
          terms;
        if !merged then
          Some (List.map (fun (tm, wref) -> { tm with w = !wref }) !out)
        else None) }

let rule_book =
  [ filter_rule "drop-zero-term" is_zero_term;
    filter_rule "drop-null-term" is_null_term;
    rule_merge ]

let simplify t =
  match t.repr with
  | Dense _ -> (t, [])
  | Sop terms ->
      let log = ref [] in
      let rec fix terms =
        match
          List.find_map
            (fun r ->
              Option.map (fun ts -> (r.rule_name, ts)) (r.fire terms))
            rule_book
        with
        | Some (name, terms') ->
            log := name :: !log;
            fix terms'
        | None -> terms
      in
      let terms = fix terms in
      ({ t with repr = Sop terms }, List.rev !log)

let term_count t =
  match t.repr with Sop terms -> List.length terms | Dense _ -> 0

(* Deeply nested unions multiply term counts; past this budget the SoP is
   abandoned for the dense fallback (when the width still allows one). *)
let term_budget = 256

let settle t =
  match t.repr with
  | Dense _ -> t
  | Sop terms ->
      if List.length terms <= term_budget then t
      else
        let t, _ = simplify t in
        if term_count t <= term_budget then t
        else if n_rels t <= Subset.max_universe then of_gus (to_gus t)
        else
          incompatible
            "Symalg: %d-relation design needs %d sum-of-products terms \
             (budget %d) and is too wide for the dense fallback: the design \
             is too entangled to analyze"
            (n_rels t) (term_count t) term_budget

(* ---- combinators (Props 6/7/8, Section 4) ---- *)

let require_same_schema op g1 g2 =
  if not
       (Array.length g1.rels = Array.length g2.rels
       && Array.for_all2 String.equal g1.rels g2.rels)
  then
    incompatible "%s: lineage schemas differ ([%s] vs [%s])" op
      (String.concat "," (Array.to_list g1.rels))
      (String.concat "," (Array.to_list g2.rels))

let cross t1 t2 ~f =
  List.concat_map (fun x -> List.map (fun y -> f x y) t2) t1

(* Densify both operands and apply the dense op; [to_gus] raises when a
   side is too wide to materialize. *)
let dense2 op g1 g2 = of_gus (op (to_gus g1) (to_gus g2))

let join g1 g2 =
  Array.iter
    (fun r ->
      if Array.exists (String.equal r) g1.rels then
        incompatible "join: relation %s appears on both sides (self-join?)" r)
    g2.rels;
  let n = Array.length g1.rels + Array.length g2.rels in
  check_width ~what:"join" n;
  match (g1.repr, g2.repr) with
  | Sop t1, Sop t2 ->
      let terms =
        cross t1 t2 ~f:(fun x y ->
            { w = x.w *. y.w;
              lo = Array.append x.lo y.lo;
              hi = Array.append x.hi y.hi })
      in
      settle
        { rels = Array.append g1.rels g2.rels;
          a = g1.a *. g2.a;
          repr = Sop terms }
  | _ -> dense2 Gus.join g1 g2

let compact g1 g2 =
  require_same_schema "compact" g1 g2;
  match (g1.repr, g2.repr) with
  | Sop t1, Sop t2 ->
      let terms =
        cross t1 t2 ~f:(fun x y ->
            { w = x.w *. y.w;
              lo = Array.map2 (fun a b -> a *. b) x.lo y.lo;
              hi = Array.map2 (fun a b -> a *. b) x.hi y.hi })
      in
      settle { rels = g1.rels; a = g1.a *. g2.a; repr = Sop terms }
  | _ -> dense2 Gus.compact g1 g2

let union g1 g2 =
  require_same_schema "union" g1 g2;
  match (g1.repr, g2.repr) with
  | Sop t1, Sop t2 ->
      let n = Array.length g1.rels in
      let a = g1.a +. g2.a -. (g1.a *. g2.a) in
      (* Dense Prop 7:  b = (2a−1) + (1−2a₁+b₁)(1−2a₂+b₂).  Distribute the
         product over the shifted operands; the shifts and the leading
         constant are all-ones factor terms carrying the constant as their
         weight.  Constant weights may be negative — terms are not
         probabilities, only the evaluated sum is. *)
      let shift c terms = const_term n c :: terms in
      let t1 = shift (1.0 -. (2.0 *. g1.a)) t1 in
      let t2 = shift (1.0 -. (2.0 *. g2.a)) t2 in
      let crossed =
        cross t1 t2 ~f:(fun x y ->
            { w = x.w *. y.w;
              lo = Array.map2 (fun a b -> a *. b) x.lo y.lo;
              hi = Array.map2 (fun a b -> a *. b) x.hi y.hi })
      in
      let terms = const_term n ((2.0 *. a) -. 1.0) :: crossed in
      let t = { rels = g1.rels; a; repr = Sop terms } in
      let t, _ = simplify t in
      settle t
  | _ -> dense2 Gus.union g1 g2

let extend g extra =
  if Array.length extra = 0 then g else join g (identity extra)

let permute g target =
  let n = n_rels g in
  if Array.length target <> n then incompatible "permute: schema size mismatch";
  let pos_of r =
    let rec go i =
      if i >= n then incompatible "permute: %s not in schema" r
      else if String.equal g.rels.(i) r then i
      else go (i + 1)
    in
    go 0
  in
  let old_pos = Array.map pos_of target in
  check_disjoint target;
  match g.repr with
  | Sop terms ->
      let terms =
        List.map
          (fun tm ->
            { tm with
              lo = Array.map (fun p -> tm.lo.(p)) old_pos;
              hi = Array.map (fun p -> tm.hi.(p)) old_pos })
          terms
      in
      { rels = Array.copy target; a = g.a; repr = Sop terms }
  | Dense d -> of_gus (Gus.permute d target)

(* ---- structure queries ---- *)

let live_mask t =
  match t.repr with
  | Sop terms ->
      List.fold_left
        (fun acc tm ->
          let m = ref acc in
          Array.iteri
            (fun i lo -> if lo <> tm.hi.(i) then m := !m lor (1 lsl i))
            tm.lo;
          !m)
        0 terms
  | Dense g ->
      (* Relation [i] is dead when b_{T ∪ {i}} = b_T on float bits for
         every T: the fast Möbius transform then computes x −. x = 0.0 in
         the dead dimension's pass and 0.0 −. 0.0 afterwards, so every
         dead-touching coefficient is an exact zero. *)
      let n = Gus.n_rels g in
      let nmasks = Subset.count n in
      let dead = ref 0 in
      for i = 0 to n - 1 do
        let bit = 1 lsl i in
        let inert = ref true in
        let s = ref 0 in
        while !inert && !s < nmasks do
          if
            !s land bit = 0
            && not (Gus.b_get g !s = Gus.b_get g (!s lor bit))
          then inert := false;
          s := !s + 1
        done;
        if !inert then dead := !dead lor bit
      done;
      Subset.diff (Subset.full n) !dead

(* All coefficients c_S of a term factor as
   w · Π_{i∈S}(hi−lo) · Π_{i∉S}lo, so a SoP whose every term has w ≥ 0 and
   hi ≥ lo ≥ 0 per factor has c_S ≥ 0 for every S — Theorem 1's Σ c_S⁺
   then telescopes to b_full = a in closed form.  It also makes b_T
   monotone in T, so no entry can exceed the diagonal. *)
let nonneg_monotone t =
  match t.repr with
  | Dense _ -> false
  | Sop terms ->
      List.for_all
        (fun tm ->
          tm.w >= 0.0
          &&
          let n = Array.length tm.lo in
          let rec go i =
            i >= n || (tm.lo.(i) >= 0.0 && tm.hi.(i) >= tm.lo.(i) && go (i + 1))
          in
          go 0)
        terms

(* Restrict to the relations in [live], folding each dropped factor's
   (constant: lo = hi is required) value into the weight.  Exact precisely
   because dropped factors are structurally dead.  A dense fallback keeps
   the entries at the embedded masks: a dead bit never changes [b], so
   they are the dense entries themselves. *)
let project t live =
  let n = n_rels t in
  if Subset.diff live (Subset.full_wide n) <> 0 then
    invalid_arg "Symalg.project: live mask has bits outside the universe";
  if live = Subset.full_wide n then t
  else if not (Subset.subset (live_mask t) live) then
    incompatible "project: the dropped relations are not design-inert"
  else
    let keep = Array.of_list (Subset.elements live) in
    let rels' = Array.map (fun i -> t.rels.(i)) keep in
    match t.repr with
    | Dense g ->
        let embed s =
          let m = ref 0 in
          Array.iteri
            (fun j i -> if s land (1 lsl j) <> 0 then m := !m lor (1 lsl i))
            keep;
          !m
        in
        let b =
          Array.init (Subset.count (Array.length keep)) (fun s ->
              Gus.b_get g (embed s))
        in
        of_gus (Gus.make ~rels:rels' ~a:t.a ~b)
    | Sop terms ->
        let dead = Subset.elements (Subset.diff (Subset.full_wide n) live) in
        let terms' =
          List.map
            (fun tm ->
              { w = List.fold_left (fun acc i -> acc *. tm.lo.(i)) tm.w dead;
                lo = Array.map (fun i -> tm.lo.(i)) keep;
                hi = Array.map (fun i -> tm.hi.(i)) keep })
            terms
        in
        { rels = rels'; a = t.a; repr = Sop terms' }

let is_identity ?(eps = 1e-9) t =
  match t.repr with
  | Dense g -> Gus.equal_approx ~eps g (Gus.identity g.Gus.rels)
  | Sop _ ->
      Float.abs (t.a -. 1.0) <= eps
      &&
      let live = live_mask t in
      Subset.cardinal live <= 16
      &&
      let ok = ref true in
      Subset.iter_subsets live (fun s ->
          if Float.abs (b_get t s -. 1.0) > eps then ok := false);
      !ok

let subset_name t s =
  if s = Subset.empty then "{}" else Subset.to_string ~names:t.rels s

let pp ppf t =
  Format.fprintf ppf "SoP over [%s]: a = %.6g"
    (String.concat "," (Array.to_list t.rels))
    t.a;
  match t.repr with
  | Dense g -> Format.fprintf ppf ",@ dense fallback: %a" Gus.pp g
  | Sop terms ->
      Format.fprintf ppf ", %d term(s)" (List.length terms);
      List.iter
        (fun tm ->
          Format.fprintf ppf "@ + %.6g" tm.w;
          Array.iteri
            (fun i lo ->
              Format.fprintf ppf " \xc2\xb7 %s:(%.6g|%.6g)" t.rels.(i) lo
                tm.hi.(i))
            tm.lo)
        terms

let to_string t = Format.asprintf "@[%a@]" pp t
