module Subset = Gus_util.Subset

type t = {
  rels : string array;
  a : float;
  b : float array;
}

exception Incompatible of string

let incompatible fmt = Printf.ksprintf (fun s -> raise (Incompatible s)) fmt

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Gus: %s = %g not in [0,1]" what p)

let check_disjoint rels =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      if Hashtbl.mem seen r then
        invalid_arg (Printf.sprintf "Gus: duplicate relation %s in lineage schema" r);
      Hashtbl.add seen r ())
    rels

let make ~rels ~a ~b =
  check_disjoint rels;
  let n = Array.length rels in
  if n > Subset.max_universe then
    invalid_arg (Printf.sprintf "Gus: %d relations exceed the %d limit" n
                   Subset.max_universe);
  if Array.length b <> Subset.count n then
    invalid_arg
      (Printf.sprintf "Gus: b has %d entries, expected %d" (Array.length b)
         (Subset.count n));
  check_prob "a" a;
  Array.iteri (fun i p -> check_prob (Printf.sprintf "b[%d]" i) p) b;
  let full = Subset.full n in
  if Float.abs (b.(full) -. a) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Gus: diagonal b_full = %g must equal a = %g" b.(full) a);
  let b = Array.copy b in
  b.(full) <- a;
  { rels; a; b }

let constant rels v =
  let n = Array.length rels in
  make ~rels ~a:v ~b:(Array.make (Subset.count n) v)

let identity rels = constant rels 1.0
let null rels = constant rels 0.0

let bernoulli ~rel p =
  check_prob "p" p;
  make ~rels:[| rel |] ~a:p ~b:[| p *. p; p |]

let wor ~rel ~n ~out_of =
  if out_of < 1 then invalid_arg "Gus.wor: population must be >= 1";
  if n < 0 || n > out_of then
    invalid_arg (Printf.sprintf "Gus.wor: n=%d out of [0,%d]" n out_of);
  let nf = float_of_int n and cf = float_of_int out_of in
  let a = nf /. cf in
  let b_empty =
    if out_of = 1 then 0.0 else nf *. (nf -. 1.0) /. (cf *. (cf -. 1.0))
  in
  make ~rels:[| rel |] ~a ~b:[| b_empty; a |]

let bernoulli_over rels p =
  check_prob "p" p;
  let n = Array.length rels in
  let b = Array.make (Subset.count n) (p *. p) in
  b.(Subset.full n) <- p;
  make ~rels ~a:p ~b

let n_rels g = Array.length g.rels
let b_get g s = g.b.(s)

let join g1 g2 =
  let n1 = Array.length g1.rels and n2 = Array.length g2.rels in
  Array.iter
    (fun r ->
      if Array.exists (String.equal r) g1.rels then
        incompatible "join: relation %s appears on both sides (self-join?)" r)
    g2.rels;
  let rels = Array.append g1.rels g2.rels in
  let n = n1 + n2 in
  if n > Subset.max_universe then
    incompatible "join: %d relations exceed the %d limit" n Subset.max_universe;
  let mask1 = Subset.full n1 in
  let b =
    Array.init (Subset.count n) (fun t ->
        let t1 = t land mask1 and t2 = t lsr n1 in
        g1.b.(t1) *. g2.b.(t2))
  in
  make ~rels ~a:(g1.a *. g2.a) ~b

let require_same_schema op g1 g2 =
  if not
       (Array.length g1.rels = Array.length g2.rels
       && Array.for_all2 String.equal g1.rels g2.rels)
  then
    incompatible "%s: lineage schemas differ ([%s] vs [%s])" op
      (String.concat "," (Array.to_list g1.rels))
      (String.concat "," (Array.to_list g2.rels))

let compact g1 g2 =
  require_same_schema "compact" g1 g2;
  let b = Array.mapi (fun t b1 -> b1 *. g2.b.(t)) g1.b in
  make ~rels:g1.rels ~a:(g1.a *. g2.a) ~b

let union g1 g2 =
  require_same_schema "union" g1 g2;
  let a = g1.a +. g2.a -. (g1.a *. g2.a) in
  let b =
    Array.mapi
      (fun t b1 ->
        let b2 = g2.b.(t) in
        let v =
          (2.0 *. a) -. 1.0
          +. ((1.0 -. (2.0 *. g1.a) +. b1) *. (1.0 -. (2.0 *. g2.a) +. b2))
        in
        (* Tiny negative values can appear from float cancellation. *)
        Float.max 0.0 v)
      g1.b
  in
  make ~rels:g1.rels ~a ~b

let extend g extra =
  if Array.length extra = 0 then g else join g (identity extra)

let permute g target =
  let n = Array.length g.rels in
  if Array.length target <> n then
    incompatible "permute: schema size mismatch";
  let pos_of r =
    let rec go i =
      if i >= n then incompatible "permute: %s not in schema" r
      else if String.equal g.rels.(i) r then i
      else go (i + 1)
    in
    go 0
  in
  (* old_pos.(j) = position in g.rels of target.(j) *)
  let old_pos = Array.map pos_of target in
  check_disjoint target;
  let translate t_new =
    let t_old = ref Subset.empty in
    for j = 0 to n - 1 do
      if Subset.mem t_new j then t_old := Subset.add !t_old old_pos.(j)
    done;
    !t_old
  in
  let b = Array.init (Subset.count n) (fun t -> g.b.(translate t)) in
  make ~rels:(Array.copy target) ~a:g.a ~b

let c_coefficients g =
  let n = n_rels g in
  let c = Array.copy g.b in
  (* Signed fast Möbius (subset-sum) transform:
     c[S] = sum_{T ⊆ S} (-1)^{|S|-|T|} b[T]. *)
  for bit = 0 to n - 1 do
    let m = 1 lsl bit in
    Subset.iter_all n (fun s -> if s land m <> 0 then c.(s) <- c.(s) -. c.(s lxor m))
  done;
  c

let variance g ~y =
  let n = n_rels g in
  if Array.length y <> Subset.count n then
    invalid_arg "Gus.variance: y has wrong length";
  if g.a = 0.0 then incompatible "variance: a = 0 (nothing is ever sampled)";
  let c = c_coefficients g in
  let a2 = g.a *. g.a in
  let acc = ref 0.0 in
  Array.iteri (fun s cs -> acc := !acc +. (cs /. a2 *. y.(s))) c;
  !acc -. y.(Subset.empty)

let scale_up g total =
  if g.a = 0.0 then incompatible "scale_up: a = 0";
  total /. g.a

let d_correction g ~s =
  let n = n_rels g in
  let comp = Subset.complement n s in
  let out = Array.make (Subset.count n) 0.0 in
  Subset.iter_subsets comp (fun t ->
      let acc = ref 0.0 in
      Subset.iter_subsets t (fun u ->
          let sign =
            if (Subset.cardinal (Subset.diff t u)) land 1 = 0 then 1.0 else -1.0
          in
          acc := !acc +. (sign *. g.b.(Subset.union s u)));
      out.(t) <- !acc);
  out

let equal_approx ?(eps = 1e-9) g1 g2 =
  Array.length g1.rels = Array.length g2.rels
  && Array.for_all2 String.equal g1.rels g2.rels
  && Float.abs (g1.a -. g2.a) <= eps
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) g1.b g2.b

let subset_name g s =
  if s = Subset.empty then "{}" else Subset.to_string ~names:g.rels s

let pp ppf g =
  Format.fprintf ppf "G over [%s]: a = %.6g"
    (String.concat "," (Array.to_list g.rels))
    g.a;
  Array.iteri
    (fun s bs -> Format.fprintf ppf ",@ b%s = %.6g" (subset_name g s) bs)
    g.b

let to_string g = Format.asprintf "@[%a@]" pp g
