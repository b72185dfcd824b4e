module Rng = Gus_util.Rng
module Hashing = Gus_util.Hashing
open Gus_relational

type t =
  | Bernoulli of float
  | Wor of int
  | Wr of int
  | Block of { rows_per_block : int; p : float }
  | Hash_bernoulli of { seed : int; p : float }

let pp ppf = function
  | Bernoulli p -> Format.fprintf ppf "Bernoulli(%g)" p
  | Wor n -> Format.fprintf ppf "WOR(%d)" n
  | Wr n -> Format.fprintf ppf "WR(%d)" n
  | Block { rows_per_block; p } -> Format.fprintf ppf "Block(%d,%g)" rows_per_block p
  | Hash_bernoulli { seed; p } -> Format.fprintf ppf "HashBernoulli(seed=%d,%g)" seed p

let to_string s = Format.asprintf "%a" pp s

let check_p p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Sampler: probability %g not in [0,1]" p)

let validate = function
  | Bernoulli p -> check_p p
  | Wor n | Wr n ->
      if n < 0 then invalid_arg "Sampler: negative sample size"
  | Block { rows_per_block; p } ->
      if rows_per_block <= 0 then invalid_arg "Sampler: block size must be positive";
      check_p p
  | Hash_bernoulli { p; _ } -> check_p p

let require_base which rel =
  if Array.length rel.Relation.lineage_schema <> 1 then
    invalid_arg
      (Printf.sprintf "Sampler.apply: %s requires a base relation, got lineage %s"
         which
         (String.concat "," (Array.to_list rel.Relation.lineage_schema)))

let uses_rng = function
  | Bernoulli _ | Wor _ | Wr _ | Block _ -> true
  | Hash_bernoulli _ -> false

let per_tuple = function
  | Bernoulli _ | Hash_bernoulli _ -> true
  | Wor _ | Wr _ | Block _ -> false

let sampled_name ?(suffix = "sample") rel =
  Printf.sprintf "%s(%s)" suffix rel.Relation.name

(* A block is [lineage id / rows_per_block].  A base relation's ids are
   its row numbers, so its blocks are ceil(card / rows_per_block); beneath
   a selection the surviving ids are sparse and the largest can pass the
   cardinality, so the draws cover the largest id's block too.  Where no
   id reaches the cardinality the count — and so every draw — is the
   historical ceil(card / rows_per_block). *)
let block_count rows_per_block rel =
  let card = Relation.cardinality rel in
  let top = ref (-1) in
  for i = 0 to card - 1 do
    let id = Relation.lineage_id rel ~slot:0 i in
    if id > !top then top := id
  done;
  max
    ((card + rows_per_block - 1) / rows_per_block)
    ((!top + rows_per_block) / rows_per_block)

(* Every sampler first materializes the kept row indices — drawing from
   the RNG in row order — then gathers data and lineage columns in one
   pass.  The second result is the number of Bernoulli draws made. *)

let apply_inner t rng rel =
  validate t;
  (match t with
  | Block _ -> require_base "block sampling" rel
  | Hash_bernoulli _ -> require_base "hash-Bernoulli sampling" rel
  | Bernoulli _ | Wor _ | Wr _ -> ());
  match t with
  | Bernoulli p ->
      let card = Relation.cardinality rel in
      let idx, count = Ops.select_indices (fun _ -> Rng.bernoulli rng p) card in
      (Relation.gather_rows ~name:(sampled_name rel) rel idx count, card)
  | Wor n ->
      let card = Relation.cardinality rel in
      let k = min n card in
      let idx = Rng.sample_without_replacement rng k card in
      Array.sort compare idx;
      (Relation.gather_rows ~name:(sampled_name rel) rel idx k, 0)
  | Wr n ->
      let card = Relation.cardinality rel in
      let idx =
        if card = 0 then [||]
        else begin
          (* Explicit loop: the n draws must come out of [rng] in row
             order. *)
          let a = Array.make (max 1 n) 0 in
          for j = 0 to n - 1 do
            a.(j) <- Rng.int rng card
          done;
          Array.sub a 0 n
        end
      in
      (Relation.gather_rows ~name:(sampled_name rel) rel idx (Array.length idx), 0)
  | Block { rows_per_block; p } ->
      (* Lineage is rewritten to block granularity: the filter decision is
         per block, and two rows of one kept block are *not* independent, so
         the GUS analysis must treat the block as the sampled unit. *)
      let card = Relation.cardinality rel in
      let nblocks = block_count rows_per_block rel in
      let keep = Array.init nblocks (fun _ -> Rng.bernoulli rng p) in
      let idx = Array.make (max 1 card) 0 in
      let blocks = Array.make (max 1 card) 0 in
      let m = ref 0 in
      for i = 0 to card - 1 do
        let block = Relation.lineage_id rel ~slot:0 i / rows_per_block in
        if keep.(block) then begin
          idx.(!m) <- i;
          blocks.(!m) <- block;
          incr m
        end
      done;
      let ccols =
        Array.map (fun col -> Column.gather col idx !m) rel.Relation.cols.Relation.ccols
      in
      let clineage = Relation.Explicit [| Column.of_int_array blocks !m |] in
      ( Relation.derived_cols
          ~name:(sampled_name ~suffix:"blocksample" rel)
          rel.Relation.schema rel.Relation.lineage_schema
          { Relation.cn = !m; ccols; clineage },
        nblocks )
  | Hash_bernoulli { seed; p } ->
      let keep i = Hashing.prf_float ~seed (Relation.lineage_id rel ~slot:0 i) < p in
      let idx, count = Ops.select_indices keep (Relation.cardinality rel) in
      (Relation.gather_rows ~name:(sampled_name ~suffix:"hashsample" rel) rel idx count, 0)

let m_rows_in = Gus_obs.Metrics.counter "sampler.rows_in"
let m_rows_out = Gus_obs.Metrics.counter "sampler.rows_out"
let m_draws = Gus_obs.Metrics.counter "sampler.bernoulli.draws"

let apply t rng rel =
  let out, draws = apply_inner t rng rel in
  (* Draw counts come from the sizes the sampler drew for (never from
     counting inside the sampling loops), so instrumentation cannot
     perturb the RNG stream. *)
  if Gus_obs.Metrics.enabled () then begin
    Gus_obs.Metrics.add m_rows_in (Relation.cardinality rel);
    Gus_obs.Metrics.add m_rows_out (Relation.cardinality out);
    Gus_obs.Metrics.add m_draws draws
  end;
  out

let sampling_fraction t ~n =
  match t with
  | Bernoulli p -> p
  | Wor k | Wr k -> if n = 0 then 0.0 else Float.min 1.0 (float_of_int k /. float_of_int n)
  | Block { p; _ } -> p
  | Hash_bernoulli { p; _ } -> p
