module Rng = Gus_util.Rng
module Hashing = Gus_util.Hashing
module Pool = Gus_util.Pool
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

(* Row-block grid for the pooled Bernoulli path.  The grid is a property
   of the *input*, not of the pool: block [b] always covers rows
   [b*4096, (b+1)*4096) and always draws from the [b]-th derived child
   stream, so the sample is identical for every pool size. *)
let bernoulli_rows_per_stream = 4096

let sampled_name ?(suffix = "sample") rel =
  Printf.sprintf "%s(%s)" suffix rel.Relation.name

(* Every sampler first materializes the kept row indices — drawing from
   the RNG in row order — then gathers data and lineage columns in one
   pass. *)

let apply_inner ?pool ?(par_threshold = Pool.default_par_threshold) t rng rel =
  validate t;
  (match t with
  | Block _ -> require_base "block sampling" rel
  | Hash_bernoulli _ -> require_base "hash-Bernoulli sampling" rel
  | Bernoulli _ | Wor _ | Wr _ -> ());
  match t with
  | Bernoulli p -> (
      let n = Relation.cardinality rel in
      match pool with
      | Some pl when Pool.is_live pl && n >= par_threshold ->
          (* Block-wise draws: one [Rng.derive]d child stream per fixed
             4096-row block, blocks fanned across lanes and stitched in
             block order.  Deterministic in (seed, input) and independent
             of the lane count — but a *different* sample than the
             sequential single-stream path, which is why the pooled path
             is opt-in per call rather than a drop-in default. *)
          let master = Rng.split rng in
          let nblocks = (n + bernoulli_rows_per_stream - 1) / bernoulli_rows_per_stream in
          let bufs =
            Array.init nblocks (fun b ->
                let lo = b * bernoulli_rows_per_stream in
                Array.make (max 1 (min n (lo + bernoulli_rows_per_stream) - lo)) 0)
          in
          let counts = Array.make (max 1 nblocks) 0 in
          Pool.run_chunks pl ~lo:0 ~hi:nblocks (fun blo bhi ->
              for b = blo to bhi - 1 do
                let brng = Rng.derive master b in
                let buf = bufs.(b) in
                let m = ref 0 in
                let lo = b * bernoulli_rows_per_stream in
                let hi = min n (lo + bernoulli_rows_per_stream) in
                for i = lo to hi - 1 do
                  if Rng.bernoulli brng p then begin
                    buf.(!m) <- i;
                    incr m
                  end
                done;
                counts.(b) <- !m
              done);
          let total = Array.fold_left ( + ) 0 counts in
          let idx = Array.make (max 1 total) 0 in
          let off = ref 0 in
          Array.iteri
            (fun b buf ->
              Array.blit buf 0 idx !off counts.(b);
              off := !off + counts.(b))
            bufs;
          Relation.gather_rows ~name:(sampled_name rel) rel idx total
      | _ ->
          let idx = Array.make (max 1 n) 0 in
          let m = ref 0 in
          for i = 0 to n - 1 do
            if Rng.bernoulli rng p then begin
              idx.(!m) <- i;
              incr m
            end
          done;
          Relation.gather_rows ~name:(sampled_name rel) rel idx !m)
  | Wor n ->
      let card = Relation.cardinality rel in
      let k = min n card in
      let idx = Rng.sample_without_replacement rng k card in
      Array.sort compare idx;
      Relation.gather_rows ~name:(sampled_name rel) rel idx k
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
      Relation.gather_rows ~name:(sampled_name rel) rel idx (Array.length idx)
  | Block { rows_per_block; p } ->
      (* Lineage is rewritten to block granularity: the filter decision is
         per block, and two rows of one kept block are *not* independent, so
         the GUS analysis must treat the block as the sampled unit. *)
      let card = Relation.cardinality rel in
      let nblocks = (card + rows_per_block - 1) / rows_per_block in
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
      Relation.derived_cols
        ~name:(sampled_name ~suffix:"blocksample" rel)
        rel.Relation.schema rel.Relation.lineage_schema
        { Relation.cn = !m; ccols; clineage }
  | Hash_bernoulli { seed; p } ->
      (* Decisions are a pure function of (seed, lineage id), so the
         chunk-parallel scan is output-identical to the sequential one. *)
      let keep i = Hashing.prf_float ~seed (Relation.lineage_id rel ~slot:0 i) < p in
      let idx, count =
        Ops.select_indices ?pool ~par_threshold keep (Relation.cardinality rel)
      in
      Relation.gather_rows ~name:(sampled_name ~suffix:"hashsample" rel) rel idx count

let m_rows_in = Gus_obs.Metrics.counter "sampler.rows_in"
let m_rows_out = Gus_obs.Metrics.counter "sampler.rows_out"
let m_draws = Gus_obs.Metrics.counter "sampler.bernoulli.draws"

let apply ?pool ?par_threshold t rng rel =
  let out = apply_inner ?pool ?par_threshold t rng rel in
  (* Draw counts are derived arithmetically (never by counting inside the
     sampling loops), so instrumentation cannot perturb the RNG stream. *)
  if Gus_obs.Metrics.enabled () then begin
    Gus_obs.Metrics.add m_rows_in (Relation.cardinality rel);
    Gus_obs.Metrics.add m_rows_out (Relation.cardinality out);
    match t with
    | Bernoulli _ -> Gus_obs.Metrics.add m_draws (Relation.cardinality rel)
    | Block { rows_per_block; p = _ } ->
        let card = Relation.cardinality rel in
        Gus_obs.Metrics.add m_draws
          ((card + rows_per_block - 1) / rows_per_block)
    | Wor _ | Wr _ | Hash_bernoulli _ -> ()
  end;
  out

let sampling_fraction t ~n =
  match t with
  | Bernoulli p -> p
  | Wor k | Wr k -> if n = 0 then 0.0 else Float.min 1.0 (float_of_int k /. float_of_int n)
  | Block { p; _ } -> p
  | Hash_bernoulli { p; _ } -> p
