module Subset = Gus_util.Subset
module Inttbl = Gus_util.Inttbl
module Pool = Gus_util.Pool
module Metrics = Gus_obs.Metrics
open Gus_relational

(* Observability instruments.  Pass timings are per-mask (at most 2^n per
   kernel run), tuple counts are O(1) arithmetic or one flag-checked call
   per [Acc.add] — nothing inside the per-tuple probe loops. *)
let m_pass_us = Metrics.histogram "moments.pass_us"
let m_batch_pairs = Metrics.counter "moments.batch.pairs"
let m_acc_tuples = Metrics.counter "moments.acc.tuples"
let m_materialized = Metrics.counter "moments.pairs.materialized"

let check_lengths ~what ~width ~lineage_of pairs =
  Array.iter
    (fun p ->
      if Array.length (lineage_of p) <> width then
        invalid_arg (Printf.sprintf "Moments.%s: lineage length mismatch" what))
    pairs

(* A view embeds the kernel's [n_rels] subset positions into wider lineage
   arrays: position [i] of the kernel universe reads lineage column
   [view.(i)].  This is what lets a 20-relation plan with 3 live relations
   run 2^3 moment passes over its native 20-column lineages.  The identity
   view is [None].  [width] is the expected lineage length. *)
let check_view ~what ~n_rels ~width view =
  if n_rels > Subset.max_universe then
    invalid_arg (Printf.sprintf "Moments.%s: too many relations" what);
  match view with
  | None ->
      if width <> n_rels then
        invalid_arg
          (Printf.sprintf "Moments.%s: lineage_width %d without a view" what
             width)
  | Some v ->
      if Array.length v <> n_rels then
        invalid_arg
          (Printf.sprintf "Moments.%s: view length %d <> n_rels %d" what
             (Array.length v) n_rels);
      Array.iteri
        (fun i p ->
          if p < 0 || p >= width then
            invalid_arg
              (Printf.sprintf
                 "Moments.%s: view position %d outside lineage width %d" what p
                 width);
          if i > 0 && v.(i - 1) >= p then
            invalid_arg
              (Printf.sprintf "Moments.%s: view not strictly ascending" what))
        v

(* Remap the filled kernel positions through the view, in place. *)
let[@inline] apply_view view (pos : int array) npos =
  match view with
  | None -> ()
  | Some (v : int array) ->
      for k = 0 to npos - 1 do
        Array.unsafe_set pos k (Array.unsafe_get v (Array.unsafe_get pos k))
      done

(* ------------------------------------------------------------------ *)
(* Optimized kernel.

   Each subset pass is a group-by on the lineage positions in the mask.
   Instead of materializing a restricted key array per tuple, we hash the
   masked positions of the original lineage in place and resolve collisions
   by comparing lineages under the mask, using the open-addressing
   {!Gus_util.Inttbl} keyed by tuple index.  All scratch (table, payload
   sums, position buffer) is allocated once per pass and reused across
   subsets; the per-tuple inner loop allocates nothing.

   Subset passes are independent — they only write the disjoint y.(s)
   cells — so above {!default_par_threshold} tuples they fan out across a
   domain pool, each lane carrying its own scratch. *)

let default_par_threshold = 4096

(* SplitMix64-flavoured finalizer on native ints; constants truncated to
   62 bits.  Only collision *rate* depends on this — correctness rests on
   the masked equality check. *)
let[@inline] mix h k =
  let h = (h lxor k) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

let[@inline] masked_hash (l : int array) (pos : int array) npos =
  let h = ref 0x9E3779B97F4A7C1 in
  for k = 0 to npos - 1 do
    h := mix !h (Array.unsafe_get l (Array.unsafe_get pos k))
  done;
  !h land max_int

let[@inline] masked_equal (la : int array) (lb : int array) (pos : int array)
    npos =
  let rec go k =
    k >= npos
    ||
    let p = Array.unsafe_get pos k in
    Array.unsafe_get la p = Array.unsafe_get lb p && go (k + 1)
  in
  go 0

(* Write the element indices of mask [s] into [pos]; returns how many. *)
let fill_positions (pos : int array) s =
  let n = ref 0 in
  let m = ref s and p = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      pos.(!n) <- !p;
      incr n
    end;
    incr p;
    m := !m lsr 1
  done;
  !n

(* Run [body] over subset masks [1, nmasks): sequentially, or fanned out
   over [pool] when the input is large enough to amortize the domains.
   [body lo hi] must allocate its own scratch (one set per lane). *)
let run_passes ?pool ~par_threshold ~n_pairs ~nmasks body =
  let lanes =
    match pool with Some p -> Pool.size p | None -> Pool.recommended_size ()
  in
  if n_pairs < par_threshold || lanes <= 1 || nmasks - 1 <= 1 then
    body 1 nmasks
  else
    let p = match pool with Some p -> p | None -> Pool.default () in
    Pool.run_chunks p ~lo:1 ~hi:nmasks body

let of_pairs ?pool ?(par_threshold = default_par_threshold) ?view
    ?lineage_width ~n_rels pairs =
  let width = Option.value lineage_width ~default:n_rels in
  check_view ~what:"of_pairs" ~n_rels ~width view;
  check_lengths ~what:"of_pairs" ~width ~lineage_of:fst pairs;
  let nmasks = Subset.count n_rels in
  let y = Array.make nmasks 0.0 in
  let m = Array.length pairs in
  let grand = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 pairs in
  y.(Subset.empty) <- grand *. grand;
  if Metrics.enabled () then Metrics.add m_batch_pairs m;
  if nmasks > 1 && m > 0 then
    run_passes ?pool ~par_threshold ~n_pairs:m ~nmasks (fun lo hi ->
        let obs = Metrics.enabled () in
        let tbl = Inttbl.create ~hint:m in
        let sums = Array.make (Inttbl.capacity tbl) 0.0 in
        let pos = Array.make n_rels 0 in
        let npos = ref 0 in
        let equal i j =
          let li, _ = Array.unsafe_get pairs i in
          let lj, _ = Array.unsafe_get pairs j in
          masked_equal li lj pos !npos
        in
        for s = lo to hi - 1 do
          let t0 = if obs then Gus_obs.Trace.now_ns () else 0 in
          npos := fill_positions pos s;
          apply_view view pos !npos;
          Inttbl.reset tbl ~hint:m;
          for i = 0 to m - 1 do
            let l, f = Array.unsafe_get pairs i in
            let slot =
              Inttbl.find_or_add tbl ~hash:(masked_hash l pos !npos) ~equal
                ~repr:i
            in
            if Inttbl.added tbl then Array.unsafe_set sums slot f
            else
              Array.unsafe_set sums slot (Array.unsafe_get sums slot +. f)
          done;
          let acc = ref 0.0 in
          Inttbl.iter tbl (fun slot _ ->
              let v = Array.unsafe_get sums slot in
              acc := !acc +. (v *. v));
          y.(s) <- !acc;
          if obs then
            Metrics.observe m_pass_us
              (float_of_int (Gus_obs.Trace.now_ns () - t0) /. 1e3)
        done);
  y

let bilinear_of_pairs ?pool ?(par_threshold = default_par_threshold) ?view
    ?lineage_width ~n_rels pairs =
  let width = Option.value lineage_width ~default:n_rels in
  check_view ~what:"bilinear_of_pairs" ~n_rels ~width view;
  check_lengths ~what:"bilinear_of_pairs" ~width
    ~lineage_of:(fun (l, _, _) -> l)
    pairs;
  let nmasks = Subset.count n_rels in
  let y = Array.make nmasks 0.0 in
  let m = Array.length pairs in
  let grand_f = Array.fold_left (fun acc (_, f, _) -> acc +. f) 0.0 pairs in
  let grand_g = Array.fold_left (fun acc (_, _, g) -> acc +. g) 0.0 pairs in
  y.(Subset.empty) <- grand_f *. grand_g;
  if Metrics.enabled () then Metrics.add m_batch_pairs m;
  if nmasks > 1 && m > 0 then
    run_passes ?pool ~par_threshold ~n_pairs:m ~nmasks (fun lo hi ->
        let obs = Metrics.enabled () in
        let tbl = Inttbl.create ~hint:m in
        let sums_f = Array.make (Inttbl.capacity tbl) 0.0 in
        let sums_g = Array.make (Inttbl.capacity tbl) 0.0 in
        let pos = Array.make n_rels 0 in
        let npos = ref 0 in
        let equal i j =
          let li, _, _ = Array.unsafe_get pairs i in
          let lj, _, _ = Array.unsafe_get pairs j in
          masked_equal li lj pos !npos
        in
        for s = lo to hi - 1 do
          let t0 = if obs then Gus_obs.Trace.now_ns () else 0 in
          npos := fill_positions pos s;
          apply_view view pos !npos;
          Inttbl.reset tbl ~hint:m;
          for i = 0 to m - 1 do
            let l, f, g = Array.unsafe_get pairs i in
            let slot =
              Inttbl.find_or_add tbl ~hash:(masked_hash l pos !npos) ~equal
                ~repr:i
            in
            if Inttbl.added tbl then begin
              Array.unsafe_set sums_f slot f;
              Array.unsafe_set sums_g slot g
            end
            else begin
              Array.unsafe_set sums_f slot (Array.unsafe_get sums_f slot +. f);
              Array.unsafe_set sums_g slot (Array.unsafe_get sums_g slot +. g)
            end
          done;
          let acc = ref 0.0 in
          Inttbl.iter tbl (fun slot _ ->
              acc :=
                !acc
                +. (Array.unsafe_get sums_f slot *. Array.unsafe_get sums_g slot));
          y.(s) <- !acc;
          if obs then
            Metrics.observe m_pass_us
              (float_of_int (Gus_obs.Trace.now_ns () - t0) /. 1e3)
        done);
  y

(* ------------------------------------------------------------------ *)
(* Streaming accumulator.

   [Acc.t] is the mergeable partial state of {!of_pairs}: one group table
   per non-empty subset mask, keyed on the lineage restricted to the mask,
   holding each group's running Σf.  Tuples are folded in one at a time
   ({!Acc.add}), so estimation-only pipelines never materialize a
   [(lineage, f)] pairs array; independent partial accumulators (per
   stream chunk, per pool lane) combine with {!Acc.merge} because the
   group tables are disjoint-key mergeable: groups with equal restricted
   lineage add their sums, all others union.

   Each mask's table is the same Inttbl-backed open-addressing scratch as
   the batch kernel, except the representative is a dense *group index*
   into a flat restricted-key store (the batch kernel can point at the
   pairs array; a stream has nothing to point back into).  Probing hashes
   the incoming lineage under the mask in place — a restricted key array
   is copied out only when a new group is born, so memory is bounded by
   the number of distinct groups, not the number of tuples, and the
   steady-state [add] allocates nothing. *)

module Acc = struct
  type group = {
    pos : int array;  (* element positions of this mask *)
    npos : int;
    tbl : Inttbl.t;
    mutable keys : int array;  (* flat store: [npos] ints per group *)
    mutable sums : float array;  (* per-group running Σf *)
    mutable ngroups : int;
    (* Probe cursors: [equal_lineage]/[equal_key] are allocated once per
       group table and read whichever cursor the caller set, so the hot
       path passes no fresh closures to [find_or_add]. *)
    mutable cur_lineage : int array;
    mutable cur_key : int array;
    mutable cur_base : int;
    equal_lineage : int -> int -> bool;
    equal_key : int -> int -> bool;
  }

  type t = {
    n_rels : int;
    width : int;  (* expected lineage length; = n_rels without a view *)
    view : int array option;
    nmasks : int;
    groups : group array;  (* groups.(s - 1) handles mask s *)
    mutable count : int;
    mutable total : float;
  }

  let never_equal _ _ = false

  let make_group ~view ~hint s =
    let npos = Subset.cardinal s in
    let pos = Array.make (max 1 npos) 0 in
    let filled = fill_positions pos s in
    apply_view view pos filled;
    let cap = max 16 hint in
    let rec g =
      { pos;
        npos;
        tbl = Inttbl.create ~hint;
        keys = Array.make (cap * npos) 0;
        sums = Array.make cap 0.0;
        ngroups = 0;
        cur_lineage = [||];
        cur_key = [||];
        cur_base = 0;
        equal_lineage =
          (fun stored _ ->
            let base = stored * g.npos in
            let rec go k =
              k >= g.npos
              || Array.unsafe_get g.keys (base + k)
                 = Array.unsafe_get g.cur_lineage (Array.unsafe_get g.pos k)
                 && go (k + 1)
            in
            go 0);
        equal_key =
          (fun stored _ ->
            let base = stored * g.npos in
            let rec go k =
              k >= g.npos
              || Array.unsafe_get g.keys (base + k)
                 = Array.unsafe_get g.cur_key (g.cur_base + k)
                 && go (k + 1)
            in
            go 0) }
    in
    g

  let create ?(hint = 64) ?view ?lineage_width ~n_rels () =
    let width = Option.value lineage_width ~default:n_rels in
    check_view ~what:"Acc.create" ~n_rels ~width view;
    let nmasks = Subset.count n_rels in
    { n_rels;
      width;
      view;
      nmasks;
      groups =
        Array.init (nmasks - 1) (fun i -> make_group ~view ~hint (i + 1));
      count = 0;
      total = 0.0 }

  let count t = t.count
  let total t = t.total
  let n_rels t = t.n_rels

  (* Hash of stored group [r] — the same fold as {!masked_hash} over the
     same values in the same order, so rehashing preserves probe homes. *)
  let key_hash g r =
    let base = r * g.npos in
    let h = ref 0x9E3779B97F4A7C1 in
    for k = 0 to g.npos - 1 do
      h := mix !h (Array.unsafe_get g.keys (base + k))
    done;
    !h land max_int

  let rehash g =
    Inttbl.reset g.tbl ~hint:(max 16 (2 * g.ngroups));
    for r = 0 to g.ngroups - 1 do
      ignore (Inttbl.find_or_add g.tbl ~hash:(key_hash g r) ~equal:never_equal ~repr:r)
    done

  let[@inline] maybe_grow g =
    if 2 * (Inttbl.size g.tbl + 1) > Inttbl.capacity g.tbl then rehash g

  let ensure_group_room g =
    if g.ngroups = Array.length g.sums then begin
      let cap = 2 * g.ngroups in
      let keys = Array.make (cap * g.npos) 0 in
      Array.blit g.keys 0 keys 0 (g.ngroups * g.npos);
      g.keys <- keys;
      let sums = Array.make cap 0.0 in
      Array.blit g.sums 0 sums 0 g.ngroups;
      g.sums <- sums
    end

  let insert_group g f copy_key =
    ensure_group_room g;
    copy_key (g.ngroups * g.npos);
    g.sums.(g.ngroups) <- f;
    g.ngroups <- g.ngroups + 1

  let add t lineage f =
    if Array.length lineage <> t.width then
      invalid_arg "Moments.Acc.add: lineage length mismatch";
    Metrics.incr m_acc_tuples;
    t.count <- t.count + 1;
    t.total <- t.total +. f;
    for s = 1 to t.nmasks - 1 do
      let g = t.groups.(s - 1) in
      maybe_grow g;
      g.cur_lineage <- lineage;
      let h = masked_hash lineage g.pos g.npos in
      let slot =
        Inttbl.find_or_add g.tbl ~hash:h ~equal:g.equal_lineage ~repr:g.ngroups
      in
      if Inttbl.added g.tbl then
        insert_group g f (fun base ->
            for k = 0 to g.npos - 1 do
              g.keys.(base + k) <- lineage.(g.pos.(k))
            done)
      else begin
        let r = Inttbl.repr_at g.tbl slot in
        g.sums.(r) <- g.sums.(r) +. f
      end
    done

  let add_pairs t pairs = Array.iter (fun (l, f) -> add t l f) pairs

  let merge a b =
    if a.n_rels <> b.n_rels then
      invalid_arg "Moments.Acc.merge: relation count mismatch";
    if a.view <> b.view then
      invalid_arg "Moments.Acc.merge: view mismatch";
    a.count <- a.count + b.count;
    a.total <- a.total +. b.total;
    for s = 1 to a.nmasks - 1 do
      let ga = a.groups.(s - 1) and gb = b.groups.(s - 1) in
      for r = 0 to gb.ngroups - 1 do
        let base = r * gb.npos in
        maybe_grow ga;
        ga.cur_key <- gb.keys;
        ga.cur_base <- base;
        let h = key_hash gb r in
        let slot =
          Inttbl.find_or_add ga.tbl ~hash:h ~equal:ga.equal_key ~repr:ga.ngroups
        in
        if Inttbl.added ga.tbl then
          insert_group ga gb.sums.(r) (fun dst ->
              Array.blit gb.keys base ga.keys dst ga.npos)
        else begin
          let ra = Inttbl.repr_at ga.tbl slot in
          ga.sums.(ra) <- ga.sums.(ra) +. gb.sums.(r)
        end
      done
    done

  let finalize ?pool t =
    let y = Array.make t.nmasks 0.0 in
    y.(Subset.empty) <- t.total *. t.total;
    if t.nmasks > 1 then begin
      let body lo hi =
        for s = lo to hi - 1 do
          let g = t.groups.(s - 1) in
          let acc = ref 0.0 in
          for r = 0 to g.ngroups - 1 do
            let v = Array.unsafe_get g.sums r in
            acc := !acc +. (v *. v)
          done;
          y.(s) <- !acc
        done
      in
      match pool with
      | Some p when Pool.size p > 1 && t.nmasks > 2 ->
          Pool.run_chunks p ~lo:1 ~hi:t.nmasks body
      | _ -> body 1 t.nmasks
    end;
    y
end

let triples_of_relation ~f ~g rel =
  let ef = Expr.bind_float rel.Relation.schema f in
  let eg = Expr.bind_float rel.Relation.schema g in
  let out = Array.make (Relation.cardinality rel) ([||], 0.0, 0.0) in
  let i = ref 0 in
  Relation.iter
    (fun tup ->
      out.(!i) <- (tup.Tuple.lineage, ef tup, eg tup);
      incr i)
    rel;
  if Metrics.enabled () then
    Metrics.add m_materialized (Relation.cardinality rel);
  out

let pairs_of_relation ~f rel =
  let eval = Expr.bind_float rel.Relation.schema f in
  let out = Array.make (Relation.cardinality rel) ([||], 0.0) in
  let i = ref 0 in
  Relation.iter
    (fun tup ->
      out.(!i) <- (tup.Tuple.lineage, eval tup);
      incr i)
    rel;
  if Metrics.enabled () then
    Metrics.add m_materialized (Relation.cardinality rel);
  out

let of_relation ?pool ~f rel =
  of_pairs ?pool
    ~n_rels:(Array.length rel.Relation.lineage_schema)
    (pairs_of_relation ~f rel)

let total pairs = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 pairs
