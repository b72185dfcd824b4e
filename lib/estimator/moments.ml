module Subset = Gus_util.Subset
module Inttbl = Gus_util.Inttbl
module Metrics = Gus_obs.Metrics
open Gus_relational

(* Observability instruments.  Pass timings are per-mask (at most 2^n per
   finalize), tuple counts are one flag-checked call per [Acc.add] or per
   relation feed — nothing inside the per-tuple probe loops. *)
let m_pass_us = Metrics.histogram "moments.pass_us"
let m_acc_tuples = Metrics.counter "moments.acc.tuples"

(* {!Gus_util.Hashing.mix_int}, copied: the dev profile compiles with
   [-opaque], so calling it from here costs a call per id per mask, and a
   pass over 60k two-relation tuples ran about 5% slower that way.  Only
   collision *rate* depends on this — correctness rests on the masked
   equality check. *)
let[@inline] mix h k =
  let h = (h lxor k) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

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

(* ------------------------------------------------------------------ *)
(* The kernel.

   [Acc.t] is a flat per-tuple buffer: [n_rels] lineage ids and [k]
   values per tuple, row-major, grown by doubling.  [finalize] runs one
   group-by pass per non-empty subset mask over that buffer: each tuple's
   ids under the mask are hashed in place into a reused
   {!Gus_util.Inttbl} (representative = tuple index, collisions resolved
   by comparing the two tuples' masked ids), groups are numbered in
   first-seen order, each group's k sums are accumulated in row order,
   and y^{f_i f_j}_S is summed over the groups in first-seen order.  The
   summation order depends only on the rows and their order, never on
   the hash, so one sample gives one set of bits.  The scratch is
   allocated per [finalize] call: executions run on several domains at
   once. *)

module Acc = struct
  type t = {
    n_rels : int;
    k : int;
    mutable cap : int;  (* tuples the buffers hold *)
    mutable ids : int array;  (* [n_rels] ids per tuple *)
    mutable vals : float array;  (* [k] values per tuple *)
    mutable count : int;
    totals : float array;  (* Σ f_i in row order *)
  }

  let create ?(hint = 64) ?(k = 1) ~n_rels () =
    if n_rels < 0 || n_rels > Subset.max_universe then
      invalid_arg "Moments.Acc.create: too many relations";
    if k < 0 then invalid_arg "Moments.Acc.create: k < 0";
    let cap = max 16 hint in
    { n_rels;
      k;
      cap;
      ids = Array.make (cap * n_rels) 0;
      vals = Array.make (cap * k) 0.0;
      count = 0;
      totals = Array.make k 0.0 }

  let count t = t.count
  let total t i = t.totals.(i)

  (* Room for one more tuple. *)
  let reserve t =
    if t.count = t.cap then begin
      let cap = 2 * t.cap in
      t.cap <- cap;
      let ids = Array.make (cap * t.n_rels) 0 in
      Array.blit t.ids 0 ids 0 (t.count * t.n_rels);
      t.ids <- ids;
      let vals = Array.make (cap * t.k) 0.0 in
      Array.blit t.vals 0 vals 0 (t.count * t.k);
      t.vals <- vals
    end

  (* Copy one tuple's lineage into the buffer; its values follow with
     [set_value], then [count] moves past it. *)
  let push_lineage t lineage =
    if Array.length lineage <> t.n_rels then
      invalid_arg "Moments.Acc.add: lineage length mismatch";
    Metrics.incr m_acc_tuples;
    reserve t;
    let base = t.count * t.n_rels in
    for p = 0 to t.n_rels - 1 do
      t.ids.(base + p) <- lineage.(p)
    done

  let set_value t j v =
    t.vals.((t.count * t.k) + j) <- v;
    t.totals.(j) <- t.totals.(j) +. v

  let add_values t lineage values =
    if Array.length values <> t.k then
      invalid_arg "Moments.Acc.add_values: value count mismatch";
    push_lineage t lineage;
    Array.iteri (set_value t) values;
    t.count <- t.count + 1

  let add t lineage f =
    if t.k <> 1 then invalid_arg "Moments.Acc.add: k <> 1";
    push_lineage t lineage;
    set_value t 0 f;
    t.count <- t.count + 1

  let finalize t =
    let n = t.n_rels and k = t.k and m = t.count in
    let ids = t.ids and vals = t.vals in
    let nmasks = Subset.count n in
    (* y.(i).(j) and y.(j).(i) are one array. *)
    let y = Array.make_matrix k k [||] in
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        let v = Array.make nmasks 0.0 in
        v.(Subset.empty) <- t.totals.(i) *. t.totals.(j);
        y.(i).(j) <- v;
        y.(j).(i) <- v
      done
    done;
    if nmasks > 1 && m > 0 then begin
      let obs = Metrics.enabled () in
      let tbl = Inttbl.create ~hint:m in
      let sums = Array.make (m * k) 0.0 in
      let pos = Array.make n 0 in
      let npos = ref 0 in
      let equal a b =
        let ba = a * n and bb = b * n and np = !npos in
        let q = ref 0 in
        while
          !q < np
          &&
          let p = Array.unsafe_get pos !q in
          Array.unsafe_get ids (ba + p) = Array.unsafe_get ids (bb + p)
        do
          incr q
        done;
        !q = np
      in
      for s = 1 to nmasks - 1 do
        let t0 = if obs then Gus_obs.Trace.now_ns () else 0 in
        npos := fill_positions pos s;
        Inttbl.reset tbl ~hint:m;
        let ngroups = ref 0 in
        for r = 0 to m - 1 do
          let base = r * n in
          let h = ref 0x9E3779B97F4A7C1 in
          for q = 0 to !npos - 1 do
            h := mix !h (Array.unsafe_get ids (base + Array.unsafe_get pos q))
          done;
          let g =
            Inttbl.find_or_add tbl ~hash:(!h land max_int) ~equal ~repr:r
              ~fresh:!ngroups
          in
          let vb = r * k and gb = g * k in
          if Inttbl.added tbl then begin
            incr ngroups;
            for j = 0 to k - 1 do
              Array.unsafe_set sums (gb + j) (Array.unsafe_get vals (vb + j))
            done
          end
          else begin
            for j = 0 to k - 1 do
              Array.unsafe_set sums (gb + j)
                (Array.unsafe_get sums (gb + j) +. Array.unsafe_get vals (vb + j))
            done
          end
        done;
        for i = 0 to k - 1 do
          for j = i to k - 1 do
            let acc = ref 0.0 in
            for g = 0 to !ngroups - 1 do
              acc :=
                !acc
                +. (Array.unsafe_get sums ((g * k) + i)
                   *. Array.unsafe_get sums ((g * k) + j))
            done;
            y.(i).(j).(s) <- !acc
          done
        done;
        Inttbl.flush_probes tbl;
        if obs then
          Metrics.observe m_pass_us
            (float_of_int (Gus_obs.Trace.now_ns () - t0) /. 1e3)
      done
    end;
    y
end

(* ------------------------------------------------------------------ *)
(* The relation feed: lineage ids straight from the lineage columns, the
   values compiled over the data columns by {!Relation.bind_float}.  Each
   value is evaluated over every row before the next one, so a raise
   comes from the first failing expression in [fs] order.  A bare float
   column without NULLs and a float literal — what SUM, AVG and
   COUNT( * ) read — are copied in without [bind_float]'s closure, whose
   float result is boxed; they read the same values and never raise. *)

type source = Floats of Column.float_ba | Const of float | Eval of (int -> float)

let source rel f =
  let bare_floats =
    match f with
    | Expr.Col name -> (
        match Schema.find_index rel.Relation.schema name with
        | Some j ->
            let col = rel.Relation.cols.Relation.ccols.(j) in
            if Column.ty col = Value.TFloat && not (Column.has_nulls col) then
              Some (Column.float_data col)
            else None
        | None -> None)
    | _ -> None
  in
  match (f, bare_floats) with
  | Expr.Lit (Value.Float c), _ -> Const c
  | _, Some d -> Floats d
  | _, None -> Eval (Relation.bind_float rel f)

let feed ?rows ~slots ~fs rel =
  let n = Array.length slots and k = Array.length fs in
  let sources = Array.map (source rel) fs in
  let m, row =
    match rows with
    | None -> (Relation.cardinality rel, Fun.id)
    | Some r -> (Array.length r, Array.get r)
  in
  let acc = Acc.create ~hint:m ~k ~n_rels:n () in
  let ids = acc.Acc.ids and vals = acc.Acc.vals in
  Array.iteri
    (fun p slot ->
      match rel.Relation.cols.Relation.clineage with
      | Relation.Identity ->
          for i = 0 to m - 1 do
            Array.unsafe_set ids ((i * n) + p) (row i)
          done
      | Relation.Explicit ls ->
          let d = Column.int_data ls.(slot) in
          for i = 0 to m - 1 do
            Array.unsafe_set ids ((i * n) + p) (Bigarray.Array1.get d (row i))
          done)
    slots;
  Array.iteri
    (fun j src ->
      let total = ref 0.0 in
      (match src with
      | Floats d ->
          for i = 0 to m - 1 do
            let v = Bigarray.Array1.get d (row i) in
            Array.unsafe_set vals ((i * k) + j) v;
            total := !total +. v
          done
      | Const v ->
          for i = 0 to m - 1 do
            Array.unsafe_set vals ((i * k) + j) v;
            total := !total +. v
          done
      | Eval eval ->
          for i = 0 to m - 1 do
            let v = eval (row i) in
            Array.unsafe_set vals ((i * k) + j) v;
            total := !total +. v
          done);
      acc.Acc.totals.(j) <- !total)
    sources;
  acc.Acc.count <- m;
  Metrics.add m_acc_tuples m;
  acc

let of_relation ~f rel =
  let slots = Array.init (Array.length rel.Relation.lineage_schema) Fun.id in
  (Acc.finalize (feed ~slots ~fs:[| f |] rel)).(0).(0)
