type t = {
  mutable hash : int array;
  mutable repr : int array;  (* representative; -1 = empty slot *)
  mutable id : int array;
  mutable mask : int;
  mutable size : int;
  mutable added : bool;
  probe_counts : int array;  (* probes per [inttbl.probe_len] bucket since the last flush *)
  mutable probe_sum : int;  (* their total length *)
}

let capacity_for hint =
  let target = max 16 (2 * max 0 hint) in
  let c = ref 16 in
  while !c < target do
    c := !c * 2
  done;
  !c

let m_probe_len_bounds = [| 1.; 2.; 3.; 4.; 6.; 8.; 16.; 32.; 64. |]
let overflow = Array.length m_probe_len_bounds
let max_len = int_of_float m_probe_len_bounds.(overflow - 1)

let create ~hint =
  let cap = capacity_for hint in
  { hash = Array.make cap 0;
    repr = Array.make cap (-1);
    id = Array.make cap 0;
    mask = cap - 1;
    size = 0;
    added = false;
    probe_counts = Array.make (overflow + 1) 0;
    probe_sum = 0 }

let added t = t.added

let m_rehashes = Gus_obs.Metrics.counter "inttbl.rehashes"

let m_probe_len =
  Gus_obs.Metrics.histogram ~buckets:m_probe_len_bounds "inttbl.probe_len"

(* The histogram bucket of a probe length [l <= max_len]; longer probes
   go to the [+inf] bucket. *)
let bucket_of_len =
  Array.init (max_len + 1) (fun l ->
      let rec find i =
        if float_of_int l <= m_probe_len_bounds.(i) then i else find (i + 1)
      in
      find 0)

(* Move every key, with its hash and id, into [cap] fresh slots. *)
let grow t cap =
  Gus_obs.Metrics.incr m_rehashes;
  let hash = t.hash and repr = t.repr and id = t.id in
  t.hash <- Array.make cap 0;
  t.repr <- Array.make cap (-1);
  t.id <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun s r ->
      if r >= 0 then begin
        let j = ref (hash.(s) land t.mask) in
        while t.repr.(!j) >= 0 do
          j := (!j + 1) land t.mask
        done;
        t.repr.(!j) <- r;
        t.hash.(!j) <- hash.(s);
        t.id.(!j) <- id.(s)
      end)
    repr

let reset t ~hint =
  Array.fill t.repr 0 (Array.length t.repr) (-1);
  t.size <- 0;
  let cap = capacity_for hint in
  if cap > Array.length t.repr then grow t cap

(* The probe loop is the hottest few instructions in the moments kernel.
   It counts each probe's length into the table's own buckets — plain
   stores, no flag check, no atomic — and {!flush_probes} hands the
   counts to the [inttbl.probe_len] histogram once per pass.  The growth
   check never fires for a caller whose [hint] bounds its keys. *)
let find_or_add t ~hash:h ~equal ~repr:i ~fresh =
  if 2 * (t.size + 1) > Array.length t.repr then grow t (2 * Array.length t.repr);
  let mask = t.mask in
  let hashes = t.hash and reprs = t.repr in
  let j = ref (h land mask) in
  let probes = ref 1 in
  while
    let r = Array.unsafe_get reprs !j in
    r >= 0 && not (Array.unsafe_get hashes !j = h && equal r i)
  do
    incr probes;
    j := (!j + 1) land mask
  done;
  let l = !probes in
  let b = if l <= max_len then Array.unsafe_get bucket_of_len l else overflow in
  Array.unsafe_set t.probe_counts b (Array.unsafe_get t.probe_counts b + 1);
  t.probe_sum <- t.probe_sum + l;
  let s = !j in
  if Array.unsafe_get reprs s < 0 then begin
    Array.unsafe_set reprs s i;
    Array.unsafe_set hashes s h;
    Array.unsafe_set t.id s fresh;
    t.size <- t.size + 1;
    t.added <- true;
    fresh
  end
  else begin
    t.added <- false;
    Array.unsafe_get t.id s
  end

let flush_probes t =
  Gus_obs.Metrics.observe_counts m_probe_len t.probe_counts
    ~sum:(float_of_int t.probe_sum);
  Array.fill t.probe_counts 0 (overflow + 1) 0;
  t.probe_sum <- 0
