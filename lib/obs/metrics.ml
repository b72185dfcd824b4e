let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* The instrument registries are only mutated by [counter]/[gauge]/
   [histogram], which instrumented modules call at init time (before
   domains spawn) — so a plain Hashtbl under a mutex is plenty.  Updates
   to the instruments themselves are Atomic and lock-free. *)

let registry_mu = Mutex.create ()

type counter = int Atomic.t

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.lock registry_mu;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters name c;
        c
  in
  Mutex.unlock registry_mu;
  c

let incr c = if !enabled_flag then Atomic.incr c
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

type gauge = float Atomic.t

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  Mutex.lock registry_mu;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
        let g = Atomic.make 0. in
        Hashtbl.add gauges name g;
        g
  in
  Mutex.unlock registry_mu;
  g

let set_gauge g v = if !enabled_flag then Atomic.set g v
let gauge_value g = Atomic.get g

type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  buckets : int Atomic.t array; (* per-bound hits; last extra = +inf *)
  hcount : int Atomic.t;
  hsum : float Atomic.t;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let default_buckets =
  Array.init 21 (fun i -> float_of_int (1 lsl i)) (* 1 .. 2^20 *)

let histogram ?buckets name =
  Mutex.lock registry_mu;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
        let bounds =
          match buckets with None -> default_buckets | Some b -> b
        in
        Array.iteri
          (fun i b ->
            if i > 0 && b <= bounds.(i - 1) then
              invalid_arg
                (Printf.sprintf "Metrics.histogram %s: buckets not increasing"
                   name))
          bounds;
        let h =
          { bounds;
            buckets =
              Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            hcount = Atomic.make 0;
            hsum = Atomic.make 0. }
        in
        Hashtbl.add histograms name h;
        h
  in
  Mutex.unlock registry_mu;
  h

let atomic_add_float a v =
  let rec loop () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. v)) then loop ()
  in
  loop ()

let bucket_index h v =
  (* Binary search for the first bound with [v <= le]. *)
  let n = Array.length h.bounds in
  if n = 0 || v > h.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  if !enabled_flag then begin
    Atomic.incr h.buckets.(bucket_index h v);
    Atomic.incr h.hcount;
    atomic_add_float h.hsum v
  end

let observe_counts h counts ~sum =
  if !enabled_flag then begin
    if Array.length counts <> Array.length h.buckets then
      invalid_arg "Metrics.observe_counts: bucket count mismatch";
    let total = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          ignore (Atomic.fetch_and_add h.buckets.(i) c);
          total := !total + c
        end)
      counts;
    if !total > 0 then begin
      ignore (Atomic.fetch_and_add h.hcount !total);
      atomic_add_float h.hsum sum
    end
  end

let histogram_count h = Atomic.get h.hcount
let histogram_sum h = Atomic.get h.hsum

let bucket_counts h =
  let cum = ref 0 in
  let per_bound =
    Array.to_list
      (Array.mapi
         (fun i le ->
           cum := !cum + Atomic.get h.buckets.(i);
           (le, !cum))
         h.bounds)
  in
  per_bound @ [ (infinity, Atomic.get h.hcount) ]

let quantile h q =
  let count = Atomic.get h.hcount in
  if count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int count in
    let n = Array.length h.bounds in
    (* First finite bucket whose cumulative count reaches [rank]. *)
    let rec find i cum =
      if i >= n then None
      else
        let cum' = cum + Atomic.get h.buckets.(i) in
        if cum' > 0 && float_of_int cum' >= rank then Some (i, cum, cum')
        else find (i + 1) cum'
    in
    match find 0 0 with
    | None ->
        (* The rank falls in the +inf overflow bucket; the histogram only
           knows the value exceeds the largest finite bound, so report
           that bound (the Prometheus convention) rather than inf. *)
        if n = 0 then Float.nan else h.bounds.(n - 1)
    | Some (i, below, cum) ->
        let hi = h.bounds.(i) in
        let lo =
          if i > 0 then h.bounds.(i - 1) else if hi > 0. then 0. else hi
        in
        let in_bucket = float_of_int (cum - below) in
        let pos = Float.max 0. (rank -. float_of_int below) in
        lo +. ((hi -. lo) *. pos /. in_bucket)
  end

let sorted_values tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let float_json v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let all_counters () =
  Mutex.lock registry_mu;
  let cs = sorted_values counters in
  Mutex.unlock registry_mu;
  cs

let all_gauges () =
  Mutex.lock registry_mu;
  let gs = sorted_values gauges in
  Mutex.unlock registry_mu;
  gs

let all_histograms () =
  Mutex.lock registry_mu;
  let hs = sorted_values histograms in
  Mutex.unlock registry_mu;
  hs

let snapshot () =
  Mutex.lock registry_mu;
  let cs = sorted_values counters in
  let gs = sorted_values gauges in
  let hs = sorted_values histograms in
  Mutex.unlock registry_mu;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i (name, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    \"%s\": %d" name (counter_value c)))
    cs;
  Buffer.add_string buf "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (name, g) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    \"%s\": %s" name (float_json (gauge_value g))))
    gs;
  Buffer.add_string buf "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    \"%s\": {\"count\": %d, \"sum\": %s, \"buckets\": ["
           name (histogram_count h)
           (float_json (histogram_sum h)));
      List.iteri
        (fun j (le, c) ->
          if j > 0 then Buffer.add_string buf ", ";
          let le_s =
            if le = infinity then "\"+inf\"" else float_json le
          in
          Buffer.add_string buf
            (Printf.sprintf "{\"le\": %s, \"count\": %d}" le_s c))
        (bucket_counts h);
      Buffer.add_string buf "]}")
    hs;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun b -> Atomic.set b 0) h.buckets;
      Atomic.set h.hcount 0;
      Atomic.set h.hsum 0.)
    histograms;
  Mutex.unlock registry_mu
