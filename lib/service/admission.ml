(* Admission control for the concurrent server: a thread-safe in-flight
   counter plus a ring of recent request latencies, combined into one
   overload factor that decides Admit / Shed / reject per request.

   The shape of the policy is the paper's Section-8 load shedding
   transplanted from stream windows to a request server: when the server
   cannot keep up, do NOT queue (latency explodes) and do NOT drop
   requests silently — answer every request from a smaller sample whose
   per-relation rates are chosen by Shedding.optimize_rates to minimize
   the estimate's variance under the reduced budget.  The response is
   still SOA-sound: an honest estimate with an honestly wider CI.

   Thread model: [enter] runs on connection reader threads (so queued
   work counts as in flight and backpressure starts at enqueue time, not
   at execution time); [leave] runs wherever the response finished.  All
   state is behind one mutex — these are tiny critical sections next to
   query execution. *)

module Metrics = Gus_obs.Metrics

let m_shed = Metrics.counter "shed.decisions"
let m_rejected = Metrics.counter "shed.rejected"
let m_admitted = Metrics.counter "shed.admitted"
let g_inflight = Metrics.gauge "shed.inflight"
let g_overload = Metrics.gauge "shed.overload"

type decision = Admit | Shed of float

type t = {
  max_inflight : int;
  session_inflight : int;
  shed_start : int option;
  slo_p99_ms : float option;
  fixed_overload : float option;
  lock : Mutex.t;
  mutable inflight : int;
  lat_ms : float array; (* ring of recent end-to-end latencies *)
  mutable lat_n : int; (* total observed (ring holds min lat_n cap) *)
}

type ticket = { t0_ns : int }

let lat_cap = 256

let create ?(max_inflight = 64) ?(session_inflight = 8) ?shed_start
    ?slo_p99_ms ?fixed_overload () =
  if max_inflight < 1 then invalid_arg "Admission.create: max_inflight < 1";
  if session_inflight < 1 then
    invalid_arg "Admission.create: session_inflight < 1";
  (match shed_start with
  | Some s when s < 1 -> invalid_arg "Admission.create: shed_start < 1"
  | _ -> ());
  { max_inflight;
    session_inflight;
    shed_start;
    slo_p99_ms;
    fixed_overload;
    lock = Mutex.create ();
    inflight = 0;
    lat_ms = Array.make lat_cap 0.0;
    lat_n = 0 }

let max_inflight t = t.max_inflight
let session_inflight t = t.session_inflight
let inflight t = Mutex.protect t.lock (fun () -> t.inflight)

(* p99 over the ring, by sorting a copy — at most 256 floats, and only
   computed when latency-based shedding is configured. *)
let p99_locked t =
  let n = min t.lat_n lat_cap in
  if n < 8 then None (* too few samples to call it a percentile *)
  else begin
    let a = Array.sub t.lat_ms 0 n in
    Array.sort compare a;
    Some a.(min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
  end

let p99_ms t = Mutex.protect t.lock (fun () -> p99_locked t)

(* Overload factor: how far past sustainable the server is, >= 1 means
   at or past the shed threshold.  The max of the configured signals —
   queue depth relative to [shed_start] and recent p99 relative to the
   latency SLO — capped so a latency spike cannot drive capacity to
   zero. *)
let overload_cap = 16.0

let overload_locked t =
  match t.fixed_overload with
  | Some f -> f
  | None ->
      let inflight_factor =
        match t.shed_start with
        | Some s -> float_of_int t.inflight /. float_of_int s
        | None -> 0.0
      in
      let latency_factor =
        match (t.slo_p99_ms, p99_locked t) with
        | Some slo, Some p99 when slo > 0.0 -> p99 /. slo
        | _ -> 0.0
      in
      Float.min overload_cap (Float.max inflight_factor latency_factor)

let overload t = Mutex.protect t.lock (fun () -> overload_locked t)

let enter t =
  Mutex.protect t.lock (fun () ->
      if t.inflight >= t.max_inflight then begin
        Metrics.incr m_rejected;
        Error
          (Printf.sprintf "server at max in-flight (%d)" t.max_inflight)
      end
      else begin
        t.inflight <- t.inflight + 1;
        Metrics.set_gauge g_inflight (float_of_int t.inflight);
        let f = overload_locked t in
        Metrics.set_gauge g_overload f;
        let d =
          if f > 1.0 then begin
            Metrics.incr m_shed;
            Shed f
          end
          else begin
            Metrics.incr m_admitted;
            Admit
          end
        in
        Ok ({ t0_ns = Gus_obs.Trace.now_ns () }, d)
      end)

let leave t ticket =
  let ms = float_of_int (Gus_obs.Trace.now_ns () - ticket.t0_ns) /. 1e6 in
  Mutex.protect t.lock (fun () ->
      t.inflight <- max 0 (t.inflight - 1);
      Metrics.set_gauge g_inflight (float_of_int t.inflight);
      t.lat_ms.(t.lat_n mod lat_cap) <- ms;
      t.lat_n <- t.lat_n + 1)

(* ---- Section-8 rate selection for one shed execution ----

   The prepared plan samples relations [current = (rel, q_rel)] at
   effective rates q (Prepared.sampling_rates); its sustainable cost is
   sum_i C_i * q_i sampled tuples.  Under overload f we grant this
   execution a budget of (cost / f) and re-split it across the sampled
   relations with the paper's variance-minimizing grid search, seeded
   with the previous execution's Y-hat moments.  Those span the previous
   report's design — the plan's live relations — so the candidate
   designs are built over exactly those relations.  Without moments
   (first execution of a handle), or past the 3-stream exhaustive-search
   limit, fall back to the proportional split — still SOA-sound, just
   not variance-optimal. *)

module Shedding = Gus_online.Shedding

let min_rate = 1e-6

let shed_rates ~overload ~card ~current ?y () =
  if current = [] then [] (* nothing sampled: nothing to degrade *)
  else begin
    let arrivals = List.map (fun (rel, _) -> (rel, card rel)) current in
    let cost =
      List.fold_left2
        (fun acc (_, n) (_, q) -> acc +. (float_of_int n *. q))
        0.0 arrivals current
    in
    let f = Float.max 1.0 overload in
    let capacity = max 1 (int_of_float (cost /. f)) in
    let k = List.length current in
    let rates =
      match y with
      | Some (rels, y) when k >= 1 && k <= 3 ->
          fst
            (Shedding.optimize_rates
               ~gus_of:(Shedding.gus_of_rates rels)
               ~y ~arrivals ~capacity ())
      | _ -> Shedding.proportional_rates ~arrivals ~capacity
    in
    (* Clamp: a zero rate would turn the relation's a-value to 0 and
       fail the soundness lint; shedding must degrade, never destroy. *)
    List.map
      (fun (rel, r) -> (rel, Float.max min_rate (Float.min 1.0 r)))
      rates
  end
