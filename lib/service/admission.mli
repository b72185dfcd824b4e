(** Admission control for the concurrent server: bounded in-flight
    accounting plus paper-native load shedding (Section 8).

    Every request passes {!enter} {e when it is read off its
    connection} — queued work counts as in flight, so backpressure
    starts at enqueue time — and {!leave} when its response is written.
    The controller combines queue depth (relative to [shed_start]) and
    recent p99 latency (relative to [slo_p99_ms]) into one {e overload
    factor}; past 1.0 it stops queueing politely and starts shedding:
    the request is still answered, but from a smaller sample whose
    per-relation rates {!shed_rates} picks with
    {!Gus_online.Shedding.optimize_rates} — minimum-variance under the
    reduced budget, honestly wider CI.  Only the hard [max_inflight]
    cap rejects outright ([overloaded] protocol error).

    Thread-safe: one mutex over tiny critical sections.  Exports
    [shed.decisions] / [shed.admitted] / [shed.rejected] counters and
    [shed.inflight] / [shed.overload] gauges. *)

type t

type ticket
(** In-flight token; carries the enter timestamp so {!leave} records
    end-to-end latency (queue wait included). *)

type decision =
  | Admit
  | Shed of float
      (** answer from a degraded sample; the payload is the overload
          factor (> 1) to derive the budget from *)

val create :
  ?max_inflight:int ->
  ?session_inflight:int ->
  ?shed_start:int ->
  ?slo_p99_ms:float ->
  ?fixed_overload:float ->
  unit ->
  t
(** [max_inflight] (default 64): hard cap, beyond which {!enter}
    rejects.  [session_inflight] (default 8): per-connection queue bound
    the {!Server} reads from here.  [shed_start]: in-flight depth at
    which the overload factor reaches 1 (absent: no queue-depth
    shedding).  [slo_p99_ms]: latency target; recent p99 above it also
    drives overload (absent: no latency shedding).  [fixed_overload]
    pins the factor for tests, cram transcripts, and demos
    ([gusdb serve --force-shed]). *)

val max_inflight : t -> int
val session_inflight : t -> int
val inflight : t -> int

val enter : t -> (ticket * decision, string) result
(** [Error message] when the hard cap is hit (the caller renders the
    [overloaded] protocol error); otherwise increments in-flight and
    decides.  Call at request-receive time, before any queueing. *)

val leave : t -> ticket -> unit
(** Decrement in-flight and record the ticket's end-to-end latency into
    the p99 window.  Must be called exactly once per [Ok] ticket. *)

val overload : t -> float
(** The current overload factor (0 when no signal is configured;
    capped at 16 so a spike cannot drive shed budgets to zero). *)

val p99_ms : t -> float option
(** p99 over the recent-latency ring; [None] until it holds at least 8
    samples. *)

val shed_rates :
  overload:float ->
  card:(string -> int) ->
  current:(string * float) list ->
  ?y:string list * float array ->
  unit ->
  (string * float) list
(** Section-8 rate selection for one shed execution.  [current] is the
    plan's sampled base relations with their effective rates
    ({!Prepared.sampling_rates}); the sustainable cost
    [Σ cardᵢ·qᵢ] is divided by [overload] to get this execution's
    budget, then split across the relations by
    {!Gus_online.Shedding.optimize_rates} (variance-minimizing, using
    the [y = (rels, ŷ)] moments from the handle's previous execution,
    indexed by subset masks over [rels] — its report's design, which
    spans the plan's live relations in lineage order) — or
    {!Gus_online.Shedding.proportional_rates} when no moments are
    available yet or more than 3 relations are sampled.
    Rates are clamped to [[1e-6, 1]] — shedding degrades, never
    destroys.  Returns [[]] when the plan samples nothing (exact plans
    cannot shed). *)
