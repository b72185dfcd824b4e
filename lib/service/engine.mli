(** The serving engine: catalog + estimate cache + batch scheduler +
    telemetry, shared by every {!Session}.

    One engine instance is long-lived server state (the [gusdb serve]
    loop owns exactly one).  It keeps no handle namespace: callers pass
    resolved {!Prepared.t} handles, and each {!Session} scopes its own
    names to one connection.  Every execution, single or batched, runs
    {!batch_prepared}'s three phases; driving-thread state — handle
    refreshes, the LRU {!Cache}, the journal — is touched only in phases
    1 and 3, while phase 2 runs plans against immutable snapshots.

    {b Cache key.}  [dataset NUL version NUL sql NUL canonical-params],
    where canonical-params is ["seed=<n>;exact=<b>;rates=<rel>:<rate>,…"]
    with rates sorted by relation name and printed in shortest
    round-trip form — equal keys imply bit-identical responses (see
    {!Gus_sql.Runner.execute}).  Registering or removing a dataset drops
    the name's entries via a {!Catalog.on_mutate} hook (the version in
    the key already makes stale entries unreachable; eager dropping
    frees capacity).  Explained executions bypass the cache entirely —
    their per-node timings are measurements, not query semantics. *)

type t

val create :
  ?cache_capacity:int ->
  ?pool:Gus_util.Pool.t ->
  ?journal:Gus_obs.Journal.t ->
  ?slo:Gus_obs.Journal.slo ->
  ?on_breach:(string -> unit) ->
  unit ->
  t
(** [cache_capacity] defaults to 128 responses.  [pool] (shared, not
    owned: the engine never shuts it down) spreads the cache misses of
    one {!batch_prepared} call over its lanes — a lone miss and
    everything inside one query run sequentially, so estimates never
    depend on lane count.

    [journal] turns on the flight recorder: one event per register and
    per executed item, recorded on the driving thread in phase 3, in
    submission order.  [slo]
    (default {!Gus_obs.Journal.no_slo}) marks journal events
    [breach:true] and bumps the [slo.breaches*] counters when a
    response's relative CI half-width or wall-clock exceeds the
    thresholds; [on_breach] receives a rate-limited (1/s) human-readable
    line per breach burst — the serve loop points it at stderr.  With
    all three absent, per-execution telemetry is a three-field check. *)

val catalog : t -> Catalog.t

val journal : t -> Gus_obs.Journal.t option
val slo : t -> Gus_obs.Journal.slo

val uptime_ns : t -> int
(** Nanoseconds since {!create} (monotonic clock). *)

val pool_size : t -> int
(** Lanes available to {!batch_prepared}: the pool's size, or 1 when
    unpooled. *)

val register : t -> name:string -> source:Catalog.source -> Catalog.entry
(** Build the dataset from its source description and (re)bind it —
    see {!Catalog.load}. *)

val register_db :
  t -> name:string -> source:Catalog.source -> Gus_relational.Database.t ->
  Catalog.entry

type outcome = {
  response : Gus_sql.Runner.response;
  cached : bool;  (** answered from the LRU without executing *)
  wall_ns : int;
      (** this item's own handle refresh and cache probe, plus its plan
          run on a miss *)
}

val batch_prepared :
  t ->
  (string * Prepared.t * Prepared.overrides) array ->
  (outcome, exn) result array
(** Execute [(label, handle, overrides)] items in three phases.
    Phase 1, on the calling thread in submission order: refresh each
    handle ({!Prepared.refresh}) and probe the cache.  Phase 2: run the
    misses through {!Scheduler.map} — across the pool's lanes when there
    are several, inline when there is one.  Phase 3, on the calling
    thread in submission order: fill the cache and journal each item.
    Results line up with the input array for any pool size; per-item
    failures are [Error], the call itself never raises.  [label] is the
    display name journaled and logged for the item. *)

val execute_prepared :
  t -> label:string -> Prepared.t -> Prepared.overrides -> outcome
(** {!batch_prepared} of one item.  Raises that item's error:
    {!Catalog.Unknown_dataset}, or the execution-time errors of
    {!Prepared.execute}. *)

val journal_stats : Gus_sql.Runner.response -> float * float * float
(** [(estimate, stddev, variance)] of a response as the journal records
    it and [gusdb replay] compares it: the first cell's estimate and
    stddev ([nan] under GROUP BY), and the SBox report's variance, or
    stddev² without one. *)

val cache_key : t -> Prepared.t -> Prepared.overrides -> string
(** The canonical key {!batch_prepared} uses (at the dataset's {e
    current} version); exposed for invalidation tests. *)

val cache_length : t -> int
val cache_capacity : t -> int
