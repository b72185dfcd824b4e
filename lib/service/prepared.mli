(** Reusable prepared-query handles.

    {!prepare} runs parse → plan → lint {e exactly once} per SQL text
    (via {!Gus_sql.Runner.prepare}) against a catalog dataset and pins
    the dataset version it saw.  {!execute} then runs the handle any
    number of times with per-call {!overrides}; when the catalog entry
    has been re-registered since, the handle transparently re-prepares
    against the new snapshot first (counted in
    [service.repreparations]).

    Execution goes through the typed {!Gus_sql.Runner.execute}, the
    same route as the one-shot CLI, so a served answer is bit-identical
    to [gusdb query] on the same (dataset, sql, seed).  Execution is
    sequential, so results never depend on the server's lane count. *)

type t

val prepare :
  ?lint_config:Gus_analysis.Lint.config ->
  Catalog.t ->
  dataset:string ->
  string ->
  t
(** Raises {!Catalog.Unknown_dataset}, or the parse/plan errors of
    {!Gus_sql.Runner.prepare}.  Lint findings (including errors) do not
    raise here — they are reported on the handle and only fail at
    {!execute} time. *)

val dataset : t -> string
val sql : t -> string
val version : t -> int
(** Catalog version the current plan was prepared against. *)

val handle : t -> Gus_sql.Runner.prepared
(** The underlying parse/plan/lint artifact (current as of the last
    {!prepare}/{!execute}). *)

type overrides = {
  seed : int;
  rates : (string * float) list;
      (** per-relation sampling-rate overrides, applied to the [Sample]
          node over each named base relation: Bernoulli / hash-Bernoulli /
          block keep-probability is replaced outright; WOR/WR sizes are
          set to [rate × base cardinality].  A rate for a relation the
          plan does not sample is an [Invalid_argument]. *)
  explain : bool;
  exact : bool;
}

val default_overrides : overrides
(** [{ seed = 42; rates = []; explain = false; exact = false }]. *)

val refresh : Catalog.t -> t -> Catalog.entry
(** Re-prepare against the current snapshot if the catalog entry was
    re-registered since; otherwise a no-op returning the entry.  This is
    the only mutation on a handle — the engine calls it on the driving
    thread before fanning a batch out, so pool lanes only ever read.
    Raises {!Catalog.Unknown_dataset} if the dataset was dropped. *)

val execute : Catalog.t -> t -> overrides -> Gus_sql.Runner.response
(** Raises {!Catalog.Unknown_dataset} if the dataset was dropped,
    [Rewrite.Unsupported] when the (possibly rate-overridden) plan lints
    with errors, [Invalid_argument] on bad rate overrides.  Deterministic
    in [(dataset version, sql, overrides)]. *)

val override_rates :
  card:(string -> int) ->
  (string * float) list ->
  Gus_core.Splan.t ->
  Gus_core.Splan.t
(** The plan rewrite behind [overrides.rates]; exposed for tests. *)

val sampling_rates :
  card:(string -> int) -> Gus_core.Splan.t -> (string * float) list
(** Effective first-order inclusion rate per sampled base relation,
    sorted by name: Bernoulli / hash-Bernoulli / block report their keep
    probability, WOR/WR report [size / base cardinality], and stacked
    samplers over one relation multiply (a-values compose, Prop. 4).
    Telemetry provenance for the serving journal — advisory, not a
    replay input. *)
