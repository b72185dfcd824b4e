(** Workload-level linting: run the static analyzer over a directory of
    SQL files and aggregate everything into one machine-readable report —
    the [gusdb lint-workload <dir>] backend and the CI regression gate.

    The corpus is every [*.sql] file under the directory (recursively),
    in sorted path order; a file may hold several ';'-terminated
    statements ('--' starts a line comment).  Queries that fail to parse
    or plan are reported as [unparsable] entries rather than aborting the
    sweep. *)

type outcome =
  | Linted of Gus_analysis.Lint.report
  | Unparsable of string  (** parse/plan failure message *)

type entry = {
  file : string;  (** path relative to the corpus root *)
  query_index : int;  (** 0-based statement index within the file *)
  sql : string;
  outcome : outcome;
}

type report = {
  dir : string;
  files : int;
  entries : entry list;
}

val run :
  ?config:Gus_analysis.Lint.config ->
  Gus_relational.Database.t ->
  string ->
  report
(** [run db dir] lints every statement of every [*.sql] file under
    [dir] against [db]'s cardinalities.  Raises [Sys_error] if [dir]
    does not exist. *)

val errors : report -> int
(** Total error-severity findings across the workload. *)

val unparsable : report -> int

val exit_code : report -> int
(** Stable CI contract: [0] — every query parsed and linted free of
    error-severity findings; [1] — at least one error finding or
    unparsable query.  (The CLI reserves [124] for a missing corpus
    directory.) *)

val to_json : report -> Json.t
(** The aggregated report: totals by severity, a [by_code] histogram of
    every [GUSxxx] raised, and one entry per query with its diagnostics
    (including attached fixes) and, when analyzable, the static
    cost/variance analysis.  Round-trips through {!Json.of_string}. *)

val diagnostic_json : Gus_analysis.Diagnostic.t -> Json.t
(** Shared with the serving protocol's prepare/lint responses. *)

val analysis_json : Gus_analysis.Lint.analysis -> Json.t
(** The static-analysis summary object ([a], GUS class, pass counts,
    predicted cost, variance bound) attached to prepare responses. *)

val severity_label : Gus_analysis.Lint.report -> string
(** ["error"], ["warning"], ["hint"] — the worst severity present — or
    ["none"]. *)
