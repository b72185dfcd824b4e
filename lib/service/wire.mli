(** The wire layer of the NDJSON serving protocol: the stable error-code
    registry, request-field accessors, and response renderings.

    Transport- and session-independent: {!Session} (dispatch and
    per-connection state) and both transports — {!Session.run}'s
    stdin/stdout loop and {!Server}'s TCP accept loop — sit on top of
    this module, and the CLI shares {!error_of_exn} so one failure maps
    to one code everywhere. *)

val protocol_version : int
(** Wire protocol version, reported by [hello] and [stats].  Bumped only
    on a breaking change to the request or response shapes. *)

exception Bad_request of string

exception Overloaded of string
(** Admission control refused the request outright (hard in-flight cap).
    Distinct from {e shedding}, which degrades sampling rates but still
    answers. *)

exception Session_closed
(** Request submitted to a {!Session.t} after [close]. *)

(** {2 Error codes} *)

type emitter =
  | Protocol_error  (** emitted in protocol [error.code] fields *)
  | Cli_error  (** emitted only by a CLI subcommand's [--json] errors *)

val error_codes : (string * emitter * string) list
(** The full stable registry: [(code, emitter, description)].  Every
    code the server or CLI can emit appears here (asserted by a test),
    and DESIGN.md section 13 renders this table.  Codes are append-only:
    removing or renaming one is a protocol break. *)

val error_of_exn : exn -> (string * string) option
(** [(code, message)] for every exception with a stable protocol
    mapping; [None] for genuine bugs, which should crash loudly. *)

val error_json : ?op:string -> string -> string -> Json.t
(** [error_json ?op code message] — the [{ok:false, error:{code,
    message}}] envelope. *)

val protect : op:string option -> (unit -> Json.t) -> Json.t
(** Run a handler, mapping raisable protocol errors to {!error_json}. *)

(** {2 Request-field accessors}

    All raise {!Bad_request} (with the field name) on a missing required
    field or an ill-typed value. *)

val req_str : Json.t -> string -> string
val opt_str : Json.t -> string -> string option
val opt_num : Json.t -> string -> default:float -> float
val opt_int : Json.t -> string -> default:int -> int
val opt_bool : Json.t -> string -> default:bool -> bool

val check_fields : op:string -> string list -> Json.t -> unit
(** Reject unknown request fields with a structured {!Bad_request} — a
    misspelled ["seed"] must not silently become a default-seeded
    answer.  Total on non-object JSON (dispatch rejects those with its
    own message). *)

(** {2 Response pieces} *)

val interval_json : Gus_stats.Interval.t -> Json.t
val cell_json : Gus_sql.Runner.cell -> Json.t
val result_json : Gus_sql.Runner.result -> Json.t
val exact_json : Gus_sql.Runner.response -> Json.t option
val diagnostic_json : Gus_analysis.Diagnostic.t -> Json.t
val rates_json : (string * float) list -> Json.t

val response_json :
  ?shed:(string * float) list * float -> handle:string -> Engine.outcome -> Json.t
(** The [execute] response.  [shed = (rates, overload)] marks a degraded
    response: adds [shed:true], the selected per-relation [shed_rates],
    and the [overload] factor that triggered them — absent entirely on
    un-shed traffic, so the healthy response shape is unchanged. *)

val source_of_request : Json.t -> Catalog.source
(** Decode a [register] request's source spec ([tpch] | [synthetic] |
    [csv] | [snapshot]); raises {!Bad_request} on an unknown source. *)
