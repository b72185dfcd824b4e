(** One protocol session: the transport-agnostic middle of the serving
    stack.

    A session scopes prepared handles to one client connection — two
    clients can both name a query ["q1"] — on top of a shared
    {!Engine}, and dispatches the NDJSON operations ({!Wire} renders
    them).  Transports are thin: {!run} drives one session over
    stdin/stdout, {!Server} one per TCP connection.

    {b Threading.}  The engine is driving-thread-only, so concurrent
    transports must serialize every {!handle}/{!handle_request} call
    across all sessions of one engine ({!Server} holds one driving
    lock).  {!Admission} accounting is thread-safe and happens {e
    before} queueing — either inside {!handle} (stdio) or on the
    server's reader threads, which then pass the decision to
    {!handle_decided}.

    {b Shedding.}  Under a [Shed] decision, [execute]/[batch] items
    whose rates the client did not pin run with degraded per-relation
    sampling rates from {!Admission.shed_rates}; responses gain
    [shed:true], [shed_rates] and [overload] fields, the decision is
    journaled as a [shed] event, and the degraded rates ride in the
    following [exec] event — so [gusdb replay] reproduces shed
    responses bit-identically. *)

type t

val create : ?admission:Admission.t -> Engine.t -> t
(** With [admission], {!handle} does its own enter/decide/leave per
    request (the stdio transport); without, every request is admitted
    plainly. *)

val engine : t -> Engine.t

val id : t -> int
(** Process-unique session id (1, 2, ...), reported by [hello] and
    [stats]. *)

val handle : t -> string -> string option
(** Process one raw NDJSON request line end to end — admission,
    dispatch, rendering; [None] for blank lines (transports skip them),
    [Some response] otherwise.  Never raises on user input: protocol
    and execution failures come back as error objects. *)

val handle_decided : t -> decision:Admission.decision -> string -> string option
(** {!handle} for transports that already ran admission at
    request-receive time (the TCP server's reader threads): applies the
    given decision, does not enter/leave. *)

val handle_request : ?decision:Admission.decision -> t -> Json.t -> Json.t
(** Dispatch one parsed request object ([decision] defaults to
    [Admit]).  Total: errors come back as error objects. *)

val find_prepared : t -> string -> Prepared.t option
val prepared_names : t -> (string * Prepared.t) list
(** This session's handles, sorted by name. *)

val close : t -> unit
(** Drop the session's handles; subsequent requests answer with the
    [session_closed] error.  Idempotent. *)

val closed : t -> bool

val run : ?after:(unit -> unit) -> t -> in_channel -> out_channel -> unit
(** The stdio loop: read lines to EOF, skip blanks, answer each with
    one flushed line.  [after] runs once per answered request. *)
