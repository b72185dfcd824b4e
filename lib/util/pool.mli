(** A small, reusable domain pool (OCaml 5 [Domain], no dependencies).

    [create ~size] keeps [size - 1] worker domains parked on condition
    variables; {!run_chunks} fans a half-open index range out across them
    (the calling domain works too, as lane 0) and returns when every lane
    has finished.  A pool of size 1 spawns no domains and runs everything
    inline, so callers can thread one pool through unconditionally and
    degrade gracefully on single-core hosts, where
    [Domain.recommended_domain_count () = 1]. *)

type t

val create : size:int -> t
(** [create ~size] spawns [max 1 size - 1] worker domains.  Pools are
    cheap to keep around and meant to be reused; workers idle on a
    condition variable between jobs.  Every multi-lane pool is entered
    into a process-wide registry whose single [at_exit] hook shuts it
    down, so forgotten pools never block process exit. *)

val size : t -> int
(** Number of lanes (workers + the calling domain). *)

val is_live : t -> bool
(** [false] once {!shutdown} has run. *)

val run_chunks : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [run_chunks t ~lo ~hi f] partitions [\[lo, hi)] into at most [size t]
    contiguous chunks in index order (earlier chunks one element longer
    when the range does not divide evenly) and evaluates [f clo chi] on
    each, in parallel.  Blocks until all chunks are done.  If any chunk
    raises, one of the exceptions is re-raised after every lane has
    finished.  The caller must ensure chunk bodies
    touch disjoint mutable state.  A pool must not be shared by
    concurrent [run_chunks] calls.  Raises [Invalid_argument] on a pool
    that has been {!shutdown} (when the range is non-empty). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; {!run_chunks} on the
    pool raises afterwards. *)

val recommended_size : unit -> int
(** [max 1 (Domain.recommended_domain_count ())]. *)

val default_size : unit -> int
(** The size {!default} uses: {!set_default_size}'s override if set,
    else the [GUSDB_DOMAINS] environment variable (positive integer),
    else {!recommended_size}. *)

val default : unit -> t
(** A process-wide shared pool of {!default_size}, created lazily on
    first use and recreated if the size configuration changed or the
    previous default was shut down.  Two things run on it: the serving
    engine's [batch] fan-out and the experiment trial loops.  Plan
    execution and the moment passes of an estimate are sequential. *)

val set_default_size : int -> unit
(** Override the default-pool size (CLI [--pool-size]); takes precedence
    over [GUSDB_DOMAINS].  The next {!default} call picks it up.  Raises
    [Invalid_argument] on sizes < 1. *)
