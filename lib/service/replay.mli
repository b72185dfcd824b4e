(** Bit-identical replay of serving journals.

    A journal written by an {!Engine} with a {!Gus_obs.Journal} attached
    is a reproducible trace: register events carry the dataset's build
    recipe ({!Catalog.source_json}), exec events carry the SQL and the
    full override set plus the exact estimate produced.  Replay rebuilds
    the datasets in journal order (so versions line up), re-executes
    every exec event with its journaled seed/rates/explain/exact, and
    compares estimate, stddev and variance {e bit for bit} — the
    engine's determinism guarantee makes any mismatch evidence of data
    drift or a reproducibility bug, never noise. *)

exception Corrupt of { line : int; message : string }
(** A journal line that does not parse or lacks a required field.
    [line] is 1-based. *)

type mismatch = {
  mm_line : int;  (** journal line of the exec event *)
  mm_sql : string;
  mm_field : string;  (** ["estimate"] | ["stddev"] | ["variance"] *)
  mm_journaled : float;
  mm_replayed : float;
}

type report = {
  rp_registers : int;  (** datasets rebuilt from journaled sources *)
  rp_skipped : int;  (** register events for already-present datasets *)
  rp_executions : int;
  rp_matched : int;
  rp_sheds : int;
      (** shed decision events — advisory provenance, counted and
          skipped: the degraded rates also ride in the following exec
          event's [rates] field, which is what gets re-executed and
          compared *)
  rp_mismatches : mismatch list;
}

val run_file : ?engine:Engine.t -> string -> report
(** Replay a journal file.  [engine] defaults to a fresh
    {!Engine.create}[ ()]; pass one with datasets pre-registered to
    replay journals of in-memory sources (their register events are
    then skipped rather than rebuilt).  Raises {!Corrupt} on a bad
    line, [Failure] on an in-memory source that was not pre-registered,
    and the usual engine errors ({!Catalog.Unknown_dataset}, parse
    errors, ...) when the journaled requests themselves fail. *)

val run_channel : ?engine:Engine.t -> in_channel -> report
val run_string : ?engine:Engine.t -> string -> report
(** As {!run_file}, from an open channel / an in-memory NDJSON string
    (blank lines skipped). *)
