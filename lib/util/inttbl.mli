(** Open-addressing scratch table for allocation-free group-by passes.

    The table does not store keys: a slot holds the caller-supplied hash,
    an int {e representative} (typically an index into the caller's data)
    and the key's int id.  Collisions are resolved by the caller's [equal]
    on representatives, so arbitrary key semantics (e.g. "lineage arrays
    compared under a subset mask", "rows whose GROUP BY keys render
    alike") cost no intermediate key allocations.

    Capacity is a power of two, at least twice [hint]; the table doubles
    before an insert would push its load factor past 0.5, so linear
    probing always terminates.  [create], [reset] and growth are the only
    allocating operations: a caller whose [hint] bounds its distinct keys
    never grows the table, and one table is reused across passes with
    O(capacity) clears. *)

type t

val capacity_for : int -> int
(** The slot count for [hint] keys: the least power of two that is at
    least 16 and at least twice [hint]. *)

val create : hint:int -> t
(** [create ~hint] sizes the table for [hint] distinct keys without
    growing. *)

val reset : t -> hint:int -> unit
(** Empty the table, growing it first if [hint] outgrew the capacity. *)

val find_or_add :
  t -> hash:int -> equal:(int -> int -> bool) -> repr:int -> fresh:int -> int
(** [find_or_add t ~hash ~equal ~repr ~fresh] returns the id of the key
    represented by [repr]: the id stored when the key was inserted, or
    [fresh] after inserting it now.  [equal r r'] must decide whether two
    representatives carry the same key; it is only consulted on
    stored-hash equality.  Check {!added} to see whether the call
    inserted.  Allocates nothing unless the table grows; the probe's
    length is counted for {!flush_probes}. *)

val added : t -> bool
(** Whether the most recent {!find_or_add} inserted a new key. *)

val flush_probes : t -> unit
(** Add the lengths of the probes made since the last flush to the
    [inttbl.probe_len] histogram (when metrics are on) and zero them.
    {!find_or_add} counts each probe into the table itself, so a caller
    flushes once per pass; the histogram then holds the count, buckets
    and sum that observing every probe would give.  Only the moments
    kernel flushes: [inttbl.probe_len] describes its passes. *)
