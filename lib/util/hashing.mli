(** 64-bit mixing hashes and the pseudo-random functions used by the
    Section-7 subsampler.

    The lineage-keyed subsampler must make the *same* keep/drop decision for
    a base tuple everywhere it appears in the result set (otherwise the
    filter is not a GUS).  The paper's recipe — "pseudo-random functions
    that combine seeds and lineage to provide a [0,1] number" — is realized
    by {!prf_float}. *)

val mix64 : int64 -> int64
(** A strong finalizer (SplitMix64's).  Bijective on 64 bits. *)

val mix_int : int -> int -> int
(** [mix_int h k] folds [k] into the running hash [h] over native ints: a
    SplitMix64-flavoured finalizer with its constants truncated to 62
    bits, allocating nothing.  For open-addressing tables, whose
    correctness rests on their own equality check: only the collision
    rate depends on it. *)

val hash_int : seed:int -> int -> int64
val hash_string : seed:int -> string -> int64
val combine : int64 -> int64 -> int64

val prf_float : seed:int -> int -> float
(** [prf_float ~seed id] deterministically maps a row id to a uniform-looking
    number in [0, 1).  Same [(seed, id)] always yields the same value. *)
