(** Subsets of a small universe [{0, …, n−1}] represented as int bitmasks.

    The GUS algebra indexes second-order inclusion probabilities [b_T] by
    subsets [T] of the lineage schema; everything here is O(1) or a tight
    loop over masks.  The universe size is capped at {!max_universe} because
    the algebra materializes arrays of length [2^n]. *)

type t = int
(** A subset as a bitmask; bit [i] set means element [i] is a member. *)

val max_universe : int
(** Largest supported universe size (26: [2^26] floats = 512 MB upper bound,
    far beyond any realistic query). *)

val max_mask_bits : int
(** Largest universe whose subsets are representable as int bitmasks at all
    (62: OCaml native ints hold 62 usable value bits).  Mask-only machinery
    — the symbolic coefficient algebra, live masks — works up to this
    width; anything materializing [2^n] arrays is capped at
    {!max_universe} instead. *)

val check_mask_bits : int -> unit
(** Raise [Invalid_argument] (naming the {!max_mask_bits} limit) unless
    [0 <= n <= max_mask_bits].  Guards every entry point that keys subsets
    into int masks, which would otherwise overflow silently past 62
    elements. *)

val full_wide : int -> t
(** [full_wide n] is the subset containing [0..n-1] for any
    [n <= max_mask_bits] — the mask-only analogue of {!full}, usable past
    {!max_universe}. *)

val empty : t
val full : int -> t
(** [full n] is the subset containing [0..n-1]. *)

val singleton : int -> t
val add : t -> int -> t
val remove : t -> int -> t
val mem : t -> int -> bool
val cardinal : t -> int
val subset : t -> t -> bool
(** [subset s t] is [s ⊆ t]. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val complement : int -> t -> t
(** [complement n s] is [{0..n-1} \ s]. *)

val elements : t -> int list
val of_elements : int list -> t

val iter_all : int -> (t -> unit) -> unit
(** [iter_all n f] calls [f] on all [2^n] subsets of a universe of size [n]. *)

val iter_subsets : t -> (t -> unit) -> unit
(** [iter_subsets s f] calls [f] on every subset of [s] (including [empty]
    and [s] itself), in increasing mask order.  Allocation-free. *)

val iter_subsets_down : t -> (t -> unit) -> unit
(** Same subsets as {!iter_subsets}, in decreasing mask order. *)

val iter_supersets : int -> t -> (t -> unit) -> unit
(** [iter_supersets n s f] calls [f] on every [t] with [s ⊆ t ⊆ full n]. *)

val fold_subsets : t -> ('acc -> t -> 'acc) -> 'acc -> 'acc
val count : int -> int
(** [count n = 2^n], checked against overflow. *)

val sign : t -> t -> float
(** [sign s t] is [(-1)^(|s| + |t|)] — the Möbius sign used throughout the
    coefficient computations. *)

val pp : names:string array -> Format.formatter -> t -> unit
(** Pretty-print a subset as e.g. ["{l,o}"] using per-element names. *)

val to_string : names:string array -> t -> string
