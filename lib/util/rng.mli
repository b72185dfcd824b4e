(** Deterministic pseudo-random number generation.

    All experiments must be reproducible, so every stochastic component
    takes an explicit generator.  The core is SplitMix64 (Steele et al.,
    OOPSLA 2014): tiny state, excellent equidistribution for the sample
    sizes used here, and cheap splitting for independent streams.

    {b State layout.}  A generator is one 64-bit SplitMix64 state word,
    stored unboxed in an 8-byte [Bytes.t] and read and written in native
    byte order.  A draw adds the golden gamma to the word and returns the
    SplitMix64 finalizer of the sum, exactly as a boxed [int64] state
    would; only the storage changed, so every stream is the same bit for
    bit (test_util's "pinned stream" case holds the values).
    {!bernoulli}, {!int} and {!bool} run the whole draw inline and
    allocate nothing; {!bits64} and {!float} return boxed values. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Distinct seeds give streams that
    are independent for all practical purposes. *)

val copy : t -> t
val split : t -> t
(** A new generator statistically independent of the parent's future
    output; advances the parent. *)

val derive : t -> int -> t
(** [derive t i] is the [i]-th child stream of [t]'s current state — a
    pure function of [(state, i)] that does {e not} advance [t], so any
    number of lanes can derive their streams concurrently from one master
    and the result never depends on evaluation order.  [derive t 0]
    coincides with what {!split} would return.  This is the SplitMix64
    stream-splitting discipline the parallel Monte-Carlo harness builds
    on.  Raises on negative [i]. *)

val bits64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); [bound > 0] required. *)

val float : t -> float
(** Uniform on [0, 1). *)

val float_range : t -> float -> float -> float
val bool : t -> bool
val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices uniformly
    from [0, n).  Raises [Invalid_argument] if [k > n] or [k < 0].
    Uses Floyd's algorithm: O(k) expected time, O(k) space. *)
