(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic experiments in the library draw from this generator so
    that every table and figure is reproducible from a seed. The
    implementation follows Steele, Lea & Flood's SplitMix64; independent
    streams are obtained with {!split}. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]. Use one split stream per primary input so that adding inputs
    does not perturb the streams of existing ones. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val fill_bits64 : t -> Bytes.t -> unit
(** [fill_bits64 t buf] writes the next [Bytes.length buf / 8] outputs
    of {!bits64}, in order, as native-endian 64-bit words at byte
    offsets 0, 8, 16, ...: the same words [bits64] would return one by
    one, without boxing each. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the
    given mean. Requires [mean > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
