(** Cross-gate best-configuration memoization.

    Benchmark circuits (trees, adders) sweep hundreds of structurally
    identical gates whose propagated input statistics are near-identical.
    The memo caches the winning configuration keyed by everything the
    sweep's outcome depends on: the cell (which fixes the canonical SP
    shape and the candidate set), the objective direction, the
    input-reordering-only restriction, the pin-tying groups, a
    {e quantized} signature of the per-pin input statistics, and a
    quantized load bucket.

    Determinism under parallelism is by construction: a miss computes
    the winner from the {e representative} (de-quantized) statistics and
    load of the key — never from the gate's exact values or its incumbent
    configuration — so the stored winner is a pure function of the key.
    Whichever worker populates an entry first, racing workers compute
    the same value, and a memoized run is bit-identical across any
    domain count (see {{!page-performance} the performance page}).

    Lookups bump the [optimizer.memo_hits] / [optimizer.memo_misses]
    {!Obs} counters. The table is mutex-guarded. *)

type t

val create : unit -> t
val size : t -> int

(** {1 Quantization grid}

    Probabilities land on a uniform grid of {!prob_buckets} steps over
    [\[0, 1\]]; densities and loads land on a logarithmic grid of
    {!log_buckets_per_decade} buckets per decade (non-positive values
    get a dedicated zero bucket). Exposed for boundary tests. *)

val prob_buckets : int
val log_buckets_per_decade : int

val quantize_prob : float -> int
(** Bucket index in [\[0, prob_buckets\]] (inputs are clamped to
    [\[0, 1\]] first). *)

val representative_prob : int -> float
(** Center of a probability bucket; [quantize_prob (representative_prob
    b) = b] for every valid bucket. *)

val quantize_log : float -> int option
(** [None] for values [<= 0] (the zero bucket). *)

val representative_log : int option -> float
(** [0.] for the zero bucket; otherwise the grid point of the bucket,
    with [quantize_log (representative_log b) = b]. *)

val key :
  cell:Cell.Gate.t ->
  maximize:bool ->
  input_only:bool ->
  groups:int array ->
  input_stats:Stoch.Signal_stats.t array ->
  load:float ->
  string
(** The memo key of one gate sweep. *)

val representative_stats :
  Stoch.Signal_stats.t array -> Stoch.Signal_stats.t array
(** The de-quantized statistics a miss must sweep with. *)

val representative_load : float -> float

val lookup : t -> string -> int option
(** Bumps [optimizer.memo_hits] or [optimizer.memo_misses]. *)

val store : t -> string -> int -> unit
(** First writer wins (racing writers store the same value by the
    purity argument above). *)
