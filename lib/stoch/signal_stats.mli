(** Stochastic characterization of a logic signal.

    Following the paper (§3.1), every signal is modeled as a 0-1
    stationary Markov process described by two numbers: the
    {e equilibrium probability} [prob] (probability of observing 1 at any
    instant) and the {e transition density} [density] (average number of
    0→1 plus 1→0 transitions per time unit). *)

type t = private { prob : float; density : float }

val make : prob:float -> density:float -> t
(** [make ~prob ~density] validates and builds the statistics.
    @raise Invalid_argument if [prob] is outside [\[0, 1\]], [density] is
    negative, or either is not finite. *)

val prob : t -> float
val density : t -> float

val constant : bool -> t
(** Statistics of a signal stuck at 0 or 1: density 0. *)

val latched : t
(** Scenario-B primary input: [prob = 0.5], [density = 0.5]
    transitions per cycle (the caller fixes the time unit). *)

val is_constant : t -> bool
(** [true] when the density is exactly 0. *)

val mean_holding_times : t -> float * float
(** [(mu0, mu1)]: mean exponential holding times in states 0 and 1 that
    realize these statistics ([mu0 = 2(1-P)/D], [mu1 = 2P/D]).
    @raise Invalid_argument on a constant signal (no finite holding
    times exist). *)

val flip_probs : t -> dt:float -> (float * float) option
(** [Some (p01, p10)]: the 0→1 and 1→0 flip probabilities per step [dt]
    of the two-state chain realizing these statistics, [D·dt/2] over the
    state's probability, clamped to [\[0, 1\]]; [None] for a constant
    signal. The Monte-Carlo and sequential stimuli draw from it. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [eps]
    (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
(** Prints as [P=0.500 D=1.20e+05]. *)
