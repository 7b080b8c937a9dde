(** Bit-parallel Monte-Carlo estimation of switching activity.

    The third estimation backend (next to the analytical propagation and
    the switch-level simulator): sample the primary inputs from the same
    stationary Markov model the paper uses (§3.1 — equilibrium
    probability [P], transition density [D]), evaluate the whole circuit
    functionally, and count what actually toggles. Unlike the analytical
    propagation it is {e correlation-exact} — reconvergent fan-out holds
    by construction, because every sampled vector is a consistent joint
    assignment — and unlike the event-driven simulator it evaluates 64
    independent sample trajectories per machine word: one [Int64]
    bitwise operation per gate advances all 64 lanes at once.

    {1 Sampling model}

    Time is discretized into steps of [dt]. A primary input with
    statistics [(P, D)] is realized as the 2-state Markov chain with
    per-step flip probabilities [a = D dt / 2(1-P)] (0→1) and
    [b = D dt / 2P] (1→0) — its stationary distribution is exactly [P]
    and its expected transitions per step exactly [D dt]. The default
    [dt] keeps every flip probability at or below 1/8 (so the
    discretization error of "at most one transition per step" stays
    small); constant inputs ([D = 0]) never flip. Each lane starts in
    its stationary distribution, so no warm-up is needed.

    Per-step biased bits are drawn with the binary-expansion trick: the
    flip probability is rounded to 30 fractional bits and realized as a
    chain of AND/OR with fresh uniform words — every lane is independent
    and exact to [2^-30].

    {1 The kernel}

    The circuit compiles once, in topological order, into one flat
    [int array] program: per gate an opcode (NOT-AND for inv and nand,
    NOT-OR for nor, AOI, OAI), its output's byte offset, then its
    fanins' byte offsets, AOI/OAI fanins preceded by each group's
    length. One loop runs it. A block keeps its net words in two
    [Bytes] buffers, eight bytes per net, read and written with the
    unboxed 64-bit primitives; the step's inputs flip into one buffer,
    the program fills the rest, and the buffers swap roles. Toggles and
    lanes at 1 are counted per net and step with an inlined popcount;
    rises come from Σ rises = (Σ toggles + Σ last − Σ first) / 2 over
    each word-trajectory, exact because every lane's rises and falls
    alternate. A block draws its uniform words from its stream 256 at a
    time ({!Stoch.Rng.fill_bits64}: the same words in the same order).

    So nothing is allocated per gate, per net or per step: what is left
    is per block (its count arrays and buffers) and per batch of draws.
    On a 2,000-gate random circuit at the default 262,144 samples,
    [treorder estimate --backend mc -j 1] allocates 2.1 M minor words
    in all, against 185.8 M when each gate was a closure returning a
    boxed [Int64] into an [int64 array]; on a 2-vCPU x86-64 host the
    same run takes 0.21–0.26 s instead of 0.94–1.20 s (five runs
    each), with the same output byte for byte. The program and the
    block loop stay in this module: with [-opaque] builds, a
    cross-module call per gate or per draw would return a boxed
    [Int64].

    {1 Determinism}

    Sampling is organized in [blocks] independent blocks of
    [words_per_block * 64] trajectories, each advanced [steps] steps.
    Every block draws from its own {!Stoch.Rng.split} stream (split off
    the master seed {e before} any parallelism), and block results are
    folded in submission order — so a run distributed over a
    {!Par.Pool} is bit-identical to the sequential run, whatever the
    job count.

    Counters: [mc.words_evaluated] (gate word-evaluations — multiply by
    64 for gate-evals), [mc.toggles], [mc.samples]; the whole estimate
    runs inside an [mc.run] span. *)

type result = {
  blocks : int;
  words_per_block : int;
  steps : int;  (** time steps per trajectory *)
  trajectories : int;  (** [blocks * words_per_block * 64] *)
  samples : int;  (** [trajectories * steps] sampled vectors *)
  dt : float;  (** step length, s *)
  window : float;  (** [steps * dt]: per-trajectory window, s *)
  net_toggles : int array;  (** 0↔1 transitions per net, all lanes *)
  net_rises : int array;  (** 0→1 transitions per net, all lanes *)
  net_high : int array;  (** lane-steps spent at 1, per net *)
  density : float array;
      (** mean estimated transition density per net, 1/s *)
  density_se : float array;
      (** standard error of {!field-density} across blocks *)
  prob : float array;  (** mean estimated equilibrium probability *)
  prob_se : float array;
  per_net_energy : float array;
      (** J per trajectory over {!field-window}: output-node rises of
          the driving gate weighted by [C Vdd^2], averaged over lanes.
          Primary inputs carry 0. Internal-node charging and glitches
          are {e not} modeled (zero-delay functional evaluation), so
          this tracks the simulator's output-node share only. *)
  per_gate_energy : float array;  (** J, by gate index (its output net) *)
  energy : float;  (** J: sum of {!field-per_net_energy} in net order *)
  power : float;  (** [energy / window], W *)
}

val default_dt : inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  Netlist.Circuit.t -> float
(** Largest step keeping every input's flip probabilities at or below
    1/8; [1.0] if every input is constant. *)

val estimate :
  Power.Model.table ->
  ?external_load:float ->
  ?pool:Par.Pool.t ->
  ?dt:float ->
  ?words:int ->
  ?steps:int ->
  ?samples:int ->
  seed:int ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  Netlist.Circuit.t ->
  result
(** Runs the engine. [samples] (default 262144) is the target number of
    sampled vectors; the engine rounds it up to at least two blocks of
    [words] (default 2) words × [steps] (default 128) steps. [dt]
    defaults to {!default_dt}. [pool] distributes blocks over worker
    domains (bit-identical to the sequential fold). A gate's output net
    books its energy at its output node's own capacitance plus
    {!Netlist.Load.output}, with [external_load] (default
    {!Netlist.Load.default_external}) on primary outputs: the
    capacitance {!Power.Model} and [Switchsim.Sim.build] charge.
    @raise Invalid_argument if [dt], [words], [steps] or [samples] is
    not positive. *)

val measured_stats : result -> Netlist.Circuit.net -> Stoch.Signal_stats.t
(** Estimated probability / density of a net, as {!Stoch.Signal_stats}
    (probability clamped into [0, 1]). *)

(** {1 Building blocks}

    Exposed for the differential oracles and tests. *)

val pack : bool array -> int64
(** [pack lanes] sets bit [i] to [lanes.(i)]; at most 64 lanes. *)

val unpack : int64 -> bool array
(** The 64 lanes of a word, [unpack w].(i) = bit [i]. *)

val popcount : int64 -> int
(** Lanes at 1. *)

val eval_nets :
  Netlist.Circuit.t -> inputs:(Netlist.Circuit.net -> int64) -> int64 array
(** Word-parallel functional evaluation: every lane of the result equals
    {!Netlist.Eval.nets} on that lane of the inputs. Configuration
    choices cannot matter (every configuration computes the cell
    function), so gates are evaluated from their {!Cell.Gate.kind}. It
    compiles and runs the program {!estimate}'s blocks run. *)

val bernoulli_mask : Stoch.Rng.t -> float -> int64
(** 64 independent biased bits; each is 1 with probability [p] rounded
    to 30 fractional bits. *)
