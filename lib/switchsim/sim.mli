(** Event-driven switch-level simulation with capacitor-charging energy
    accounting — the measurement instrument of the paper's Table 3
    (column S), substituting for the SLS simulator [11].

    The circuit is simulated at the transistor level: each gate instance
    is its configuration's switch-level model, the H/G truth tables
    {!Cell.Config.nth_tables} shares with the power model, plus the net
    on each pin and its node capacitances. On every input event the
    fan-out cone is re-solved: under the gate's input vector a node is
    high if a conducting path links it to vdd (its H bit), low if one
    links it to vss (its G bit), and holds its charge when isolated;
    complementary gates guarantee no shorts. Every low→high transition
    of a node deposits [C·Vdd²] of energy; average power is energy over
    the measurement window.

    Signal values are ternary: nodes that have never been driven are
    unknown ([X]); a charge from X is counted at half energy. Primary
    inputs are always known, and the start settles the circuit in
    topological order, so every net is known from then on and a gate
    always sees a known input vector (tested on every suite circuit). *)

type t
(** Static simulation structure for one circuit (configurations baked
    in — rebuild after {!Netlist.Circuit.with_configs}). *)

val build :
  Cell.Process.t -> ?external_load:float -> Netlist.Circuit.t -> t
(** Node capacitances are the power model's: junction + wire per node
    ({!Cell.Process.node_capacitance}), and on each gate's output node
    that [own] capacitance plus its load, [own +.]
    {!Netlist.Load.output} with [external_load] (default
    {!Netlist.Load.default_external}) on primary outputs — the same
    floats [Power.Model] charges. *)

val circuit : t -> Netlist.Circuit.t

type value = V0 | V1 | VX
(** Ternary signal values as simulated. *)

val internal_nodes : t -> int -> int
(** Number of internal (non-rail, non-output) transistor-graph nodes of
    gate [g] under its baked-in configuration. *)

type result = {
  horizon : float;  (** measurement window, s (excludes warm-up) *)
  events : int;  (** primary-input transitions processed *)
  energy : float;  (** J over the window *)
  power : float;  (** [energy /. horizon], W *)
  per_gate_energy : float array;  (** J, by gate index *)
  per_net_energy : float array;
      (** J, by net id: all of a gate's deposits (output {e and}
          internal nodes) booked against the net it drives; primary
          inputs carry 0. Summed in net-id order, so
          [Array.fold_left (+.) 0. per_net_energy] equals [energy]
          {e exactly} (bit-for-bit), not merely within float noise. *)
  net_toggles : int array;  (** 0↔1 transitions per net *)
  net_high_time : float array;  (** s spent at 1 per net *)
  final_values : value array;  (** per-net value when the run ended *)
}

(** {1 Probes}

    An observer streams signal-level activity as it happens: every net
    value change, optionally every internal-node change and every
    energy deposit. Runs without an observer pay nothing — the emit
    sites test one [option] and move on, allocating no per-event
    closures (the [switchsim.probe_events] counter stays 0). *)

type observer = {
  on_net :
    time:float -> net:int -> before:value -> after:value -> in_window:bool -> unit;
      (** Every net change, including the initial settle at time 0.
          [in_window] is false for changes outside the accounting
          window (initialization and the warm-up period). *)
  on_internal :
    (time:float ->
    gate:int ->
    node:int ->
    before:value ->
    after:value ->
    in_window:bool ->
    unit)
    option;
      (** Internal-node changes of gate [gate]; [node >= 1] indexes
          internal node [node - 1] (the output, node 0, is visible
          through {!observer.on_net} on the gate's output net). *)
  on_energy : (time:float -> gate:int -> node:int -> energy:float -> unit) option;
      (** One event per energy deposit {e inside} the accounting
          window, with exactly the joules the accumulator books
          ([node] as in [on_internal], 0 for the output node). *)
}

val run :
  t ->
  ?warmup:float ->
  ?observer:observer ->
  inputs:(Netlist.Circuit.net -> Stoch.Waveform.t) ->
  unit ->
  result
(** Drives every primary input with its waveform. All waveforms must
    share one horizon; energy and statistics are collected from
    [warmup] (default 0) to the horizon. [observer] (if any) sees
    every event in non-decreasing time order.
    @raise Invalid_argument on mismatched horizons or a warm-up beyond
    the horizon. *)

val run_stats :
  t ->
  rng:Stoch.Rng.t ->
  stats:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  horizon:float ->
  ?warmup:float ->
  ?observer:observer ->
  unit ->
  result
(** Generates stationary Markov waveforms realizing [stats] (one
    independent RNG stream per input) and runs. *)

(** {1 Timed (inertial) mode}

    The zero-delay run settles the whole circuit instantaneously, so it
    never produces the {e useless transitions} (glitches) the paper's
    introduction blames for a large fraction of dynamic power. The timed
    mode delays each gate's {e output} by a caller-supplied inertial
    delay (internal nodes still follow the inputs immediately): output
    pulses shorter than the gate delay are absorbed, staggered input
    arrivals produce glitches, and the energy accounting picks them up.
    Compare a timed run against a zero-delay run on the same stimulus to
    measure glitch power. *)

val run_timed :
  t ->
  ?warmup:float ->
  ?observer:observer ->
  gate_delay:(int -> float) ->
  inputs:(Netlist.Circuit.net -> Stoch.Waveform.t) ->
  unit ->
  result
(** [gate_delay g] is the inertial propagation delay (seconds) of gate
    index [g] under its current configuration and load — typically
    [Delay.Elmore.worst_delay].
    @raise Invalid_argument as {!run}, or on a negative gate delay. *)

val run_timed_stats :
  t ->
  rng:Stoch.Rng.t ->
  stats:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  gate_delay:(int -> float) ->
  horizon:float ->
  ?warmup:float ->
  ?observer:observer ->
  unit ->
  result
(** Stochastic-stimulus variant of {!run_timed}; with equal [rng], it
    drives exactly the waveforms {!run_stats} would. *)

val measured_stats : result -> Netlist.Circuit.net -> Stoch.Signal_stats.t
(** Empirical probability / density of a net over the window. *)
