(** The paper's extended power-consumption model of a static CMOS gate
    (§3.3), including internal-node power.

    For every powered node [nk] of a configuration (output + internal),
    the model reads the path functions [H_nk] (to vdd) and [G_nk] (to
    vss) from the configuration's truth tables
    ({!Cell.Config.nth_tables}) and takes their Boolean differences with
    respect to each input.
    Given input statistics it then computes:

    - node equilibrium probability [P(nk) = P(H)/(P(H)+P(G))] (steady
      state of the paper's charge/discharge recurrence);
    - transitions caused by input [xi]:
      [T(nk|xi) = D(xi)·((1-P(nk))·P(∂H/∂xi) + P(nk)·P(∂G/∂xi))], which
      collapses to Najm's transition density at the output node;
    - node power [W(nk) = ½·C(nk)·Vdd²·Σᵢ T(nk|xi)].

    Each (cell, configuration, pin-groups) model is compiled on first
    use into one immutable program: the reduced ordered BDD nodes of H,
    G and every ∂H/∂xᵢ, ∂G/∂xᵢ, children first, their root slots and
    the node capacitances. Tying pins and differencing are shifts and
    masks on the 64-bit tables, and the diagram of a table is read off
    it directly. Evaluating a program for given input statistics is one
    pass over a float array with {!Bdd.probability}'s Shannon
    expansion, bit-identical to walking each diagram (tested against
    {!Sp.Network.h_function}'s diagrams on every key of the library),
    and needs no symbolic work: that is what makes exhaustive per-gate
    exploration cheap (§4.1). *)

type table
(** Compiled models for one process. The table holds programs only: a
    gate's output load is circuit data, which {!Netlist.Load.output}
    defines for every consumer.

    The table is a cache for one domain: {!program}, {!gate_power},
    {!gate_total} and {!output_stats} look programs up and build the
    missing ones, so call them from one domain at a time. A program,
    once looked up, is immutable, and {!total} evaluates it on any
    domain. [power.model_build] counts builds and [power.model_hit]
    every other lookup. Nothing is compiled until a key is first looked
    up. *)

val table : Cell.Process.t -> table
val process : table -> Cell.Process.t

type node_power = {
  node : Sp.Network.node;
  probability : float;  (** equilibrium probability of the node *)
  transitions : float;  (** Σᵢ T(node|xᵢ), transitions per time unit *)
  by_input : float array;
      (** [T(node|xᵢ)] per input pin (length = arity):
          [transitions = Σᵢ by_input.(i)] with identical float
          summation order, so the per-input attribution is conservative
          by construction. Tied pins carry their joint contribution on
          the representative pin and 0 elsewhere. *)
  capacitance : float;  (** node capacitance used, F *)
  power : float;  (** ½·C·Vdd²·transitions, W *)
}

type gate_power = {
  nodes : node_power list;  (** output node first *)
  internal : float;  (** W on internal nodes *)
  output : float;  (** W on the output node (with load) *)
  total : float;
}

val groups_of_nets : int array -> int array
(** [groups_of_nets fanins] maps each pin to the first pin bound to the
    same net: the [groups] argument for a gate instance whose fanins may
    tie one net to several pins (e.g. a majority built on an AOI222).
    Tied pins toggle {e together}; treating them as independent biases
    probabilities and densities. *)

type program
(** The compiled model of one (cell, configuration, pin-groups) key. *)

val program : table -> Cell.Gate.t -> config:int -> groups:int array -> program
(** The key's program, compiled on its first lookup. [groups] is of the
    {!groups_of_nets} form.
    @raise Invalid_argument if [config] is out of range or [groups] is
    not of that form, or its length differs from the arity. *)

val total :
  program -> input_stats:Stoch.Signal_stats.t array -> load:float -> float
(** The gate's total power under the program's configuration,
    [(gate_power ...).total] to the bit, without building the node
    records: the sweep's candidate cost. Reads nothing but the program
    and its arguments, so it runs on any domain. Counted in
    [power.gate_powers] and [power.node_evals] like {!gate_power}.
    @raise Invalid_argument if [input_stats] length differs from the
    arity or [load] is negative. *)

val gate_power :
  table ->
  Cell.Gate.t ->
  config:int ->
  input_stats:Stoch.Signal_stats.t array ->
  ?groups:int array ->
  load:float ->
  unit ->
  gate_power
(** [load] is the capacitance hanging on the output net beyond the
    gate's own diffusion and wire: in a circuit, {!Netlist.Load.output}.
    The output node is charged [own +. load].
    [groups] (default: all pins distinct) identifies pins tied to one
    net, per {!groups_of_nets}; tied pins must carry identical
    [input_stats].
    @raise Invalid_argument if [input_stats] or [groups] length differs
    from the arity, [groups] is not of the {!groups_of_nets} form, or
    [config] is out of range. *)

val gate_total :
  table ->
  Cell.Gate.t ->
  config:int ->
  input_stats:Stoch.Signal_stats.t array ->
  groups:int array ->
  load:float ->
  float
(** [total (program table cell ~config ~groups) ~input_stats ~load]:
    the ledger's candidate cost.
    @raise Invalid_argument as {!gate_power} does. *)

val output_stats :
  table ->
  Cell.Gate.t ->
  input_stats:Stoch.Signal_stats.t array ->
  ?groups:int array ->
  unit ->
  Stoch.Signal_stats.t
(** Output probability (Parker-McCluskey) and transition density (Najm).
    Identical for every configuration of the gate — the monotonicity
    property the greedy optimizer relies on (§4.2). *)
