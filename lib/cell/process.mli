(** Electrical process parameters.

    The paper extracts per-gate node capacitances from a Sea-of-Gates
    library; we model them analytically from a handful of process
    constants (see DESIGN.md §2). Only {e relative} powers and delays
    matter for the experiments, but the default numbers are picked to be
    plausible for the paper's mid-90s technology so absolute printouts
    read sensibly. *)

type t = {
  vdd : float;  (** supply voltage, V *)
  c_gate : float;  (** gate-oxide capacitance per transistor input pin, F *)
  c_junction : float;  (** diffusion capacitance per source/drain terminal, F *)
  c_wire : float;  (** fixed interconnect capacitance per gate output, F *)
  r_nmos : float;  (** NMOS on-resistance, Ω *)
  r_pmos : float;  (** PMOS on-resistance, Ω *)
}

val default : t
(** 5 V, 0.8 µm-era constants: [c_gate = 10 fF], [c_junction = 6 fF],
    [c_wire = 15 fF], [r_nmos = 5 kΩ], [r_pmos = 10 kΩ]. *)

val make :
  vdd:float ->
  c_gate:float ->
  c_junction:float ->
  c_wire:float ->
  r_nmos:float ->
  r_pmos:float ->
  t
(** @raise Invalid_argument unless every parameter is positive. *)

val device_resistance : t -> Sp.Sp_tree.polarity -> float

val node_capacitance : t -> Sp.Network.t -> Sp.Network.node -> float
(** Capacitance of a node {e inside} one gate: junction capacitance per
    attached device terminal ({!Sp.Network.node_degree}, the length of
    the node's adjacency), plus the wire capacitance on the output
    node. The fan-out load on the output node depends on the circuit,
    not the cell: [Netlist.Load.output] defines it. *)

val input_pin_capacitance : t -> Gate.t -> int -> float
(** Capacitance presented by one input pin of a cell: [c_gate] per
    transistor the pin drives ({!Gate.pin_devices}). Identical across
    reorderings. A gate's output load sums these over its readers:
    [Netlist.Load.output] is the one place that does.
    @raise Invalid_argument if the pin is not one of the cell's. *)
