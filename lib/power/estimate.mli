(** Circuit-level power estimation under the extended gate model.

    The power of the circuit is the sum of the powers of its gates
    (§4.2), each evaluated with its currently selected configuration and
    the load actually present on its output net, {!Netlist.Load.output}
    with [external_load] (default {!Netlist.Load.default_external}) on
    primary outputs. *)

type breakdown = {
  per_gate : float array;  (** W, indexed by gate *)
  internal : float;  (** W on internal nodes, whole circuit *)
  output : float;  (** W on output nodes, whole circuit *)
  total : float;
}

val circuit : Model.table -> ?external_load:float -> Netlist.Circuit.t -> Analysis.t -> breakdown
(** Power of the whole circuit with its current per-gate configurations. *)

val total : Model.table -> ?external_load:float -> Netlist.Circuit.t -> Analysis.t -> float

val gate :
  Model.table ->
  ?external_load:float ->
  Netlist.Circuit.t ->
  Analysis.t ->
  int ->
  config:int ->
  Model.gate_power
(** Power of one gate under a candidate configuration (the quantity
    FIND_BEST_REORDERING minimizes), with the gate's real circuit load. *)
