(** The capacitive load on a gate's output net, beyond the gate's own
    diffusion and wire: the node-power model's [C] for the output node
    (§3.3) charges it. The power model, static timing, the switch-level
    simulator and the Monte-Carlo engine all read this one definition,
    so all four charge the same floats. *)

val default_external : float
(** 20 fF: what a primary output drives outside the circuit, unless the
    caller gives another [external_load]. *)

val output :
  Cell.Process.t -> ?external_load:float -> Circuit.t -> int -> float
(** [output proc circuit g] is the load on gate [g]'s output net: the
    {!Cell.Process.input_pin_capacitance} of every pin reading the net,
    summed from [0.] in {!Circuit.readers} order, plus [external_load]
    (default {!default_external}) if the net is a primary output. A
    consumer that also charges the gate's own output-node capacitance
    [own] takes [own +. output proc circuit g]. *)
