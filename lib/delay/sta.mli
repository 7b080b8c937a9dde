(** Static timing analysis over a circuit (topological longest path).

    Arrival time of a primary input is 0; the arrival of a gate output
    is the max over pins of the fanin arrival plus the pin-to-output
    Elmore delay of the gate's {e current configuration} with its real
    fan-out load. The circuit delay is the max arrival over primary
    outputs — the quantity column D of Table 3 compares before/after
    optimization.

    Required times run the other way, from a delay budget at the primary
    outputs back to every net. A delay-bounded optimizer deciding gates
    level by level checks each candidate configuration with one {!step}
    against its output's required time, instead of timing the whole
    circuit again. *)

type t

val run : Elmore.table -> ?external_load:float -> Netlist.Circuit.t -> t
(** Each gate drives its {!Netlist.Load.output}: the pins reading its
    output, plus [external_load] (default
    {!Netlist.Load.default_external}) on a primary output. *)

val step : t -> float array -> int -> config:int -> float
(** [step t arrival g ~config] is {!run}'s forward step for gate [g] in
    configuration [config]: the latest per-net [arrival] at its fanins
    plus that pin's delay at [g]'s load in [t], or 0 when no fanin is
    later than 0. *)

val latest : float -> float -> float
(** [latest r d] is the exact inverse of the forward step's addition:
    the largest non-negative float [x] with [x +. d <= r], or
    [neg_infinity] when [d > r]. Since [x ↦ x +. d] is monotone, an
    arrival [a >= 0] satisfies [a +. d <= r] iff [a <= latest r d]. *)

val required : t -> budget:float -> float array
(** Per net, the latest arrival that keeps every path from it to a
    primary output within [budget], with every gate in its current
    configuration: [budget] at a primary output, the minimum of
    {!latest} over the pins reading the net, [infinity] for a net no
    path leaves. For a gate [g] whose downstream gates are as in [t],
    the circuit with [g] in configuration [c] and its upstream arrivals
    [arrival] stays within [budget] iff the paths avoiding [g] do and
    [step t arrival g ~config:c <= (required t ~budget).(out)], with
    [out] the output of [g]. *)

val arrival : t -> Netlist.Circuit.net -> float
(** Seconds. *)

val critical_delay : t -> float
(** Max arrival over primary outputs (0 for an input-only circuit). *)

val critical_output : t -> Netlist.Circuit.net option
(** The primary output realizing {!critical_delay}. *)

val critical_path : t -> Netlist.Circuit.net list
(** Nets from a primary input to the critical output, following worst
    arrival predecessors. Empty if there are no primary outputs. *)
