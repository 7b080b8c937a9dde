(** Static timing analysis over a circuit (topological longest path).

    Arrival time of a primary input is 0; the arrival of a gate output
    is the max over pins of the fanin arrival plus the pin-to-output
    Elmore delay of the gate's {e current configuration} with its real
    fan-out load. The circuit delay is the max arrival over primary
    outputs — the quantity column D of Table 3 compares before/after
    optimization. *)

type t

val run :
  Elmore.table ->
  ?external_load:float ->
  ?configs:int array ->
  Netlist.Circuit.t ->
  t
(** [external_load] (default 20 fF) loads every primary output net.
    [configs] (default: each gate's own) times a tentative per-gate
    configuration assignment without rewriting the circuit — what a
    delay-bounded optimizer checks every candidate against. *)

val arrival : t -> Netlist.Circuit.net -> float
(** Seconds. *)

val critical_delay : t -> float
(** Max arrival over primary outputs (0 for an input-only circuit). *)

val critical_output : t -> Netlist.Circuit.net option
(** The primary output realizing {!critical_delay}. *)

val critical_path : t -> Netlist.Circuit.net list
(** Nets from a primary input to the critical output, following worst
    arrival predecessors. Empty if there are no primary outputs. *)
