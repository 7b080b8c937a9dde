(** Circuit-wide propagation of equilibrium probabilities and transition
    densities (the OBTAIN_PROBABILITIES pass of Fig. 3).

    Gates are visited in topological order; each output's statistics are
    computed from its fanins with {!Model.output_stats} under the
    spatial-independence assumption. Statistics are per {e net} and do
    not depend on any gate's chosen configuration (§4.2), so one pass
    serves every configuration choice. *)

type t

val run :
  Model.table ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  t
(** [inputs] gives the statistics of each primary input net. *)

val stats : t -> Netlist.Circuit.net -> Stoch.Signal_stats.t
val all_stats : t -> Stoch.Signal_stats.t array
(** Indexed by net id. *)

val gate_input_stats : t -> Netlist.Circuit.t -> int -> Stoch.Signal_stats.t array
(** Statistics of one gate's fanin pins, in pin order (the
    OBTAIN_PROB_AND_DENS step). *)
