(** Power-attribution ledger: {e where} the power of an optimized
    circuit goes and {e why} each gate's ordering won.

    The paper's central claim is that internal-node power — invisible
    to output-only models — decides which transistor ordering is best.
    This module makes that visible: for every gate of an
    {!Reorder.Optimizer} run it records the incumbent and chosen
    configuration powers and breaks the chosen configuration's power
    down per powered node (output node and each internal node), with
    each node's activity further attributed to the input pins whose
    toggles cause it (the [T(nk|xi)] terms of the H/G path model,
    §3.3).

    The breakdown is {e conservative by construction}: node
    contributions sum to the gate total and per-input contributions sum
    to the node transitions (same float summation order as
    {!Power.Model}), which the test suite and the [attribution]
    proptest oracle assert within float tolerance. *)

type node_share = {
  node : Sp.Network.node;
  probability : float;  (** equilibrium node probability *)
  capacitance : float;  (** F, output node includes the fan-out load *)
  transitions : float;  (** Σᵢ T(node|xᵢ) *)
  power : float;  (** W *)
  per_input : (string * float) array;
      (** per fanin net, in order of first pin: the {e net name} and the
          watts attributed to its toggles. Pins tied to one net are one
          entry, since they toggle together. *)
}

type gate_entry = {
  index : int;  (** gate index in the circuit *)
  cell : string;  (** library cell name *)
  out_net : string;  (** output net name — identifies the gate *)
  config_before : int;
  config_after : int;
  before_total : float;  (** W under [config_before] *)
  before_internal : float;
  after_total : float;  (** W under [config_after] *)
  after_internal : float;
  nodes : node_share list;  (** breakdown of [config_after], output first *)
  candidates : (int * float) array;
      (** total W of every configuration of the cell under the gate's
          input statistics and load (ascending config index) *)
}

type t = {
  circuit : string;
  external_load : float;
  total_before : float;  (** Σ gate [before_total] *)
  total_after : float;  (** Σ gate [after_total] *)
  gates : gate_entry array;  (** by gate index *)
}

val of_report :
  Power.Model.table ->
  ?external_load:float ->
  before:Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  Reorder.Optimizer.report ->
  t
(** Build the ledger for an optimizer run. [before] must be the circuit
    the report was produced from (the one passed to
    {!Reorder.Optimizer.optimize}); statistics are recomputed once —
    they are configuration-independent (§4.2) so the same analysis
    serves both sides.
    @raise Invalid_argument when the report's config vector does not
    match [before]. *)

val of_session : Reorder.Optimizer.session -> t
(** The ledger of a session's last settle, read from the session: each
    gate's {!Reorder.Optimizer.session_gate} (the configuration the
    settle started from, its winner, its pins' statistics and its load),
    the session's circuit and external load. A gate the settle did not
    sweep has [config_before = config_after]. Bit-identical to
    {!of_report} of a cold run on the circuit that entered the settle,
    under the session's input statistics, external load and objective
    (the [incremental-equivalence] proptest oracle). *)

(** {1 Queries} *)

val node_sum : gate_entry -> float
(** Σ over [nodes] of [power] — equals [after_total] within float
    tolerance (the conservation invariant). *)

val conservation_error : t -> float
(** Worst relative gap [|node_sum - after_total| / max after_total]
    over all gates (0 for an empty circuit). *)

val top_consumers : t -> int -> gate_entry list
(** The [k] highest-powered gates after optimization, descending. *)

val changed : t -> gate_entry list
(** Gates whose configuration changed, by index. *)

(** {1 Rendering} *)

val render_explain : ?top:int -> t -> string
(** The [--explain] report: a ranked "top power consumers" table, a
    "why this ordering won" table over the changed gates, and per-node
    breakdowns of the [top] (default 5) consumers. Deterministic. *)

val to_json : t -> string
(** The whole ledger as one JSON object (machine consumption). *)
