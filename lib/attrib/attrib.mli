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
      (** per input pin: fanin {e net name} and the watts attributed to
          that pin's toggles (0 on pins tied to an earlier pin) *)
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
          input statistics and load (ascending config index);
          [[||]] when candidate enumeration was disabled *)
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
  ?candidates:bool ->
  before:Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  Reorder.Optimizer.report ->
  t
(** Build the ledger for an optimizer run. [before] must be the circuit
    the report was produced from (the one passed to
    {!Reorder.Optimizer.optimize}); statistics are recomputed once —
    they are configuration-independent (§4.2) so the same analysis
    serves both sides. [candidates] (default [true]) re-evaluates every
    configuration of each gate for the "margin" column; disable it when
    only the conservation data is needed (e.g. the proptest oracle).
    @raise Invalid_argument when the report's config vector does not
    match [before]. *)

(** {1 Incremental rebuilding}

    The incremental engine ({!Incremental}) keeps a ledger's entries and
    recomputes only the re-swept gates' with {!gate_entry}. Every other
    gate kept its incumbent, the previous winner (the optimizer's fixed
    point), so its entry is {!settle}d; {!of_entries} re-sums the totals
    in the same index order as {!of_report}, so the ledger is
    bit-identical to one built cold from the edited circuit. *)

val gate_entry :
  Power.Model.table ->
  ?candidates:bool ->
  Netlist.Circuit.t ->
  int ->
  config_before:int ->
  config_after:int ->
  input_stats:Stoch.Signal_stats.t array ->
  load:float ->
  gate_entry
(** One gate's entry, computed exactly as {!of_report} does, from its
    configurations, its pins' statistics and its output load. The
    circuit supplies the gate's cell, pins and net names; its
    configuration field is not read. *)

val of_entries :
  circuit:string -> external_load:float -> gate_entry array -> t
(** Assemble a ledger from per-gate entries (indexed by gate), summing
    the totals in index order. *)

val settle : gate_entry -> gate_entry
(** The entry of the same, untouched gate in a follow-up run: the
    previous [after] state becomes the [before] state too. *)

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
