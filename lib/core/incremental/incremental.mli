(** ECO-style incremental re-optimization sessions.

    A session is a typed edit language over a
    {!Reorder.Optimizer.session}, which holds all of its state: the
    circuit, the input statistics, the external load, the objective and
    every gate's decision. [apply] stages and validates a batch of edits
    and hands it on classified: only the fan-out cones of the edited
    nets are re-propagated and only the dirty gates re-swept, in place.
    The per-edit cost is proportional to the edit's cone, not the
    circuit: a configuration edit re-sweeps one gate and allocates
    nothing of the circuit's size, and only a rewiring rebuilds the
    circuit. The report, circuit and ledger are snapshots built on first
    read, each bit-identical to a cold full optimization of the edited
    circuit (the [incremental-equivalence] proptest oracle).

    Observability: the [incremental.edits] counter here, plus the
    optimizer's [incremental.applies] / [incremental.dirty_nets] /
    [incremental.dirty_gates] / [incremental.cutoffs] counters and
    [incremental.apply] span; a ledger read opens {!Attrib}'s
    [attrib.build] span and counts one [attrib.ledgers_built]. *)

type edit =
  | Set_input_stats of Netlist.Circuit.net * Stoch.Signal_stats.t
      (** Change a primary input's probability/density. The net must be
          a primary input. *)
  | Replace_gate of int * Netlist.Circuit.gate
      (** Swap the gate at an index: cell, configuration and fanins may
          all change; the output net normally stays (any rewiring must
          leave every net exactly one driver — validated by
          {!Netlist.Circuit.create}). *)
  | Set_external_load of float  (** Primary-output load, F. *)
  | Set_objective of Reorder.Optimizer.objective
      (** Re-decide every gate under a new objective (statistics are
          untouched — the §4.2 invariant). Under a delay objective every
          later apply re-decides every gate too. *)

exception Edit_error of string
(** An invalid edit (unknown net, non-PI stats target, bad gate index,
    configuration out of range, broken rewiring, negative load,
    malformed script line). A failing [apply] batch leaves the session
    untouched. *)

type t

val create :
  Power.Model.table ->
  delay:Delay.Elmore.table ->
  ?external_load:float ->
  ?objective:Reorder.Optimizer.objective ->
  ?input_reordering_only:bool ->
  ?memoize:bool ->
  ?pool:Par.Pool.t ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  t
(** Run the initial (cold) optimization, {!Reorder.Optimizer.start},
    and keep its session; counts one [incremental.cold_runs]. [inputs]
    is read once per primary input, by that run. [memoize] (default
    false) keeps one warm {!Reorder.Memo} for the session's whole
    lifetime. No ledger is built. *)

val apply : ?pool:Par.Pool.t -> t -> edit list -> unit
(** Validate and apply one batch of edits: re-optimize incrementally.
    The next {!report} is bit-identical to a cold
    {!Reorder.Optimizer.optimize} of the edited circuit (except
    [configurations_explored], which counts only re-examined
    candidates). @raise Edit_error without mutating. *)

(** {1 Accessors}

    {!report}, {!circuit} and {!ledger} are snapshots: built on the
    first read after an apply, then shared by every read until the next
    apply, and never changed by later applies. The ledger is
    {!Attrib.of_session} of the session: a session nobody asks for a
    ledger never builds one. The other accessors read the session's
    current state. *)

val report : t -> Reorder.Optimizer.report

val circuit : t -> Netlist.Circuit.t
(** The settled circuit: the report's rewrite (winning configs). *)

val ledger : t -> Attrib.t

val session : t -> Reorder.Optimizer.session
val objective : t -> Reorder.Optimizer.objective
val external_load : t -> float

val input_stats : t -> Netlist.Circuit.net -> Stoch.Signal_stats.t
(** Current statistics of a primary input.
    @raise Edit_error on a gate-driven net. *)

(** {1 NDJSON edit scripts}

    One line per [apply] batch: either a single edit object or an array
    of edit objects. Blank lines and [#] comments are skipped. Ops:

    {v
{"op":"set_input_stats","net":"a","prob":0.5,"density":2.0e8}
{"op":"replace_gate","gate":3,"cell":"nor2","config":0,"fanins":["x","y"]}
{"op":"set_external_load","farads":2.5e-14}
{"op":"set_objective","objective":"max_power"}
[{"op":"set_input_stats",...},{"op":"set_input_stats",...}]
    v}

    [replace_gate] keeps the old gate's output net; [cell], [config]
    and [fanins] default to the old gate's values. Net and gate
    references resolve against the given circuit (names and indices
    are stable across applies). An edit the circuit cannot take is
    refused when the script loads: a [set_input_stats] on a
    gate-driven net, or a negative or non-finite load. *)

module Script : sig
  val edit_of_json : circuit:Netlist.Circuit.t -> Trace.Json.t -> edit
  (** @raise Edit_error on malformed or unresolvable edits. *)

  val parse : circuit:Netlist.Circuit.t -> string -> edit list list
  (** Whole script text to apply batches. @raise Edit_error with the
      offending 1-based line number. *)

  val load : circuit:Netlist.Circuit.t -> string -> edit list list
  (** [parse] a file. @raise Edit_error naming the file, then the line
      as [parse] does, or why the file cannot be read. *)

  val objective_of_string : string -> Reorder.Optimizer.objective
  (** @raise Edit_error on an unknown name. *)

  val string_of_objective : Reorder.Optimizer.objective -> string
end

(** {1 Replay} *)

type timing = {
  batch : int;  (** index into the script *)
  edits : int;  (** edits in the batch *)
  seconds : float;  (** wall-clock time of the [apply] *)
  dirty_gates : int;  (** gates re-swept *)
}

val replay : ?pool:Par.Pool.t -> t -> edit list list -> timing list
(** Apply each batch in order, timing every [apply]. *)

val latency_percentiles : timing list -> float * float * float
(** [(p50, p90, p99)] of the batch latencies, in seconds (linear
    interpolation between order statistics; zeros on an empty list). *)
