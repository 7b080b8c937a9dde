(** The paper's power-optimization algorithm (Fig. 3).

    One depth-first (topological) traversal of the circuit: the
    probability and transition density of every net is computed once
    (they are configuration-independent, §4.2 — the monotonic property
    that makes the greedy pass globally optimal with respect to the
    model); then each gate's configurations are exhaustively explored
    (§4.3) and the one optimizing the objective is selected.

    The implementation is one sweep engine. A single [argmin] fold
    picks each gate's configuration (left to right, replacing only on a
    strictly lower cost, seeded with the incumbent), one per-gate
    decision serves all four objectives, and one driver buckets the
    gates to decide by level and applies each level's decisions in
    topological order. Before any level is decided, the calling domain
    looks up each dirty gate's compiled power program, one per gate
    holding all of its cell's configurations, whatever the objective
    ([optimize.resolve] span), so one domain builds programs, in one
    order, and any domain may run them: a decision evaluates its gate's
    program once ({!Power.Model.eval}) and reads every candidate's
    power, and the gate's powers before and after, off that pass. On a
    cold run the analysis has already built every program, so the
    builds show in [power.analysis]. A cold {!optimize} is an
    incremental settle with every gate dirty: {!Power.Analysis.run}, the
    sweep, then one fold of the per-gate powers in
    {!Power.Estimate.circuit}'s summation order.
    No path runs through two gates of one level, so the level-major
    order gives the paper's configurations — under the delay bound too,
    whose admissibility test depends only on paths through the gate
    being decided — and a pooled run is bit-identical to an inline one:
    same [configs], same [power_after], same counters and distributions.
    Pass a {!Memo.t} to additionally reuse sweep verdicts across
    structurally equivalent gates (see {{!page-performance} the
    performance page}). *)

type objective =
  | Min_power  (** the paper's FIND_BEST_REORDERING *)
  | Max_power
      (** worst-case ordering — the baseline Table 3 compares against *)
  | Min_power_delay_bounded
      (** best power subject to never exceeding the {e circuit}'s
          critical-path delay as received — the paper's "power
          reductions without increasing the delay" future-work
          direction (§6.b). Each tentative choice is checked with one
          forward timing step against its output's required time
          ({!Delay.Sta.required}, computed once per run backward from
          that delay), which decides exactly what a full static timing
          of the circuit would. Note a per-gate worst-case bound would
          be vacuous: symmetric configurations share their worst-case
          pin delay. *)
  | Min_delay
      (** fastest configuration (the speed-oriented reordering of
          Carlson & Chen the paper contrasts with) *)

type report = {
  circuit : Netlist.Circuit.t;  (** rewritten with the chosen configs *)
  configs : int array;  (** chosen configuration per gate *)
  power_before : float;  (** model power of the input circuit, W *)
  power_after : float;  (** model power of the rewritten circuit, W *)
  gates_changed : int;
  configurations_explored : int;
}

val pp_report : Format.formatter -> report -> unit

(** {1 Incremental sessions}

    A {!session} keeps a settled run's state in arrays it owns: the
    per-net statistics and each gate's configuration, output load and
    internal and output power under its winning configuration.
    {!resettle} takes an edit batch the caller has already classified,
    re-runs Najm propagation over the fan-out cones of the edited nets
    only, with a bit-identical early cut-off (§4.2: statistics are
    configuration-independent, so configuration edits move none),
    re-sweeps only the dirty gates and updates their entries in place.
    What it costs is the dirty gates' sweeps: it allocates nothing of
    the circuit's size. The report is a snapshot built on first read,
    bit-identical to a cold {!optimize} of the edited circuit — the
    [incremental-equivalence] proptest oracle enforces this — except for
    [configurations_explored], which counts only the candidates
    re-examined.

    Under [Min_power] / [Max_power] only the dirty gates re-sweep. An
    objective flip re-decides every gate, and so does every settle under
    [Min_delay] or [Min_power_delay_bounded]: [incremental.cold_runs]
    counts those settles (and each [Incremental.create]),
    [incremental.applies] the other settles.
    Observability: [incremental.applies], [incremental.dirty_nets],
    [incremental.dirty_gates], [incremental.cutoffs] counters and the
    [incremental.apply] span. *)

type session

val start :
  Power.Model.table ->
  delay:Delay.Elmore.table ->
  ?external_load:float ->
  ?objective:objective ->
  ?input_reordering_only:bool ->
  ?pool:Par.Pool.t ->
  ?memo:Memo.t ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  session
(** A cold run, every gate dirty, that keeps its state: {!optimize}
    returns its {!session_report}. Arguments as for {!optimize}. [memo]
    stays the session's for its lifetime, warm across every settle; the
    memoization mode cannot change mid-session because memoized and
    unmemoized sweeps may legitimately disagree near quantization
    boundaries. *)

type edits = {
  inputs : (Netlist.Circuit.net * Stoch.Signal_stats.t) list;
      (** new statistics of primary inputs, at most one per net *)
  configs : (int * int) list;
      (** [(gate, configuration)]: the gate keeps its cell and pins *)
  rewired : (Netlist.Circuit.t * int list) option;
      (** the circuit with some gates' cells or pins replaced, and those
          gates; same nets, gates, inputs and outputs *)
  external_load : float;
  objective : objective;
}
(** One batch of edits against the session's circuit, validated. *)

val resettle : ?pool:Par.Pool.t -> session -> edits -> unit
(** Apply the batch and settle the gates it dirties. [pool] as for
    {!optimize}. *)

val session_report : session -> report
(** The last settle's report, built on first read and unchanged by later
    settles. *)

val session_memo : session -> Memo.t option

val session_dirty : session -> bool array option
(** Which gates the last settle re-swept, indexed by gate (all [true]
    after {!start}; a copy, always [Some]). *)

val session_swept : session -> int list
(** The same gates, ascending. *)

(** The session's current state, read in place. *)

val session_table : session -> Power.Model.table

val session_circuit : session -> Netlist.Circuit.t
(** The connectivity: cells, pins and nets. Its configuration fields
    are not the session's; {!session_report} has those. *)

val session_stats : session -> Netlist.Circuit.net -> Stoch.Signal_stats.t
(** A net's statistics: a primary input's as last edited, any other
    net's as propagated. *)

val session_external_load : session -> float
val session_objective : session -> objective

type gate_state = {
  incumbent : int;  (** the configuration the last settle started from *)
  chosen : int;  (** the winner *)
  input_stats : Stoch.Signal_stats.t array;  (** per pin *)
  load : float;  (** output load, F *)
}

val session_gate : session -> int -> gate_state
(** What the last settle decided a gate from, for the attribution
    ledger. A gate it did not sweep started from its winner, so its
    [incumbent] is its [chosen]. *)

val optimize :
  Power.Model.table ->
  delay:Delay.Elmore.table ->
  ?external_load:float ->
  ?objective:objective ->
  ?input_reordering_only:bool ->
  ?pool:Par.Pool.t ->
  ?memo:Memo.t ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  report
(** [input_reordering_only] (default false) restricts candidates to the
    reference configuration's layout shape — the §2 input-reordering
    subset, used as an ablation baseline.

    [pool] (default none) maps each level of several gates across the
    pool's domains when the pool has [jobs > 1], under every objective:
    every worker evaluates the programs the calling domain looked up in
    the power table, one per gate, and the delay objectives read the
    Elmore delays, which cache nothing. [jobs = 1] and single-gate
    levels run inline on the calling domain.

    [memo] (default none) reuses best-configuration verdicts across
    gates with the same cell, pin-tying groups, quantized input
    statistics and load bucket. A memoized choice is computed from the
    key's representative values, so it can differ from the exhaustive
    sweep's near quantization boundaries — the memo is an opt-in
    speed/accuracy trade, and [configurations_explored] still counts
    every candidate the algorithm considered. Memoized runs are
    deterministic: the verdict is a pure function of the key, so domain
    count and scheduling cannot change the result. Applies to
    [Min_power] / [Max_power] only. *)

val best_and_worst :
  Power.Model.table ->
  delay:Delay.Elmore.table ->
  ?external_load:float ->
  ?pool:Par.Pool.t ->
  ?memo:Memo.t ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  report * report
(** [(best, worst)] under [Min_power] / [Max_power] — the pair Table 3's
    reduction percentages are computed from. *)

val reduction_percent : best:float -> worst:float -> float
(** [100·(worst-best)/worst], clamped to [\[0, 100\]] so a degenerate
    pair (e.g. [best > worst] from comparing mismatched scenarios, or a
    negative [best]) never yields a nonsensical percentage; 0 when
    [worst <= 0]. For [0 < best <= worst] the result is in [\[0, 100\]]
    without clamping. *)
