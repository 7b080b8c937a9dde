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
    topological order. A cold {!optimize} is an incremental settle with
    every gate dirty: {!Power.Analysis.run}, the sweep, then one fold of
    the per-gate powers in {!Power.Estimate.circuit}'s summation order.
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

    A {!session} retains everything a power-objective run computed —
    the rewritten circuit, the per-net statistics, each gate's output
    load and winning-configuration internal and output power — so the next
    {!optimize} call with the same session only pays for what changed:
    it diffs the incoming circuit, input statistics, external load and
    objective against the cache, re-runs Najm propagation over the
    fan-out cones of the edited nets with a bit-identical early
    cut-off (§4.2: statistics are configuration-independent, so pure
    re-sweeps dirty nothing downstream), re-sweeps only the dirty
    gates, and re-folds the cached per-gate powers in
    {!Power.Estimate.circuit}'s summation order. The report is
    bit-identical to a cold full run on the same arguments — the
    [incremental-equivalence] proptest oracle enforces this — except
    for [configurations_explored], which counts only the candidates
    actually re-examined.

    The fast path covers [Min_power] / [Max_power] with the same power
    table and circuit shape (net/gate counts, primary inputs and
    outputs); anything else falls back to a full run that reseeds the
    cache ([incremental.cold_runs]). Observability:
    [incremental.applies], [incremental.dirty_nets],
    [incremental.dirty_gates], [incremental.cutoffs] counters and the
    [incremental.apply] span. *)

type session

val session : ?memoize:bool -> unit -> session
(** A fresh session with no cached run. [memoize] (default [false])
    gives the session its own {!Memo.t}, kept warm across every apply
    ({!Memo.merge}); the memoization mode is fixed for the session's
    lifetime because memoized and unmemoized sweeps may legitimately
    disagree near quantization boundaries. When a session is passed to
    {!optimize}, the session's memo policy wins: an explicit [?memo]
    argument is merged into the session's memo if it has one, and
    ignored otherwise. *)

val session_memo : session -> Memo.t option
val session_circuit : session -> Netlist.Circuit.t option
(** The last run's rewritten circuit (winning configurations). *)

val session_stats : session -> Stoch.Signal_stats.t array option
(** The last run's per-net statistics, indexed by net (a copy). *)

val session_dirty : session -> bool array option
(** Which gates the most recent apply re-swept, indexed by gate (all
    [true] after a cold run; a copy). *)

val optimize :
  Power.Model.table ->
  delay:Delay.Elmore.table ->
  ?external_load:float ->
  ?objective:objective ->
  ?input_reordering_only:bool ->
  ?pool:Par.Pool.t ->
  ?memo:Memo.t ->
  ?session:session ->
  Netlist.Circuit.t ->
  inputs:(Netlist.Circuit.net -> Stoch.Signal_stats.t) ->
  report
(** [input_reordering_only] (default false) restricts candidates to the
    reference configuration's layout shape — the §2 input-reordering
    subset, used as an ablation baseline.

    [pool] (default none) maps each level of several gates across the
    pool's domains, every worker reading the one shared power table,
    when the pool has [jobs > 1] and the objective is [Min_power] or
    [Max_power]. Everything else runs inline on the calling domain:
    [jobs = 1], single-gate levels, [Min_delay] and
    [Min_power_delay_bounded] (both read the Elmore table, whose cache
    is an unsynchronized [Hashtbl]).

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
