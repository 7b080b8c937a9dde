(** The differential oracle suite: every independently implemented view
    of the same physics, checked against the others on random circuits.

    - [exactness] — gate-local probability/density propagation
      ({!Power.Analysis}) vs the exact global-BDD computation
      ({!Power.Exact}) on read-once circuits, where the paper's
      spatial-independence assumption holds and the two must agree to
      float precision.
    - [sim-power] — analytic model power ({!Power.Estimate}) vs average
      switch-level simulated power ({!Switchsim.Sim}) within a bounded
      factor on read-once circuits (reconvergent fanout makes the
      gate-local model diverge legitimately, which would force a
      vacuous tolerance).
    - [vcd-roundtrip] — a {!Switchsim.Vcd_dump} of a warm-up-free run,
      re-read through {!Vcd.parse}, reproduces the simulation's
      accounting exactly: per-net strict 0↔1 toggle counts equal
      [net_toggles] and each variable's last value equals the
      simulator's final state.
    - [function] — reordering preserves logical function: the simulator
      over the configured transistor networks settles to
      {!Netlist.Eval} on random vectors, and every sampled
      configuration's flattened network computes the cell's function
      BDD.
    - [optimizer] — monotonicity and report consistency of
      {!Reorder.Optimizer}: [power_after <= power_before] for
      [Min_power], best [<=] worst, the chosen configuration matches
      re-evaluation, and the reduction percentage is in [\[0, 100\]].
      [Min_delay] and [Min_power_delay_bounded] must choose exactly the
      configurations of a plain Fig. 3 loop over the topological order
      (the bounded one checking each candidate with a full
      {!Delay.Sta.run}).
    - [io-roundtrip] — {!Netlist.Io} parse ∘ print is the identity on
      generated circuits (text fixpoint and structural equality).
    - [densities] — Najm propagation invariants: every net's
      probability in [\[0, 1\]], density finite and non-negative, and
      the [power.densities_propagated] counter advances exactly once
      per gate (the §4.2 once-per-net property).
    - [attribution] — the {!Attrib} ledger conserves power on optimizer
      runs: per-gate node shares sum to the gate total, per-node
      per-input contributions sum to the node power, and the ledger
      totals match the optimizer report.
    - [parallel-determinism] — {!Reorder.Optimizer.optimize} over a
      4-domain {!Par.Pool} is bit-identical to the sequential run:
      [power_before]/[power_after], the configuration assignment, the
      exploration count and the {!Attrib} ledger totals all match
      exactly, with and without a {!Reorder.Memo}.
    - [sp-orderings] — on random series-parallel networks, every
      electrically distinct reordering conducts identically, the
      closed-form ordering count matches the enumeration, and the
      pivot-based exploration (Fig. 4) visits the same set.
    - [archive-roundtrip] — a {!Runlog} record of an optimizer run on a
      random circuit (manifest, Obs snapshot, {!Attrib} ledger
      attachment) written to a scratch directory loads back bit-exactly:
      manifest fields, parameters, and every per-gate configuration and
      [%.17g]-rendered power survive the JSON round-trip, and the
      record's diff against itself is clean.
    - [mc-convergence] — the bit-parallel Monte-Carlo engine ({!Mc})
      agrees with the rest of the stack twice over: every lane of
      {!Mc.eval_nets} equals the scalar {!Netlist.Eval.nets} on that
      lane's input vector (exactly), and per-net MC densities and
      probabilities at a fixed seed match a {!Switchsim.Sim.run_stats}
      run of the same input model within a few standard errors of both
      estimators (each side carries its own sampling noise; a small
      relative term covers MC's one-transition-per-step time
      discretization).
    - [telemetry-consistency] — the {!Telemetry} sampler is a faithful
      read-only observer: over a manual-interval session wrapping two
      optimizer runs, every counter is monotone non-decreasing across
      the ring, the final forced sample equals the final
      {!Obs.snapshot} (minus the sampler's own [obs.*] cost counters),
      the OpenMetrics rendering round-trips through the strict parser
      value-exactly, and emitted heartbeats keep [percent] inside
      [\[0, 100\]] and monotone within each phase.
    - [history-consistency] — fleet analytics ({!History} / {!Html}) is
      a pure function of the archived bytes: synthetic run records with
      pinned timestamps and [%.17g]-gnarly counters extract
      bit-for-bit, the report JSON is byte-identical across filesystem
      write orders, an injected piecewise-constant step is attributed
      to exactly its first offending run, and the rendered dashboard
      passes {!Html.parse_report} with every series inventoried and a
      deterministic re-render.
    - [incremental-equivalence] — an {!Incremental} session apply
      (random statistics edits plus a configuration flip, then a
      stats-only second batch over the warm cache) is bit-identical to
      a cold full {!Reorder.Optimizer.optimize} of the edited circuit:
      [power_before] / [power_after], every winning configuration, and
      the patched {!Attrib} ledger (totals and per-gate
      before/after entries) all match exactly — sequentially, over a
      4-domain {!Par.Pool}, and with a session {!Reorder.Memo}.

    All properties share one power-model / delay table pair built from
    {!Cell.Process.default} (module state, built lazily). *)

val all : unit -> Runner.t list
(** Every oracle, in the order listed above. *)

val find : string -> Runner.t option
(** Look up one oracle by name. *)

val names : unit -> string list
