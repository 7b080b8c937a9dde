(* What the benchmark runs and reports. BENCHMARK.json at the repo root
   must list exactly these names; `perf.exe --self-test` checks it. *)

type kind =
  | Optimize of { bounded : bool; explain : bool }
  | Eco  (** a bench child drives Incremental directly *)
  | Mc  (** `estimate --backend mc -j 2` *)

type workload = {
  name : string;
  why : string;
  gates : int;
  inputs : int;
  kind : kind;
}

(* CLI operations last about a second: the calibration (Calib) follows
   the host's drift only at its edges, and 4 s operations came out three
   times less steady than 1 s ones. The 10k-gate cold path is eco's
   set-up (Incremental.create is a cold optimize plus the ledger). *)
let workloads =
  [
    {
      name = "optimize_rnd2k";
      why =
        "cold 2k-gate optimize: power-model build plus 33k candidate \
         evaluations, the cold path";
      gates = 2_000;
      inputs = 64;
      kind = Optimize { bounded = false; explain = false };
    };
    {
      name = "explain_rnd1k";
      why =
        "1k-gate optimize with --explain-json: model build and ledger \
         serialization dominate";
      gates = 1_000;
      inputs = 32;
      kind = Optimize { bounded = false; explain = true };
    };
    {
      name = "bounded_rnd120";
      why =
        "delay-bounded objective: a full-circuit STA per candidate is almost \
         the whole run";
      gates = 120;
      inputs = 32;
      kind = Optimize { bounded = true; explain = false };
    };
    {
      name = "eco_rnd10k";
      why =
        "ECO sessions on 10k gates: set-up is a cold optimize plus ledger, \
         applies are bookkeeping, not sweep";
      gates = 10_000;
      inputs = 64;
      kind = Eco;
    };
    {
      name = "mc_rnd2k";
      why =
        "Monte-Carlo estimate on a 2-job pool: bypasses the power model and \
         the optimizer, a control";
      gates = 2_000;
      inputs = 64;
      kind = Mc;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The delay-bounded workload. Every traced run also optimizes its
   circuit under that objective, for delay.sta_checks. *)
let bounded =
  List.find (fun w -> w.kind = Optimize { bounded = true; explain = false }) workloads

(* Each workload runs on one fixed generated circuit: a fixed ladder, so
   run-to-run differences measure the program rather than the draw of
   the circuit (across generator seeds a 250-gate bounded run varies by
   45%). The benchmark's --seed draws everything else: the input
   statistics, the Monte-Carlo stream and the ECO script. *)
let circuit_seed = 1

type better = Lower | Higher

type metric = {
  m_name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e m_name unit bound = { m_name; unit; better = Lower; bound = Some bound }
let layer ?(better = Lower) m_name unit = { m_name; unit; better; bound = None }

(* One operation is a CLI invocation, argv to written output, or on
   eco_rnd10k one Incremental.apply. wall_cal and cpu_cal are its times
   in units of the calibration kernel (Calib), setup_s is set-up time in
   calibrated seconds (Calib.seconds); the raw milliseconds are printed
   beside them. *)
let end_to_end =
  [
    e2e "wall_cal" "x" 0.2;
    e2e "cpu_cal" "x" 0.2;
    e2e "peak_rss_mb" "MB" 0.2;
    e2e "setup_s" "s" 0.25;
  ]

let per_layer =
  [
    layer "netlist.parse_ms" "ms";
    layer "netlist.parse_kw" "kw";
    layer "netlist.save_ms" "ms";
    layer "power.model_build_s" "s";
    layer "power.model_build_kw" "kw";
    layer "power.model_builds" "count";
    layer "power.analysis_ms" "ms";
    layer "power.analysis_kw" "kw";
    layer "power.eval_us_per_candidate" "us";
    layer "power.eval_kw_per_candidate" "kw";
    layer "power.estimate_ms" "ms";
    layer "core.optimize_warm_s" "s";
    layer "core.kw_per_gate" "kw";
    layer "core.sweep_self_s" "s";
    layer "core.candidates" "count";
    layer ~better:Higher "core.memo_speedup" "x";
    layer "delay.sta_ms" "ms";
    layer "delay.sta_checks" "count";
    layer "attrib.ledger_ms" "ms";
    layer "attrib.ledger_kw" "kw";
    layer "attrib.json_ms" "ms";
    layer "attrib.json_bytes" "B";
    layer "incremental.apply_kw" "kw";
    layer "incremental.dirty_gates_per_apply" "count";
    layer "mc.j1_s" "s";
    layer ~better:Higher "mc.gate_evals_per_s" "1/s";
    layer ~better:Higher "par.speedup" "x";
    layer "bdd.node_alloc" "count";
    layer "bdd.memo_miss" "count";
    layer "obs.span_calls" "count";
    layer "obs.trace_overhead_pct" "%";
    layer "gc.top_heap_mb" "MB";
    layer "gc.major_collections" "count";
    layer "trace.unexplained_s" "s";
  ]

let string_of_better = function Lower -> "lower" | Higher -> "higher"
