(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md §5 for the experiment index) and runs Bechamel
   micro-benchmarks of the core computations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3_a perf
   Targets: table1 table2 figure5 table3_a table3_b adder_profile
            ablation_delay ablation_inputreorder model_accuracy
            probe_overhead perf perf_parallel perf_mc telemetry_overhead *

   Regression gating against a stored BENCH_obs.json:
     dune exec bench/main.exe -- --baseline OLD.json --check table2 perf
   compares counters (two-sided, deterministic for fixed seeds) and
   wall-clock (one-sided, generous tolerance) per target and exits 1
   on any violation. --no-time restricts the gate to counters, which
   is what the committed CI fixture uses (see bench/dune). *)

let ctx = Experiments.Common.create ()

let section title = Printf.printf "==== %s ====\n%!" title

(* Per-target observability metrics (an Obs snapshot captured right
   after the target ran), serialized to BENCH_obs.json at exit — and
   appended, one NDJSON record per target, to BENCH_history.ndjson so
   the trajectory survives the snapshot's overwrite. Tuple:
   (target, start epoch seconds, wall seconds, snapshot). *)
let metrics : (string * float * float * Json.t) list ref = ref []

(* With --archive DIR, every target additionally becomes a run record
   DIR/<target>/ (deterministic id, overwritten on re-run) so archived
   bench runs can be compared with `treorder runs diff` — the committed
   fixture gate in bench/dune rests on this. *)
let archive_dir : string option ref = ref None

let timed name f =
  Obs.reset ();
  let pending =
    Option.map
      (fun _ ->
        let p =
          Runlog.start ~subcommand:"bench"
            ~argv:(List.tl (Array.to_list Sys.argv))
            ()
        in
        Runlog.set_param p "target" name;
        p)
      !archive_dir
  in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  Printf.printf "[%s: %.1f s]\n\n%!" name seconds;
  let snapshot = Obs.json_of_snapshot (Obs.snapshot ()) in
  metrics := (name, t0, seconds, snapshot) :: !metrics;
  (match (pending, !archive_dir) with
  | Some p, Some dir -> (
      match
        Runlog.write ~id:name ~dir ~snapshot_json:(Json.print snapshot) p
      with
      | Ok run_dir -> Printf.printf "[archived %s]\n%!" run_dir
      | Error msg ->
          Printf.eprintf "cannot write run archive: %s\n" msg;
          exit 1)
  | _ -> ());
  r

let write_metrics path =
  let oc = open_out path in
  let target (name, _time, seconds, snapshot) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("seconds", Json.Num seconds);
        ("metrics", snapshot);
      ]
  in
  output_string oc
    (Json.ndjson
       [ Json.Obj [ ("targets", Json.Arr (List.rev_map target !metrics)) ] ]);
  close_out oc

(* The snapshot file above is overwritten per invocation; the history
   file is append-only, one NDJSON record per target, so consecutive
   bench runs accumulate the trajectory `treorder runs history --bench`
   reads. All records go out in a single O_APPEND write, so a
   concurrent bench invocation cannot interleave partial lines; a
   truncated tail (killed mid-write) is skipped by the tolerant
   reader. *)
let append_history path =
  let argv =
    Json.Arr (List.map (fun a -> Json.Str a) (List.tl (Array.to_list Sys.argv)))
  in
  let record (name, time, seconds, snapshot) =
    Json.Obj
      [
        ("v", Json.int 1);
        ("time", Json.Num time);
        ("target", Json.Str name);
        ("argv", argv);
        ("seconds", Json.Num seconds);
        ("metrics", snapshot);
      ]
  in
  let payload = Json.ndjson (List.rev_map record !metrics) in
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot append bench history %s: %s\n" path
        (Unix.error_message e);
      exit 1
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let n = Unix.write_substring fd payload 0 (String.length payload) in
          if n <> String.length payload then begin
            Printf.eprintf "cannot append bench history %s: short write\n"
              path;
            exit 1
          end)

(* --- reproduction targets --- *)

let table1 () =
  section "E1 / Table 1";
  print_string (Experiments.Table1.render (Experiments.Table1.run ctx))

let table2 () =
  section "E2 / Table 2";
  print_string (Experiments.Table2.render (Experiments.Table2.run ()))

let figure5 () =
  section "E3 / Figure 5";
  print_string (Experiments.Figure5.render (Experiments.Figure5.run ()))

let table3 scenario () =
  section ("E4 / Table 3, scenario " ^ Power.Scenario.name scenario);
  print_string
    (Experiments.Table3.render (Experiments.Table3.run ctx scenario))

let adder_profile () =
  section "E5 / ripple-carry carry activity";
  print_string
    (Experiments.Adder_profile.render
       (Experiments.Adder_profile.run ctx ~bits:16 ()))

(* E9 runs the timed switch-level simulator on every circuit, its
   expensive step, so it keeps to a representative medium subset. *)
let ablation_subset () =
  List.map
    (fun n -> (n, Circuits.Suite.find n))
    [
      "c17"; "rca4"; "par9"; "mux8"; "dec3"; "alu1"; "maj5"; "prio8";
      "cmpeq4"; "cmpgt4"; "inc6"; "tree16"; "rnd_a"; "rca8"; "mux16";
    ]

let ablation_delay () =
  section "E6 / delay-bounded reordering";
  print_string
    (Experiments.Ablations.render_delay_bounded
       (Experiments.Ablations.delay_bounded ctx Power.Scenario.A))

let ablation_inputreorder () =
  section "E7 / input reordering vs transistor reordering";
  print_string
    (Experiments.Ablations.render_input_reordering
       (Experiments.Ablations.input_reordering ctx Power.Scenario.A))

let glitch () =
  section "E9 / glitch power (timed simulation)";
  print_string
    (Experiments.Glitch.render
       (Experiments.Glitch.run ctx ~circuits:(ablation_subset ())
          Power.Scenario.A))

let exactness () =
  section "E11 / local vs exact densities";
  print_string (Experiments.Exactness.render (Experiments.Exactness.run ctx ()))

let sequential () =
  section "E12 / latch-bounded machines";
  print_string
    (Experiments.Sequential_exp.render (Experiments.Sequential_exp.run ctx ()))

let gate_accuracy () =
  section "E13 / per-gate model vs exhaustive enumeration";
  print_string
    (Experiments.Gate_accuracy.render (Experiments.Gate_accuracy.run ctx ()))

let sensitivity () =
  section "E10 / process sensitivity";
  print_string (Experiments.Sensitivity.render (Experiments.Sensitivity.run ()))

let model_accuracy () =
  section "E8 / model vs switch-level power";
  print_string
    (Experiments.Ablations.render_accuracy
       (Experiments.Ablations.model_accuracy ctx Power.Scenario.A))

(* --- Bechamel micro-benchmarks (P1-P5) --- *)

let perf () =
  section "P1-P5 / Bechamel micro-benchmarks";
  let open Bechamel in
  let bdd_apply =
    (* P1: BDD construction + apply over a mid-size function. *)
    Test.make ~name:"bdd_apply"
      (Staged.stage (fun () ->
           let m = Bdd.manager () in
           let f = ref (Bdd.zero m) in
           for i = 0 to 7 do
             f := Bdd.(!f ||| (var m i &&& nvar m ((i + 1) mod 8)))
           done;
           ignore (Bdd.probability !f (fun _ -> 0.5))))
  in
  let hg_extraction =
    (* P2: H/G path functions of the widest library gate. *)
    let config = Cell.Config.reference (Cell.Gate.of_name "aoi222") in
    let network = Cell.Config.network config in
    Test.make ~name:"hg_extraction"
      (Staged.stage (fun () ->
           let m = Bdd.manager () in
           List.iter
             (fun node ->
               ignore (Sp.Network.h_function m network node);
               ignore (Sp.Network.g_function m network node))
             (Sp.Network.power_nodes network)))
  in
  let gate_exploration =
    (* P3: full power exploration of one aoi221 (24 configurations). *)
    let gate = Cell.Gate.of_name "aoi221" in
    let input_stats =
      Array.init 5 (fun i ->
          Stoch.Signal_stats.make ~prob:0.5
            ~density:(10. ** (4. +. float_of_int i)))
    in
    Test.make ~name:"gate_exploration"
      (Staged.stage (fun () ->
           for config = 0 to Cell.Gate.config_count gate - 1 do
             ignore
               (Power.Model.gate_power ctx.Experiments.Common.power gate
                  ~config ~input_stats ~load:20e-15 ())
           done))
  in
  let optimize_rca8 =
    (* P4: whole-circuit greedy optimization. *)
    let circuit = Circuits.Suite.find "rca8" in
    let inputs =
      Power.Scenario.input_stats ~rng:(Stoch.Rng.create 1) Power.Scenario.A
        circuit
    in
    Test.make ~name:"optimize_rca8"
      (Staged.stage (fun () ->
           ignore
             (Reorder.Optimizer.optimize ctx.Experiments.Common.power
                ~delay:ctx.Experiments.Common.delay circuit ~inputs)))
  in
  let switchsim_c17 =
    (* P5: event throughput of the switch-level simulator. *)
    let circuit = Circuits.Suite.find "c17" in
    let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
    let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
    Test.make ~name:"switchsim_c17_1k_events"
      (Staged.stage (fun () ->
           ignore
             (Switchsim.Sim.run_stats sim ~rng:(Stoch.Rng.create 3) ~stats
                ~horizon:2e-3 ())))
  in
  let tests =
    Test.make_grouped ~name:"treorder"
      [ bdd_apply; hg_extraction; gate_exploration; optimize_rca8; switchsim_c17 ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Report.Table.create
      ~columns:
        [ ("benchmark", Report.Table.Left); ("time/run", Report.Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let estimate =
        match Analyze.OLS.estimates r with
        | Some [ t ] -> Report.Table.cell_time (t *. 1e-9)
        | Some _ | None -> "n/a"
      in
      Report.Table.add_row table [ name; estimate ])
    (List.sort compare rows);
  Report.Table.print table

(* Parallel optimizer: sequential vs domain-pool wall-clock over the
   larger suite circuits, with the bit-identical-report check inline (a
   speedup that changes results would be a bug, not a win). Speedups and
   memo hit-rates land in BENCH_obs.json as perf_parallel.*
   distributions next to the optimizer.memo_hits/misses counters.
   TREORDER_JOBS overrides the domain count (the Makefile's JOBS= knob). *)
let d_par_speedup = Obs.distribution "perf_parallel.speedup"
let d_par_memo_hit_rate = Obs.distribution "perf_parallel.memo_hit_rate_pct"

let perf_parallel () =
  let jobs =
    match Sys.getenv_opt "TREORDER_JOBS" with
    | Some _ -> Par.Pool.default_jobs ()
    | None -> Stdlib.max 4 (Domain.recommended_domain_count ())
  in
  section (Printf.sprintf "perf_parallel / gate sweeps across %d domains" jobs);
  let reps = 3 in
  let c_hits = Obs.counter "optimizer.memo_hits" in
  let c_misses = Obs.counter "optimizer.memo_misses" in
  Par.Pool.with_pool ~jobs @@ fun pool ->
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("sequential", Report.Table.Right);
          (Printf.sprintf "%d domains" jobs, Report.Table.Right);
          ("speedup", Report.Table.Right);
          ("memo hits", Report.Table.Right);
        ]
  in
  List.iter
    (fun name ->
      let circuit = Circuits.Suite.find name in
      (* Scenario B (latched inputs, uniform P/D): the memo keys on
         quantized input statistics, so its hit rate is
         workload-dependent — near-identical stats repeating down a
         carry chain hit ~90%, scenario A's per-input random draws
         almost never collide. Benchmark the regime the memo is for. *)
      let inputs =
        Power.Scenario.input_stats ~rng:(Stoch.Rng.create 7) Power.Scenario.B
          circuit
      in
      let optimize ?pool ?memo () =
        Reorder.Optimizer.optimize ctx.Experiments.Common.power
          ~delay:ctx.Experiments.Common.delay ?pool ?memo circuit ~inputs
      in
      let best f =
        let rec go k acc =
          if k = 0 then acc
          else
            let t0 = Unix.gettimeofday () in
            ignore (f ());
            go (k - 1) (Float.min acc (Unix.gettimeofday () -. t0))
        in
        go reps Float.infinity
      in
      (* One warm-up run so both sides measure sweeps against compiled
         power-model programs, not their compilation. *)
      let reference = optimize () in
      let t_seq = best (fun () -> optimize ()) in
      let t_par = best (fun () -> optimize ~pool ()) in
      let parallel = optimize ~pool () in
      if
        parallel.Reorder.Optimizer.power_after
        <> reference.Reorder.Optimizer.power_after
        || parallel.Reorder.Optimizer.configs
           <> reference.Reorder.Optimizer.configs
      then begin
        Printf.eprintf "perf_parallel: %s: parallel run is not bit-identical\n"
          name;
        exit 1
      end;
      let h0 = Obs.value c_hits and m0 = Obs.value c_misses in
      ignore (optimize ~pool ~memo:(Reorder.Memo.create ()) ());
      let hits = Obs.value c_hits - h0 and misses = Obs.value c_misses - m0 in
      let hit_rate =
        if hits + misses = 0 then 0.
        else 100. *. float_of_int hits /. float_of_int (hits + misses)
      in
      let speedup = if t_par > 0. then t_seq /. t_par else 0. in
      Obs.observe d_par_speedup speedup;
      Obs.observe d_par_memo_hit_rate hit_rate;
      Report.Table.add_row table
        [
          name;
          Report.Table.cell_time t_seq;
          Report.Table.cell_time t_par;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%d/%d (%.0f%%)" hits (hits + misses) hit_rate;
        ])
    [ "rca8"; "rca16"; "tree16"; "mux16" ];
  Report.Table.print table

(* Generator + oracle throughput of the property-based testing
   subsystem. The [proptest.cases_run] counter lands in BENCH_obs.json
   next to this target's [seconds], so cases-per-second is trackable
   across commits. *)
let proptest () =
  section "proptest / generator + oracle throughput";
  let count = 300 in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (Proptest.Runner.run ~seed:42 ~count ~size:12)
      (Proptest.Oracles.all ())
  in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter (fun r -> Format.printf "%a@." Proptest.Runner.pp_result r) results;
  let cases =
    List.fold_left (fun acc r -> acc + r.Proptest.Runner.cases_run) 0 results
  in
  Printf.printf "throughput: %d cases in %.2f s = %.0f cases/s\n" cases dt
    (float_of_int cases /. dt)

(* Probe overhead: the same deterministic simulation with and without
   an observer attached. The wall-clock ratio quantifies the cost of
   signal-level observability; the [switchsim.probe_events] counter
   (observer run only) lands in BENCH_obs.json, deterministic for the
   fixed seed, so the event volume itself is regression-gated. *)
let probe_overhead () =
  section "probe overhead / observer on vs off";
  let circuit = Circuits.Suite.find "c17" in
  let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
  let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let horizon = 2e-2 in
  let run ?observer () =
    let t0 = Unix.gettimeofday () in
    let r =
      Switchsim.Sim.run_stats sim ~rng:(Stoch.Rng.create 3) ~stats ~horizon
        ?observer ()
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let bare, t_off = run () in
  let seen = ref 0 in
  let observer =
    {
      Switchsim.Sim.on_net =
        (fun ~time:_ ~net:_ ~before:_ ~after:_ ~in_window:_ -> incr seen);
      on_internal =
        Some (fun ~time:_ ~gate:_ ~node:_ ~before:_ ~after:_ ~in_window:_ ->
            incr seen);
      on_energy = Some (fun ~time:_ ~gate:_ ~node:_ ~energy:_ -> incr seen);
    }
  in
  let observed, t_on = run ~observer () in
  assert (observed.Switchsim.Sim.energy = bare.Switchsim.Sim.energy);
  Printf.printf "events:   %d input transitions, %d probe callbacks\n"
    bare.Switchsim.Sim.events !seen;
  Printf.printf "observer off: %.3f s\nobserver on:  %.3f s\n" t_off t_on;
  if t_off > 0. then
    Printf.printf "overhead: %+.1f%%\n" (100. *. ((t_on /. t_off) -. 1.))

(* Monte-Carlo throughput: the bit-parallel engine vs the event-driven
   simulator at an equal sample budget — the simulator gets one
   trajectory of the same total signal-time the engine samples
   (horizon = samples x dt). Speedup and gate-eval throughput land in
   BENCH_obs.json as perf_mc.* distributions; the mc.* counters are
   deterministic for the fixed seed and regression-gated. *)
let d_mc_speedup = Obs.distribution "perf_mc.speedup"
let d_mc_gate_evals = Obs.distribution "perf_mc.gate_evals_per_s"

let perf_mc () =
  section "perf_mc / bit-parallel Monte-Carlo vs switch-level simulation";
  let reps = 3 in
  let samples = 65536 in
  let c_words = Obs.counter "mc.words_evaluated" in
  let best ?(reps = reps) f =
    let rec go k acc =
      if k = 0 then acc
      else
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        go (k - 1) (Float.min acc (Unix.gettimeofday () -. t0))
    in
    go reps Float.infinity
  in
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("mc", Report.Table.Right);
          ("gate-evals/s", Report.Table.Right);
          ("switchsim", Report.Table.Right);
          ("speedup", Report.Table.Right);
        ]
  in
  List.iter
    (fun name ->
      let circuit = Circuits.Suite.find name in
      (* Scenario B (uniform latched-input statistics): every circuit
         samples at the same dt, so throughput scales with structure
         rather than with one unlucky input's extreme probability. *)
      let inputs =
        Power.Scenario.input_stats ~rng:(Stoch.Rng.create 42) Power.Scenario.B
          circuit
      in
      let estimate () =
        Mc.estimate ctx.Experiments.Common.power ~samples ~seed:42 ~inputs
          circuit
      in
      let r = estimate () in
      let w0 = Obs.value c_words in
      let t_mc = best estimate in
      let words = (Obs.value c_words - w0) / reps in
      (* 64 independent lanes per word op *)
      let gate_evals_per_s = float_of_int (words * 64) /. t_mc in
      (* Equal budget: one simulator trajectory covering the same total
         signal-time the engine sampled across all its trajectories. *)
      let horizon = float_of_int r.Mc.samples *. r.Mc.dt in
      let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
      (* One timed simulator run: at these speedup ratios its noise is
         irrelevant, and three reps would dominate the bench's clock. *)
      let t_sim =
        best ~reps:1 (fun () ->
            Switchsim.Sim.run_stats sim
              ~rng:(Stoch.Rng.create 43)
              ~stats:inputs ~horizon ())
      in
      let speedup = if t_mc > 0. then t_sim /. t_mc else 0. in
      Obs.observe d_mc_speedup speedup;
      Obs.observe d_mc_gate_evals gate_evals_per_s;
      Report.Table.add_row table
        [
          name;
          Report.Table.cell_time t_mc;
          Printf.sprintf "%.3g" gate_evals_per_s;
          Report.Table.cell_time t_sim;
          Printf.sprintf "%.1fx" speedup;
        ];
      if speedup < 10. then
        Printf.eprintf
          "perf_mc: %s: mc is only %.1fx faster than switchsim at an equal \
           sample budget (expected >= 10x on an idle machine)\n"
          name speedup)
    [ "c17"; "tree16"; "rca8"; "rca16" ];
  Report.Table.print table

(* Telemetry sampler overhead: the same optimizer run with the sampler
   off and with it ticking at a 1 ms cadence — 250x the production
   default, so the measured delta is a hard upper bound. The optimizer
   counters are identical either way (the sampler is read-only) and
   those are what the fixture gates; the sampler's own obs.sample_ns
   cost counter is wall-clock in disguise and excluded from the gate
   like every _ns counter. *)
let d_tel_overhead = Obs.distribution "telemetry_overhead.percent"

let telemetry_overhead () =
  section "telemetry_overhead / sampler on vs off";
  let circuit = Circuits.Suite.find "rca16" in
  let inputs =
    Power.Scenario.input_stats ~rng:(Stoch.Rng.create 42) Power.Scenario.A
      circuit
  in
  let run () =
    let t0 = Unix.gettimeofday () in
    let r =
      Reorder.Optimizer.optimize ctx.Experiments.Common.power
        ~delay:ctx.Experiments.Common.delay circuit ~inputs
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let off, t_off = run () in
  Telemetry.start ~interval:0.001 ();
  let on_, t_on = run () in
  Telemetry.stop ();
  (* read-only observer: the optimized result must be bit-identical *)
  assert (
    off.Reorder.Optimizer.power_after = on_.Reorder.Optimizer.power_after
    && off.Reorder.Optimizer.configs = on_.Reorder.Optimizer.configs);
  let n_samples = List.length (Telemetry.series ()) in
  let cost_ns = Obs.value (Obs.counter "obs.sample_ns") in
  Printf.printf
    "sampler off: %.3f s\nsampler on:  %.3f s (%d samples, %.2f ms \
     self-measured)\n"
    t_off t_on n_samples
    (float_of_int cost_ns /. 1e6);
  if t_off > 0. then begin
    let pct = 100. *. ((t_on /. t_off) -. 1.) in
    Obs.observe d_tel_overhead pct;
    Printf.printf "overhead: %+.1f%%\n" pct
  end

(* --- driver --- *)

(* --- perf_eco: interactive-latency incremental re-sweeps ------------- *)

(* A ~10k-gate random circuit is cold-optimized once into an
   Incremental session, then scripted single-gate configuration edits
   replay through the dirty-cone engine. Interactive-latency targets:
   median apply under 1 ms and at least 20x the cold full run, with
   the settled state bit-identical to a cold optimization of the final
   circuit (checked here, and by the incremental-equivalence oracle on
   random circuits). eco.median_ms / eco.speedup land in
   BENCH_obs.json next to the incremental.* counters. *)
let d_eco_median_ms = Obs.distribution "eco.median_ms"
let d_eco_speedup = Obs.distribution "eco.speedup"

let perf_eco () =
  section "perf_eco / single-gate ECO edits on a 10k-gate circuit";
  let module C = Netlist.Circuit in
  let module O = Reorder.Optimizer in
  let circuit =
    Circuits.Generators.random_logic ~seed:11 ~inputs:64 ~gates:10_000
  in
  let inputs =
    Power.Scenario.input_stats ~rng:(Stoch.Rng.create 5) Power.Scenario.A
      circuit
  in
  (* The cold reference: a full session-free optimization. *)
  let t0 = Unix.gettimeofday () in
  let cold_rep =
    O.optimize ctx.Experiments.Common.power ~delay:ctx.Experiments.Common.delay
      circuit ~inputs
  in
  let cold_s = Unix.gettimeofday () -. t0 in
  let sess =
    Incremental.create ctx.Experiments.Common.power
      ~delay:ctx.Experiments.Common.delay circuit ~inputs
  in
  let settled = Incremental.circuit sess in
  if (Incremental.report sess).O.power_after <> cold_rep.O.power_after then begin
    Printf.eprintf "perf_eco: session cold run differs from plain cold run\n";
    exit 1
  end;
  (* Scripted single-gate edits: configuration flips spread over the
     whole circuit, each re-sweeping only the edited gate's cone. *)
  let rng = Stoch.Rng.create 23 in
  let batches =
    List.init 50 (fun _ ->
        let g = Stoch.Rng.int rng (C.gate_count settled) in
        let gate = C.gate_at settled g in
        let k = Cell.Gate.config_count gate.C.cell in
        [ Incremental.Replace_gate (g, { gate with C.config = Stoch.Rng.int rng k }) ])
  in
  let timings = Incremental.replay sess batches in
  let p50, p90, p99 = Incremental.latency_percentiles timings in
  let resweeps =
    List.fold_left (fun acc t -> acc + t.Incremental.dirty_gates) 0 timings
  in
  (* Settle and verify the fixed point against a cold full run. *)
  Incremental.apply sess [];
  let final = Incremental.report sess in
  let verify =
    O.optimize ctx.Experiments.Common.power ~delay:ctx.Experiments.Common.delay
      (Incremental.circuit sess)
      ~inputs:(Incremental.input_stats sess)
  in
  if
    verify.O.configs <> final.O.configs
    || verify.O.power_after <> final.O.power_after
  then begin
    Printf.eprintf "perf_eco: settled state is not a cold-run fixed point\n";
    exit 1
  end;
  let speedup = if p50 > 0. then cold_s /. p50 else 0. in
  Obs.observe d_eco_median_ms (p50 *. 1e3);
  Obs.observe d_eco_speedup speedup;
  Printf.printf "cold full run:    %.1f ms (%d gates)\n" (cold_s *. 1e3)
    (C.gate_count circuit);
  Printf.printf "%d single-gate edits: %d gates re-swept\n"
    (List.length timings) resweeps;
  Printf.printf "apply latency:    p50 %.3f ms   p90 %.3f ms   p99 %.3f ms\n"
    (p50 *. 1e3) (p90 *. 1e3) (p99 *. 1e3);
  Printf.printf "speedup:          %.0fx (target: >= 20x, median < 1 ms)\n"
    speedup;
  if p50 *. 1e3 >= 1. || speedup < 20. then begin
    Printf.eprintf
      "perf_eco: interactive-latency target missed (p50 %.3f ms, %.1fx)\n"
      (p50 *. 1e3) speedup;
    exit 1
  end

let targets =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure5", figure5);
    ("table3_a", table3 Power.Scenario.A);
    ("table3_b", table3 Power.Scenario.B);
    ("adder_profile", adder_profile);
    ("ablation_delay", ablation_delay);
    ("ablation_inputreorder", ablation_inputreorder);
    ("model_accuracy", model_accuracy);
    ("glitch", glitch);
    ("sensitivity", sensitivity);
    ("exactness", exactness);
    ("sequential", sequential);
    ("gate_accuracy", gate_accuracy);
    ("proptest", proptest);
    ("probe_overhead", probe_overhead);
    ("perf", perf);
    ("perf_parallel", perf_parallel);
    ("perf_mc", perf_mc);
    ("perf_eco", perf_eco);
    ("telemetry_overhead", telemetry_overhead);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [options] [target ...]\n\
     options:\n\
    \  --out FILE        write metrics to FILE (default BENCH_obs.json)\n\
    \  --history FILE    append one NDJSON record per target to FILE\n\
    \                    (default BENCH_history.ndjson)\n\
    \  --archive DIR     also write one run record per target under DIR\n\
    \  --baseline FILE   compare this run against a stored metrics FILE\n\
    \  --check           exit 1 if the comparison finds regressions\n\
    \  --no-time         gate counters only, ignore wall-clock times\n\
    \  --tol-counters R  relative counter tolerance (default %g)\n\
    \  --tol-time R      relative time tolerance (default %g)\n\
     targets: %s\n"
    Regress.default_tolerance.Regress.counter_rtol
    Regress.default_tolerance.Regress.time_rtol
    (String.concat " " (List.map fst targets));
  exit 2

let () =
  let out = ref "BENCH_obs.json" in
  let history = ref "BENCH_history.ndjson" in
  let baseline = ref None in
  let check = ref false in
  let tol = ref Regress.default_tolerance in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--history" :: path :: rest ->
        history := path;
        parse rest
    | "--archive" :: dir :: rest ->
        archive_dir := Some dir;
        parse rest
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--no-time" :: rest ->
        tol := { !tol with Regress.check_time = false };
        parse rest
    | "--tol-counters" :: r :: rest ->
        tol := { !tol with Regress.counter_rtol = float_of_string r };
        parse rest
    | "--tol-time" :: r :: rest ->
        tol := { !tol with Regress.time_rtol = float_of_string r };
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "unknown option %S\n" arg;
        usage ()
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  (match Array.to_list Sys.argv with _ :: args -> parse args | [] -> ());
  let requested =
    match List.rev !names with [] -> List.map fst targets | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> timed name (fun () -> f ())
      | None ->
          Printf.eprintf "unknown target %S; available: %s\n" name
            (String.concat " " (List.map fst targets));
          exit 1)
    requested;
  write_metrics !out;
  append_history !history;
  match !baseline with
  | None -> ()
  | Some path -> (
      match (Regress.load path, Regress.load !out) with
      | Error e, _ | _, Error e ->
          Printf.eprintf "regression gate: %s\n" e;
          exit 1
      | Ok base, Ok cur ->
          let violations = Regress.compare !tol ~baseline:base ~current:cur in
          let compared = Regress.compared_targets ~baseline:base ~current:cur in
          Printf.printf "regression gate: %d target(s) compared against %s\n"
            (List.length compared) path;
          if violations = [] then
            Printf.printf "regression gate: OK, no regressions\n"
          else begin
            print_string (Regress.render violations);
            Printf.printf "regression gate: %d violation(s)\n"
              (List.length violations);
            if !check then exit 1
          end)
