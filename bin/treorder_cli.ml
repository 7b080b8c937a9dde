(* treorder — command-line front end.

   Circuits are referenced either by benchmark-suite name (see
   `treorder list`) or by a path to a netlist file (native format, or
   BLIF with a .blif extension). *)

open Cmdliner

(* Single source of truth for the release version: Cmdliner's --version
   output and the run-archive manifests must agree. *)
let version = "1.0.0"

(* A malformed netlist is one line on stderr and exit 1, like every
   other reader's error. *)
let load_circuit spec =
  if Sys.file_exists spec then (
    match Netlist.Io.load spec with
    | circuit -> circuit
    | exception Netlist.Io.Parse_error { line; message } ->
        Printf.eprintf "error: %s: line %d: %s\n" spec line message;
        exit 1
    | exception (Netlist.Circuit.Invalid message | Sys_error message) ->
        Printf.eprintf "error: %s: %s\n" spec message;
        exit 1)
  else
    try Circuits.Suite.find spec
    with Not_found ->
      Printf.eprintf
        "error: %S is neither a file nor a known benchmark (try `treorder list`)\n"
        spec;
      exit 1

(* Every file a subcommand writes is opened here: a path it cannot
   write is one line on stderr and exit 1, as a reader's error is. *)
let open_output path =
  try open_out_bin path
  with Sys_error message ->
    Printf.eprintf "error: %s\n" message;
    exit 1

(* [-o FILE]: the circuit in the native netlist format. *)
let save_netlist circuit =
  Option.iter (fun path ->
      let oc = open_output path in
      output_string oc (Netlist.Io.to_string circuit);
      close_out oc;
      Printf.printf "wrote %s\n" path)

let circuit_arg =
  let doc = "Benchmark name or netlist file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let scenario_arg =
  let doc = "Input scenario: A (random P/D) or B (latched, P=0.5, D=0.5/cycle)." in
  Arg.(value & opt string "A" & info [ "s"; "scenario" ] ~docv:"A|B" ~doc)

let seed_arg =
  let doc = "Random seed for scenario A statistics and stimuli." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let parse_scenario s =
  try Power.Scenario.of_name s
  with Not_found ->
    Printf.eprintf "error: unknown scenario %S (use A or B)\n" s;
    exit 1

let context () = Experiments.Common.create ()

let scenario_inputs ~seed scenario circuit =
  Power.Scenario.input_stats ~rng:(Stoch.Rng.create seed)
    (parse_scenario scenario) circuit

(* --- numeric and parallelism flags --- *)

(* Counts and lengths that must be positive fail at parse time, with
   Cmdliner's usage message and exit code 124. *)
let positive_int_conv ~what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be at least 1, got %d" what n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float_conv ~what =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some x when x > 0. && Float.is_finite x -> Ok x
    | Some x -> Error (`Msg (Printf.sprintf "%s must be positive, got %g" what x))
    | None -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let jobs_conv = positive_int_conv ~what:"JOBS"

let jobs_arg =
  let doc =
    "Worker domains for parallel gate sweeps. Defaults to \
     $(b,TREORDER_JOBS) when set, otherwise the machine's recommended \
     domain count; 1 forces the sequential path."
  in
  Arg.(
    value
    & opt jobs_conv (Par.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* --- power backend selection (estimate / audit) --- *)

let backend_conv =
  let parse s =
    match Power.Backend.of_name s with
    | b -> Ok b
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown backend %S (expected one of: %s)" s
                (String.concat ", "
                   (List.map Power.Backend.name Power.Backend.all))))
  in
  Arg.conv (parse, Power.Backend.pp)

let backend_arg ~default ~doc =
  Arg.(value & opt backend_conv default & info [ "backend" ] ~docv:"BACKEND" ~doc)

let samples_arg =
  let doc =
    "Monte-Carlo sample budget: net-value observations \
     (trajectories x steps), rounded up to whole blocks. mc backend only."
  in
  Arg.(
    value
    & opt (some (positive_int_conv ~what:"N")) None
    & info [ "samples" ] ~docv:"N" ~doc)

let make_horizon_arg ~doc =
  Arg.(
    value
    & opt (positive_float_conv ~what:"SECONDS") 2e-3
    & info [ "horizon" ] ~docv:"SECONDS" ~doc)

(* The simulator collects statistics from the warm-up to the horizon. *)
let check_warmup ~horizon warmup =
  if not (warmup >= 0. && warmup < horizon) then begin
    Printf.eprintf "error: --warmup %g is outside [0, %g), the horizon\n"
      warmup horizon;
    exit 1
  end

let with_optional_pool ~jobs f =
  if jobs <= 1 then f None
  else Par.Pool.with_pool ~jobs @@ fun pool -> f (Some pool)

(* --- observability flags (shared by every pipeline subcommand) --- *)

let obs_term =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"After the run, print the observability counter and span summary.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write NDJSON trace events (span begin/end, counter samples) to \
             $(docv).")
  in
  let archive =
    Arg.(
      value
      & opt (some string) None
      & info [ "archive" ] ~docv:"DIR"
          ~doc:
            "Write a self-contained run record (manifest with input hashes \
             and parameters, full counter/span snapshot, attribution ledger \
             and audit summary when produced) into a new subdirectory of \
             $(docv). Compare records with $(b,treorder runs diff).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write an OpenMetrics/Prometheus text exposition of the live \
             telemetry to $(docv), rewritten atomically on every sampler \
             tick (implies the sampler; see $(b,--telemetry-interval)). The \
             final exposition is also dropped into $(b,--archive) records \
             as metrics.prom.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "Run the background telemetry sampler even without \
             $(b,--metrics): heartbeat events (phase, percent, ETA, rates, \
             pool utilization) land in the $(b,--trace) stream for \
             $(b,treorder top).")
  in
  let interval =
    Arg.(
      value & opt float 0.25
      & info [ "telemetry-interval" ] ~docv:"SECONDS"
          ~doc:"Telemetry sampler cadence in seconds (default 0.25).")
  in
  Term.(
    const (fun stats trace archive metrics telemetry interval ->
        (stats, trace, archive, metrics, telemetry, interval))
    $ stats $ trace $ archive $ metrics $ telemetry $ interval)

let print_obs_summary () =
  let snap = Obs.snapshot () in
  let counters = List.filter (fun (_, v) -> v > 0) snap.Obs.counters in
  if counters <> [] then begin
    print_newline ();
    let table =
      Report.Table.create
        ~columns:[ ("counter", Report.Table.Left); ("value", Report.Table.Right) ]
    in
    List.iter
      (fun (name, v) -> Report.Table.add_row table [ name; string_of_int v ])
      counters;
    Report.Table.print table
  end;
  let dists =
    List.filter (fun (_, d) -> d.Obs.count > 0) snap.Obs.distributions
  in
  if dists <> [] then begin
    print_newline ();
    let table =
      Report.Table.create
        ~columns:
          [
            ("distribution", Report.Table.Left);
            ("count", Report.Table.Right);
            ("mean", Report.Table.Right);
            ("min", Report.Table.Right);
            ("p50", Report.Table.Right);
            ("p90", Report.Table.Right);
            ("p99", Report.Table.Right);
            ("max", Report.Table.Right);
          ]
    in
    List.iter
      (fun (name, d) ->
        let cell x = Printf.sprintf "%.4g" x in
        Report.Table.add_row table
          [
            name;
            string_of_int d.Obs.count;
            cell (d.Obs.sum /. float_of_int d.Obs.count);
            cell d.Obs.min;
            cell d.Obs.p50;
            cell d.Obs.p90;
            cell d.Obs.p99;
            cell d.Obs.max;
          ])
      dists;
    Report.Table.print table
  end;
  let spans = List.filter (fun (_, s) -> s.Obs.calls > 0) snap.Obs.spans in
  if spans <> [] then begin
    print_newline ();
    let table =
      Report.Table.create
        ~columns:
          [
            ("span", Report.Table.Left);
            ("calls", Report.Table.Right);
            ("total", Report.Table.Right);
            ("slowest", Report.Table.Right);
          ]
    in
    List.iter
      (fun (name, s) ->
        Report.Table.add_row table
          [
            name;
            string_of_int s.Obs.calls;
            Report.Table.cell_time s.Obs.total;
            Report.Table.cell_time s.Obs.slowest;
          ])
      spans;
    Report.Table.print table
  end

(* Reset the registry so the summary reflects this run only, point the
   trace at the requested file, and always close (flushing the final
   counter samples) even when the command raises. With --archive, hand
   the command a pending run record to annotate (inputs, parameters,
   attachments) and finalize it — snapshot included — once the command
   has finished. *)
let with_obs ~cmd (stats, trace, archive, metrics, telemetry, interval) f =
  Obs.reset ();
  Option.iter
    (fun path ->
      match Obs.file_sink path with
      | sink -> Obs.set_sink sink
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot open trace file: %s\n" msg;
          exit 1)
    trace;
  (* The sampler starts after the reset (so obs.sample_ns measures this
     run only) and stops — taking its final forced sample — before the
     stats summary and the archive snapshot, so all three views agree.
     Without --metrics/--telemetry it never starts and obs.sample_ns
     stays 0. *)
  let sampler_on = telemetry || Option.is_some metrics in
  (* The sampler writes FILE.tmp and renames it over FILE, outside
     [open_output]: a path it cannot write fails here, before the run. *)
  Option.iter
    (fun path ->
      let tmp = path ^ ".tmp" in
      close_out (open_output tmp);
      Sys.remove tmp)
    metrics;
  if sampler_on then Telemetry.start ~interval ?metrics_file:metrics ();
  let pending =
    Option.map
      (fun _ ->
        Runlog.start ~tool_version:version ~subcommand:cmd
          ~argv:(List.tl (Array.to_list Sys.argv))
          ())
      archive
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.stop ();
      Obs.close_sink ())
    (fun () ->
      let r = f pending in
      Telemetry.stop ();
      if stats then print_obs_summary ();
      (match (pending, archive) with
      | Some p, Some dir -> (
          let snapshot = Obs.json_of_snapshot (Obs.snapshot ()) in
          match Runlog.write ~dir ~snapshot_json:(Json.print snapshot) p with
          | Ok run_dir ->
              Printf.printf "archived %s\n" run_dir;
              if sampler_on then
                Option.iter
                  (fun s ->
                    let oc =
                      open_output (Filename.concat run_dir "metrics.prom")
                    in
                    output_string oc (Telemetry.to_openmetrics s);
                    close_out oc)
                  (Telemetry.last ())
          | Error msg ->
              Printf.eprintf "error: cannot write run archive: %s\n" msg;
              exit 1)
      | _ -> ());
      r)

let record_params pending kvs =
  Option.iter
    (fun p -> List.iter (fun (k, v) -> Runlog.set_param p k v) kvs)
    pending

(* The circuit parameter doubles as an input file when it names one
   (suite circuits are baked into the binary; files get fingerprinted). *)
let record_circuit pending spec =
  Option.iter
    (fun p ->
      Runlog.set_param p "circuit" spec;
      if Sys.file_exists spec then Runlog.add_input p spec)
    pending

(* --- list --- *)

let list_cmd =
  let run () =
    let table =
      Report.Table.create
        ~columns:
          [
            ("name", Report.Table.Left);
            ("gates", Report.Table.Right);
            ("nets", Report.Table.Right);
            ("inputs", Report.Table.Right);
            ("outputs", Report.Table.Right);
            ("depth", Report.Table.Right);
          ]
    in
    List.iter
      (fun (name, c) ->
        Report.Table.add_row table
          [
            name;
            string_of_int (Netlist.Circuit.gate_count c);
            string_of_int (Netlist.Circuit.net_count c);
            string_of_int (List.length (Netlist.Circuit.primary_inputs c));
            string_of_int (List.length (Netlist.Circuit.primary_outputs c));
            string_of_int (Netlist.Circuit.depth c);
          ])
      (Circuits.Suite.all ());
    Report.Table.print table
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark circuits.")
    Term.(const run $ const ())

(* --- gates --- *)

let gates_cmd =
  let run () = print_string (Experiments.Table2.render (Experiments.Table2.run ())) in
  Cmd.v
    (Cmd.info "gates" ~doc:"Print the gate library and configuration counts (Table 2).")
    Term.(const run $ const ())

(* --- stats --- *)

let stats_cmd =
  let run spec scenario seed obs =
    with_obs ~cmd:"stats" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [ ("scenario", scenario); ("seed", string_of_int seed) ];
    let circuit = load_circuit spec in
    let ctx = context () in
    let inputs = scenario_inputs ~seed scenario circuit in
    let analysis = Power.Analysis.run ctx.Experiments.Common.power circuit ~inputs in
    let table =
      Report.Table.create
        ~columns:
          [
            ("net", Report.Table.Left);
            ("P", Report.Table.Right);
            ("D (1/s)", Report.Table.Right);
          ]
    in
    for net = 0 to Netlist.Circuit.net_count circuit - 1 do
      let s = Power.Analysis.stats analysis net in
      Report.Table.add_row table
        [
          Netlist.Circuit.net_name circuit net;
          Report.Table.cell_float ~decimals:3 (Stoch.Signal_stats.prob s);
          Printf.sprintf "%.4g" (Stoch.Signal_stats.density s);
        ]
    done;
    Report.Table.print table
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Propagate equilibrium probabilities and transition densities.")
    Term.(const run $ circuit_arg $ scenario_arg $ seed_arg $ obs_term)

(* --- estimate --- *)

let estimate_cmd =
  let backend_arg =
    backend_arg ~default:Power.Backend.Analytical
      ~doc:
        "Power backend: analytical (the paper's propagated model), mc \
         (bit-parallel Monte-Carlo sampling of the same input model), or \
         switchsim (event-driven switch-level simulation)."
  in
  let horizon_arg =
    make_horizon_arg
      ~doc:"Simulation horizon in seconds (switchsim backend only)."
  in
  let run spec scenario seed backend samples jobs horizon obs =
    with_obs ~cmd:"estimate" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("backend", Power.Backend.name backend);
      ];
    let circuit = load_circuit spec in
    let ctx = context () in
    let inputs = scenario_inputs ~seed scenario circuit in
    Printf.printf "%s\n" (Format.asprintf "%a" Netlist.Circuit.pp_summary circuit);
    match backend with
    | Power.Backend.Analytical ->
        let analysis =
          Power.Analysis.run ctx.Experiments.Common.power circuit ~inputs
        in
        let b =
          Power.Estimate.circuit ctx.Experiments.Common.power circuit analysis
        in
        Printf.printf "model power:    %s\n"
          (Report.Table.cell_power b.Power.Estimate.total);
        Printf.printf "  internal:     %s\n"
          (Report.Table.cell_power b.Power.Estimate.internal);
        Printf.printf "  output nodes: %s\n"
          (Report.Table.cell_power b.Power.Estimate.output)
    | Power.Backend.Mc ->
        record_params pending [ ("jobs", string_of_int jobs) ];
        Option.iter
          (fun n -> record_params pending [ ("samples", string_of_int n) ])
          samples;
        with_optional_pool ~jobs @@ fun pool ->
        let r =
          Mc.estimate ctx.Experiments.Common.power ?pool ?samples
            ~seed:(seed + 1) ~inputs circuit
        in
        Printf.printf "mc power:       %s (output-node switching)\n"
          (Report.Table.cell_power r.Mc.power);
        Printf.printf "  samples:      %d (%d trajectories x %d steps, %d \
                       blocks)\n"
          r.Mc.samples r.Mc.trajectories r.Mc.steps r.Mc.blocks;
        Printf.printf "  dt / window:  %.3g s / %.3g s\n" r.Mc.dt r.Mc.window;
        Printf.printf "  energy:       %.4g J per trajectory window\n"
          r.Mc.energy
    | Power.Backend.Switchsim ->
        record_params pending [ ("horizon", string_of_float horizon) ];
        let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
        let r =
          Switchsim.Sim.run_stats sim
            ~rng:(Stoch.Rng.create (seed + 1))
            ~stats:inputs ~horizon ()
        in
        Printf.printf "simulated power: %s\n"
          (Report.Table.cell_power r.Switchsim.Sim.power);
        Printf.printf "  events:        %d input transitions over %s\n"
          r.Switchsim.Sim.events
          (Report.Table.cell_time r.Switchsim.Sim.horizon);
        Printf.printf "  energy:        %.4g J\n" r.Switchsim.Sim.energy
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate circuit power under the extended model, Monte-Carlo \
          sampling, or switch-level simulation.")
    Term.(
      const run $ circuit_arg $ scenario_arg $ seed_arg $ backend_arg
      $ samples_arg $ jobs_arg $ horizon_arg $ obs_term)

(* --- optimize --- *)

let objective_arg =
  let doc =
    "Objective: best (min power), worst (max power), bounded (min power, no \
     gate slower than reference), input-only (input permutations only), \
     fastest (min delay)."
  in
  Arg.(value & opt string "best" & info [ "objective" ] ~docv:"OBJ" ~doc)

let output_arg =
  let doc = "Write the rewritten netlist to this file (native format)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the power-attribution ledger: ranked top consumers, why \
           each changed ordering won, and per-node breakdowns.")

let explain_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain-json" ] ~docv:"FILE"
        ~doc:"Write the attribution ledger as JSON to $(docv).")

let top_arg =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"N"
        ~doc:"Gates shown in the ranked --explain tables.")

let memo_flag =
  Arg.(
    value & flag
    & info [ "memo" ]
        ~doc:
          "Memoize best-configuration verdicts across structurally \
           equivalent gates (quantized-key cache; an approximation near \
           bucket boundaries, reported via the optimizer.memo_hits/misses \
           counters).")

let optimize_cmd =
  let run spec scenario seed objective jobs memo out explain explain_json top
      obs =
    with_obs ~cmd:"optimize" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("objective", objective);
        ("jobs", string_of_int jobs);
        ("memo", string_of_bool memo);
      ];
    let circuit = load_circuit spec in
    let ctx = context () in
    let inputs = scenario_inputs ~seed scenario circuit in
    let objective, input_only =
      match objective with
      | "best" -> (Reorder.Optimizer.Min_power, false)
      | "worst" -> (Reorder.Optimizer.Max_power, false)
      | "bounded" -> (Reorder.Optimizer.Min_power_delay_bounded, false)
      | "input-only" -> (Reorder.Optimizer.Min_power, true)
      | "fastest" -> (Reorder.Optimizer.Min_delay, false)
      | other ->
          Printf.eprintf "error: unknown objective %S\n" other;
          exit 1
    in
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let memo = if memo then Some (Reorder.Memo.create ()) else None in
    let session =
      Reorder.Optimizer.start ctx.Experiments.Common.power
        ~delay:ctx.Experiments.Common.delay ~objective
        ~input_reordering_only:input_only ~pool ?memo circuit ~inputs
    in
    let r = Reorder.Optimizer.session_report session in
    Printf.printf "%s\n" (Format.asprintf "%a" Reorder.Optimizer.pp_report r);
    let sta c =
      Delay.Sta.critical_delay (Delay.Sta.run ctx.Experiments.Common.delay c)
    in
    Printf.printf "critical delay: %s -> %s\n"
      (Report.Table.cell_time (sta circuit))
      (Report.Table.cell_time (sta r.Reorder.Optimizer.circuit));
    if explain || explain_json <> None || pending <> None then begin
      let ledger = Attrib.of_session session in
      if explain then begin
        print_newline ();
        print_string (Attrib.render_explain ~top ledger)
      end;
      (* Serialized once, for the file and the archive alike. *)
      let json = lazy (Attrib.to_json ledger) in
      Option.iter
        (fun path ->
          let oc = open_output path in
          output_string oc (Lazy.force json);
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" path)
        explain_json;
      Option.iter
        (fun p -> Runlog.attach p ~name:"ledger" ~json:(Lazy.force json))
        pending
    end;
    save_netlist r.Reorder.Optimizer.circuit out
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Reorder transistors for the chosen objective.")
    Term.(
      const run $ circuit_arg $ scenario_arg $ seed_arg $ objective_arg
      $ jobs_arg $ memo_flag $ output_arg $ explain_flag $ explain_json_arg
      $ top_arg $ obs_term)

(* --- simulate --- *)

let horizon_arg = make_horizon_arg ~doc:"Simulation horizon in seconds."

let warmup_arg =
  let doc =
    "Warm-up time in seconds: the simulation runs from 0 but energy and \
     statistics are only collected from $(docv) to the horizon."
  in
  Arg.(value & opt float 0. & info [ "warmup" ] ~docv:"SECONDS" ~doc)

let vcd_arg =
  let doc = "Dump every net value change to $(docv) (VCD, viewable in GTKWave)." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let probe_internals_arg =
  let doc = "Also dump internal transistor-graph nodes to the VCD file." in
  Arg.(value & flag & info [ "probe-internals" ] ~doc)

(* Attach a VCD dump to a simulation run: returns the observer to pass
   and a completion function to call with the absolute horizon. *)
let with_vcd sim vcd probe_internals =
  match vcd with
  | None -> (None, fun ~time:_ -> ())
  | Some file ->
      let oc = open_output file in
      let observer, finish =
        Switchsim.Vcd_dump.make sim ~probe_internals
          ~emit:(output_string oc) ()
      in
      ( Some observer,
        fun ~time ->
          finish ~time;
          close_out oc )

let per_net_table circuit (r : Switchsim.Sim.result) top =
  let table =
    Report.Table.create
      ~columns:
        [
          ("net", Report.Table.Left);
          ("driver", Report.Table.Left);
          ("toggles", Report.Table.Right);
          ("D (1/s)", Report.Table.Right);
          ("high", Report.Table.Right);
          ("energy (J)", Report.Table.Right);
        ]
  in
  let nets =
    List.init (Netlist.Circuit.net_count circuit) Fun.id
    |> List.sort (fun a b ->
           compare r.Switchsim.Sim.net_toggles.(b) r.Switchsim.Sim.net_toggles.(a))
  in
  let rec toprows n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: toprows (n - 1) rest
  in
  List.iter
    (fun net ->
      let driver =
        match Netlist.Circuit.driver circuit net with
        | Netlist.Circuit.Primary_input -> "PI"
        | Netlist.Circuit.Driven_by g ->
            Printf.sprintf "g%d %s" g
              (Cell.Gate.name (Netlist.Circuit.gate_at circuit g).Netlist.Circuit.cell)
      in
      Report.Table.add_row table
        [
          Netlist.Circuit.net_name circuit net;
          driver;
          string_of_int r.Switchsim.Sim.net_toggles.(net);
          Printf.sprintf "%.3g"
            (float_of_int r.Switchsim.Sim.net_toggles.(net)
            /. r.Switchsim.Sim.horizon);
          Report.Table.cell_float ~decimals:3
            (r.Switchsim.Sim.net_high_time.(net) /. r.Switchsim.Sim.horizon);
          Printf.sprintf "%.3g" r.Switchsim.Sim.per_net_energy.(net);
        ])
    (toprows top nets);
  table

let simulate_cmd =
  let top_arg =
    let doc = "Print the $(docv) most active nets (toggles, density, energy)." in
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run spec scenario seed horizon warmup vcd probe_internals top obs =
    check_warmup ~horizon warmup;
    with_obs ~cmd:"simulate" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("horizon", string_of_float horizon);
        ("warmup", string_of_float warmup);
      ];
    let circuit = load_circuit spec in
    let ctx = context () in
    let stats = scenario_inputs ~seed scenario circuit in
    let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
    let observer, finish_vcd = with_vcd sim vcd probe_internals in
    let r =
      Switchsim.Sim.run_stats sim ~rng:(Stoch.Rng.create (seed + 1)) ~stats
        ~horizon ~warmup ?observer ()
    in
    finish_vcd ~time:horizon;
    Printf.printf "%s\n" (Format.asprintf "%a" Netlist.Circuit.pp_summary circuit);
    Printf.printf "events:          %d input transitions over %s\n"
      r.Switchsim.Sim.events
      (Report.Table.cell_time r.Switchsim.Sim.horizon);
    Printf.printf "energy:          %.4g J\n" r.Switchsim.Sim.energy;
    Printf.printf "simulated power: %s\n" (Report.Table.cell_power r.Switchsim.Sim.power);
    (match vcd with
    | Some file -> Printf.printf "vcd:             %s\n" file
    | None -> ());
    if top > 0 then begin
      print_newline ();
      Report.Table.print (per_net_table circuit r top)
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Measure power with the switch-level simulator.")
    Term.(
      const run $ circuit_arg $ scenario_arg $ seed_arg $ horizon_arg
      $ warmup_arg $ vcd_arg $ probe_internals_arg $ top_arg $ obs_term)

(* --- audit --- *)

let audit_cmd =
  let top_arg =
    let doc = "Rows per table in the report." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the full audit as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let ndjson_arg =
    let doc = "Emit the audit as NDJSON (one line per net/gate row)." in
    Arg.(value & flag & info [ "ndjson" ] ~doc)
  in
  let fail_above_arg =
    let doc =
      "Exit with status 1 if the mean absolute per-net density error over \
       active nets exceeds $(docv) percent."
    in
    Arg.(value & opt (some float) None & info [ "fail-above" ] ~docv:"PCT" ~doc)
  in
  let backend_arg =
    backend_arg ~default:Power.Backend.Switchsim
      ~doc:
        "Measured side of the audit: switchsim (event-driven switch-level \
         simulation) or mc (bit-parallel Monte-Carlo sampling)."
  in
  let run spec scenario seed backend samples jobs horizon warmup vcd
      probe_internals top json ndjson fail_above obs =
    with_obs ~cmd:"audit" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("backend", Power.Backend.name backend);
      ];
    let circuit = load_circuit spec in
    let ctx = context () in
    let inputs = scenario_inputs ~seed scenario circuit in
    let a =
      match backend with
      | Power.Backend.Mc ->
          if vcd <> None then begin
            Printf.eprintf
              "error: --vcd records a simulator waveform; it requires the \
               switchsim backend\n";
            exit 2
          end;
          record_params pending [ ("jobs", string_of_int jobs) ];
          Option.iter
            (fun n -> record_params pending [ ("samples", string_of_int n) ])
            samples;
          with_optional_pool ~jobs @@ fun pool ->
          Audit.run ctx.Experiments.Common.power ~backend ?samples ?pool
            ~rng:(Stoch.Rng.create (seed + 1))
            ~inputs ~horizon circuit
      | Power.Backend.Analytical ->
          Printf.eprintf
            "error: the analytical model is the audit's predicted side; \
             measure against the switchsim or mc backend\n";
          exit 2
      | Power.Backend.Switchsim ->
          check_warmup ~horizon warmup;
          record_params pending
            [
              ("horizon", string_of_float horizon);
              ("warmup", string_of_float warmup);
            ];
          let sim = Switchsim.Sim.build ctx.Experiments.Common.proc circuit in
          let observer, finish_vcd = with_vcd sim vcd probe_internals in
          let a =
            Audit.run ctx.Experiments.Common.power ~backend ~sim ?observer
              ~warmup
              ~rng:(Stoch.Rng.create (seed + 1))
              ~inputs ~horizon circuit
          in
          finish_vcd ~time:horizon;
          a
    in
    Option.iter
      (fun p -> Runlog.attach p ~name:"audit" ~json:(Audit.to_json a))
      pending;
    if json then print_string (Audit.to_json a)
    else if ndjson then print_string (Audit.to_ndjson a)
    else print_string (Audit.render ~top a);
    match fail_above with
    | Some bound when a.Audit.summary.Audit.mean_density_err_pct > bound ->
        Printf.eprintf
          "audit: mean density error %.1f%% exceeds the %.1f%% bound\n"
          a.Audit.summary.Audit.mean_density_err_pct bound;
        exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit the analytical power model net by net against a measured \
          backend: the switch-level simulator or the Monte-Carlo engine.")
    Term.(
      const run $ circuit_arg $ scenario_arg $ seed_arg $ backend_arg
      $ samples_arg $ jobs_arg $ horizon_arg $ warmup_arg $ vcd_arg
      $ probe_internals_arg $ top_arg $ json_arg $ ndjson_arg $ fail_above_arg
      $ obs_term)

(* --- delay --- *)

let delay_cmd =
  let run spec obs =
    with_obs ~cmd:"delay" obs @@ fun pending ->
    record_circuit pending spec;
    let circuit = load_circuit spec in
    let ctx = context () in
    let sta = Delay.Sta.run ctx.Experiments.Common.delay circuit in
    Printf.printf "%s\n" (Format.asprintf "%a" Netlist.Circuit.pp_summary circuit);
    Printf.printf "critical delay: %s\n"
      (Report.Table.cell_time (Delay.Sta.critical_delay sta));
    print_string "critical path:  ";
    print_endline
      (String.concat " -> "
         (List.map (Netlist.Circuit.net_name circuit) (Delay.Sta.critical_path sta)))
  in
  Cmd.v
    (Cmd.info "delay" ~doc:"Static timing analysis with Elmore gate delays.")
    Term.(const run $ circuit_arg $ obs_term)

(* --- check --- *)

let check_cmd =
  let run spec =
    let circuit = load_circuit spec in
    Printf.printf "%s\n" (Format.asprintf "%a" Netlist.Circuit.pp_summary circuit);
    List.iter
      (fun (cell, n) -> Printf.printf "  %-8s x%d\n" cell n)
      (Netlist.Circuit.stats circuit);
    match Netlist.Lint.check circuit with
    | [] -> print_endline "no warnings"
    | warnings ->
        List.iter
          (fun w ->
            Printf.printf "warning: %s\n" (Netlist.Lint.describe circuit w))
          warnings;
        Printf.printf "%d warning(s)\n" (List.length warnings)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a netlist and report structural warnings.")
    Term.(const run $ circuit_arg)

(* --- show / dot / spice --- *)

let show_cmd =
  let run spec =
    let circuit = load_circuit spec in
    print_string (Netlist.Io.to_string circuit)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a circuit in the native netlist format.")
    Term.(const run $ circuit_arg)

let gate_arg =
  let doc = "Library gate name (see `treorder gates`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GATE" ~doc)

let config_arg =
  let doc = "Configuration index (0 = reference ordering)." in
  Arg.(value & opt int 0 & info [ "config" ] ~docv:"K" ~doc)

let with_gate name f =
  match Cell.Gate.of_name name with
  | gate -> f gate
  | exception Not_found ->
      Printf.eprintf "error: unknown gate %S (see `treorder gates`)\n" name;
      exit 1

(* [f gate] when [config] indexes one of the gate's configurations. *)
let with_config name config f =
  with_gate name (fun gate ->
      if config < 0 || config >= Cell.Gate.config_count gate then begin
        Printf.eprintf "error: %s has %d configurations\n" name
          (Cell.Gate.config_count gate);
        exit 1
      end;
      f gate)

let dot_cmd =
  let run name config =
    with_config name config (fun gate ->
        print_string
          (Sp.Network.to_dot
             ~name:(Printf.sprintf "%s_cfg%d" name config)
             (Cell.Config.nth_network gate config)))
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Graphviz drawing of a gate configuration's transistor graph.")
    Term.(const run $ gate_arg $ config_arg)

let spice_cmd =
  let all_flag =
    Arg.(value & flag & info [ "library" ] ~doc:"Emit every configuration of every gate.")
  in
  let gate_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"GATE")
  in
  let run gate config all =
    if all then print_string (Cell.Spice.library_deck ())
    else
      match gate with
      | None ->
          Printf.eprintf "error: give a gate name or --library\n";
          exit 1
      | Some name ->
          with_config name config (fun gate ->
              print_string (Cell.Spice.subckt gate ~config))
  in
  Cmd.v
    (Cmd.info "spice" ~doc:"SPICE subcircuit of a gate configuration.")
    Term.(const run $ gate_opt $ config_arg $ all_flag)

(* --- map --- *)

let map_cmd =
  let file_arg =
    let doc = "Equation file (see the Logic.Eqn format)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.eqn" ~doc)
  in
  let run file scenario seed optimize jobs out obs =
    with_obs ~cmd:"map" obs @@ fun pending ->
    Option.iter (fun p -> Runlog.add_input p file) pending;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("optimize", string_of_bool optimize);
        ("jobs", string_of_int jobs);
      ];
    let eqn =
      match Logic.Eqn.load file with
      | eqn -> eqn
      | exception Logic.Eqn.Parse_error { line; message } ->
          if line > 0 then
            Printf.eprintf "error: %s: line %d: %s\n" file line message
          else Printf.eprintf "error: %s: %s\n" file message;
          exit 1
      | exception Sys_error message ->
          Printf.eprintf "error: %s\n" message;
          exit 1
    in
    let circuit =
      try Logic.Mapper.map eqn
      with Logic.Mapper.Unmappable message ->
        Printf.eprintf "error: %s\n" message;
        exit 1
    in
    Printf.printf "%s\n" (Format.asprintf "%a" Netlist.Circuit.pp_summary circuit);
    List.iter
      (fun (cell, n) -> Printf.printf "  %-8s x%d\n" cell n)
      (Netlist.Circuit.stats circuit);
    let circuit =
      if optimize then begin
        let ctx = context () in
        let inputs = scenario_inputs ~seed scenario circuit in
        let r =
          Par.Pool.with_pool ~jobs @@ fun pool ->
          Reorder.Optimizer.optimize ctx.Experiments.Common.power
            ~delay:ctx.Experiments.Common.delay ~pool circuit ~inputs
        in
        Printf.printf "%s\n" (Format.asprintf "%a" Reorder.Optimizer.pp_report r);
        r.Reorder.Optimizer.circuit
      end
      else circuit
    in
    save_netlist circuit out
  in
  let optimize_flag =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Also reorder for minimum power.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map a Boolean equation file onto the gate library.")
    Term.(
      const run $ file_arg $ scenario_arg $ seed_arg $ optimize_flag $ jobs_arg
      $ output_arg $ obs_term)

(* --- profile / glitch / accuracy --- *)

let profile_cmd =
  let bits_arg =
    Arg.(value & opt int 16 & info [ "bits" ] ~docv:"N" ~doc:"Adder width.")
  in
  let run bits obs =
    with_obs ~cmd:"profile" obs @@ fun pending ->
    record_params pending [ ("bits", string_of_int bits) ];
    let ctx = context () in
    print_string
      (Experiments.Adder_profile.render
         (Experiments.Adder_profile.run ctx ~bits ()))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Carry-chain activity profile of a ripple-carry adder (E5).")
    Term.(const run $ bits_arg $ obs_term)

let glitch_cmd =
  let run scenario seed horizon obs =
    with_obs ~cmd:"glitch" obs @@ fun pending ->
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("horizon", string_of_float horizon);
      ];
    let ctx = context () in
    print_string
      (Experiments.Glitch.render
         (Experiments.Glitch.run ctx ~seed ~sim_horizon:horizon
            ~circuits:(Circuits.Suite.small ())
            (parse_scenario scenario)))
  in
  Cmd.v
    (Cmd.info "glitch"
       ~doc:"Glitch power of the small benchmarks under inertial delays (E9).")
    Term.(const run $ scenario_arg $ seed_arg $ horizon_arg $ obs_term)

let accuracy_cmd =
  let run scenario seed horizon obs =
    with_obs ~cmd:"accuracy" obs @@ fun pending ->
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("horizon", string_of_float horizon);
      ];
    let ctx = context () in
    print_string
      (Experiments.Ablations.render_accuracy
         (Experiments.Ablations.model_accuracy ctx ~seed ~sim_horizon:horizon
            (parse_scenario scenario)))
  in
  Cmd.v
    (Cmd.info "accuracy"
       ~doc:"Model power vs switch-level power over the suite (E8).")
    Term.(const run $ scenario_arg $ seed_arg $ horizon_arg $ obs_term)

(* --- fuzz --- *)

let fuzz_cmd =
  let count_arg =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N" ~doc:"Random cases per property.")
  in
  let property_arg =
    let doc =
      "Run only this property (repeatable). One of: exactness, sim-power, \
       vcd-roundtrip, function, optimizer, io-roundtrip, densities, \
       attribution, parallel-determinism, sp-orderings, archive-roundtrip, \
       mc-convergence, telemetry-consistency, history-consistency, \
       incremental-equivalence."
    in
    Arg.(value & opt_all string [] & info [ "property"; "p" ] ~docv:"NAME" ~doc)
  in
  let max_gates_arg =
    Arg.(
      value & opt int 12
      & info [ "max-gates" ] ~docv:"N"
          ~doc:"Size bound handed to the generators (maximum gate count).")
  in
  let run seed count properties max_gates obs =
    with_obs ~cmd:"fuzz" obs @@ fun pending ->
    record_params pending
      [
        ("seed", string_of_int seed);
        ("count", string_of_int count);
        ("max_gates", string_of_int max_gates);
        ( "properties",
          if properties = [] then "all" else String.concat "," properties );
      ];
    let selected =
      match properties with
      | [] -> Proptest.Oracles.all ()
      | names ->
          List.map
            (fun name ->
              match Proptest.Oracles.find name with
              | Some p -> p
              | None ->
                  Printf.eprintf "error: unknown property %S (known: %s)\n" name
                    (String.concat ", " (Proptest.Oracles.names ()));
                  exit 1)
            names
    in
    let failed = ref false in
    List.iter
      (fun p ->
        let r = Proptest.Runner.run ~seed ~count ~size:max_gates p in
        Format.printf "%a@." Proptest.Runner.pp_result r;
        if r.Proptest.Runner.counterexample <> None then failed := true)
      selected;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based differential testing: random circuits checked \
          against the cross-model oracle suite, with counterexample \
          shrinking.")
    Term.(
      const run $ seed_arg $ count_arg $ property_arg $ max_gates_arg $ obs_term)

(* --- eco: incremental (ECO-style) re-optimization replay --- *)

let eco_cmd =
  let edits_arg =
    let doc =
      "NDJSON edit script: one apply batch per line, either a single edit \
       object or an array of them. Ops: set_input_stats, replace_gate, \
       set_external_load, set_objective (see the performance page)."
    in
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "edits" ] ~docv:"FILE" ~doc)
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Replay the whole script $(docv) times (latency percentiles \
             stabilise with more applies).")
  in
  let check_cold_flag =
    Arg.(
      value & flag
      & info [ "check-cold" ]
          ~doc:
            "After the replay, run a cold full optimization of the final \
             circuit under the final input model and verify the session's \
             settled state is bit-identical (exits 1 on any drift).")
  in
  let run spec scenario seed jobs memo edits_file repeat check_cold out obs =
    with_obs ~cmd:"eco" obs @@ fun pending ->
    record_circuit pending spec;
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("jobs", string_of_int jobs);
        ("memo", string_of_bool memo);
        ("edits", Filename.basename edits_file);
        ("repeat", string_of_int repeat);
      ];
    let circuit = load_circuit spec in
    (* A malformed script is rejected before the cold run is paid. *)
    let script =
      try Incremental.Script.load ~circuit edits_file
      with Incremental.Edit_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    let ctx = context () in
    let inputs = scenario_inputs ~seed scenario circuit in
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let t0 = Unix.gettimeofday () in
    let sess =
      Incremental.create ~memoize:memo ctx.Experiments.Common.power
        ~delay:ctx.Experiments.Common.delay ~pool circuit ~inputs
    in
    let cold_seconds = Unix.gettimeofday () -. t0 in
    let rep0 = Incremental.report sess in
    let batches = List.concat (List.init (max 1 repeat) (fun _ -> script)) in
    let timings =
      try Incremental.replay ~pool sess batches
      with Incremental.Edit_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    Printf.printf "cold run:    %s -> %s (%d gates, %.1f ms)\n"
      (Report.Table.cell_power rep0.Reorder.Optimizer.power_before)
      (Report.Table.cell_power rep0.Reorder.Optimizer.power_after)
      (Netlist.Circuit.gate_count circuit)
      (cold_seconds *. 1e3);
    let applies = List.length timings in
    let edits =
      List.fold_left (fun acc t -> acc + t.Incremental.edits) 0 timings
    in
    let resweeps =
      List.fold_left (fun acc t -> acc + t.Incremental.dirty_gates) 0 timings
    in
    let total =
      List.fold_left (fun acc t -> acc +. t.Incremental.seconds) 0. timings
    in
    Printf.printf "replayed:    %d applies (%d edits, x%d) in %.1f ms\n"
      applies edits (max 1 repeat) (total *. 1e3);
    Printf.printf "re-swept:    %d gates total (%.1f per apply)\n" resweeps
      (if applies = 0 then 0. else float_of_int resweeps /. float_of_int applies);
    let p50, p90, p99 = Incremental.latency_percentiles timings in
    Printf.printf "latency:     p50 %.3f ms   p90 %.3f ms   p99 %.3f ms\n"
      (p50 *. 1e3) (p90 *. 1e3) (p99 *. 1e3);
    if p50 > 0. then
      Printf.printf "speedup:     %.0fx vs the %.1f ms cold run (median apply)\n"
        (cold_seconds /. p50) (cold_seconds *. 1e3);
    (* Settle the session (empty apply) so the archived ledger is the
       final fixed point: before = after = the settled state, which a
       cold run of the final circuit reproduces bit-exactly. *)
    Incremental.apply ~pool sess [];
    let final = Incremental.report sess in
    Printf.printf "final power: %s\n"
      (Report.Table.cell_power final.Reorder.Optimizer.power_after);
    if check_cold then begin
      (* A memoized session's winners are pure functions of the memo
         key, so a fresh memo reproduces them; an unmemoized cold run
         would be the exhaustive sweep, which can legitimately differ. *)
      let cold =
        Reorder.Optimizer.optimize ctx.Experiments.Common.power
          ~delay:ctx.Experiments.Common.delay
          ~external_load:(Incremental.external_load sess)
          ~objective:(Incremental.objective sess) ~pool
          ?memo:(if memo then Some (Reorder.Memo.create ()) else None)
          (Incremental.circuit sess)
          ~inputs:(Incremental.input_stats sess)
      in
      if
        cold.Reorder.Optimizer.configs = final.Reorder.Optimizer.configs
        && cold.Reorder.Optimizer.power_after
           = final.Reorder.Optimizer.power_after
      then print_endline "cold check:  bit-identical"
      else begin
        Printf.eprintf
          "error: cold check failed: cold %.17g W, incremental %.17g W\n"
          cold.Reorder.Optimizer.power_after
          final.Reorder.Optimizer.power_after;
        exit 1
      end
    end;
    Option.iter
      (fun p ->
        Runlog.attach p ~name:"ledger"
          ~json:(Attrib.to_json (Incremental.ledger sess)))
      pending;
    save_netlist (Incremental.circuit sess) out
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Replay an NDJSON edit script through an incremental \
          re-optimization session: dirty-cone re-sweeps at interactive \
          latency, bit-identical to cold full runs.")
    Term.(
      const run $ circuit_arg $ scenario_arg $ seed_arg $ jobs_arg $ memo_flag
      $ edits_arg $ repeat_arg $ check_cold_flag $ output_arg $ obs_term)

(* --- trace: offline analysis of --trace NDJSON files --- *)

let trace_file_arg =
  let doc = "NDJSON trace file written by --trace." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let load_trace path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "error: no such trace file %S\n" path;
    exit 1
  end;
  match Trace.load path with
  | Ok events -> events
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 1

let trace_report_cmd =
  let top_counters_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Counters shown (by final value).")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Also write the span tree as folded stacks (one \
             \"path;to;span count_ns\" line per frame) for flamegraph \
             tools.")
  in
  let run path top flame =
    let events = load_trace path in
    let tree = Trace.span_tree events in
    print_string (Trace.render_tree tree);
    Option.iter
      (fun target ->
        let oc = open_output target in
        output_string oc (Trace.to_folded tree);
        close_out oc;
        Printf.printf "wrote %s\n" target)
      flame;
    let counters = Trace.final_counters events in
    if counters <> [] then begin
      print_newline ();
      let ranked =
        List.sort (fun (_, a) (_, b) -> compare b a) counters
        |> List.filteri (fun i _ -> i < top)
      in
      let table =
        Report.Table.create
          ~columns:
            [ ("counter", Report.Table.Left); ("final", Report.Table.Right) ]
      in
      List.iter
        (fun (name, v) -> Report.Table.add_row table [ name; string_of_int v ])
        ranked;
      Report.Table.print table
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Span tree (total/self wall-clock per path) and top counters of a \
          trace.")
    Term.(const run $ trace_file_arg $ top_counters_arg $ flame_arg)

let trace_chrome_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace JSON here (default: stdout).")
  in
  let run path out =
    let events = load_trace path in
    let json =
      (* A timestamp that overflows in microseconds has no JSON number. *)
      try Trace.to_chrome events
      with Invalid_argument msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 1
    in
    match out with
    | None -> print_endline json
    | Some target ->
        let oc = open_output target in
        output_string oc json;
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" target
  in
  Cmd.v
    (Cmd.info "chrome"
       ~doc:
         "Convert a trace to Chrome trace-event JSON (chrome://tracing, \
          Perfetto).")
    Term.(const run $ trace_file_arg $ out_arg)

let trace_telemetry_cmd =
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "OpenMetrics file written by the same run's --metrics flag; \
             strictly parsed and cross-checked against the trace's final \
             counters.")
  in
  let min_heartbeats_arg =
    Arg.(
      value & opt int 1
      & info [ "min-heartbeats" ] ~docv:"N"
          ~doc:"Fail unless the trace holds at least $(docv) heartbeats.")
  in
  let max_sample_ns_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sample-ns" ] ~docv:"NS"
          ~doc:
            "Fail if the final obs.sample_ns counter (total sampler cost) \
             exceeds $(docv).")
  in
  let run path metrics min_heartbeats max_sample_ns =
    let events = load_trace path in
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "FAIL %s\n" msg;
          failed := true)
        fmt
    in
    (* 1. Heartbeat count, percent bounds, per-phase monotonicity. *)
    let heartbeats =
      List.filter_map
        (function
          | Trace.Heartbeat { t; phase; percent; _ } ->
              Some (t, phase, percent)
          | _ -> None)
        events
    in
    let n_heartbeats = List.length heartbeats in
    if n_heartbeats < min_heartbeats then
      fail "expected >= %d heartbeats, trace has %d" min_heartbeats
        n_heartbeats;
    let last_percent : (string, float) Hashtbl.t = Hashtbl.create 7 in
    List.iter
      (fun (t, phase, percent) ->
        if percent < 0. || percent > 100. then
          fail "heartbeat at t=%.3f: percent %.2f outside [0, 100]" t percent;
        (match Hashtbl.find_opt last_percent phase with
        | Some prev when percent < prev ->
            fail
              "heartbeat at t=%.3f: percent %.2f < %.2f within phase %S \
               (not monotone)"
              t percent prev phase
        | _ -> ());
        Hashtbl.replace last_percent phase percent)
      heartbeats;
    (* 2. Final counters vs the OpenMetrics exposition. The sampler's
       own obs.* counters are excluded: the final tick's cost lands
       after that tick read the registry. *)
    let final = Trace.final_counters events in
    (match max_sample_ns with
    | None -> ()
    | Some bound ->
        let v =
          Option.value ~default:0 (List.assoc_opt "obs.sample_ns" final)
        in
        if v > bound then
          fail "obs.sample_ns = %d exceeds --max-sample-ns %d" v bound);
    (match metrics with
    | None -> ()
    | Some mfile ->
        if not (Sys.file_exists mfile) then fail "no such metrics file %S" mfile
        else
          let text = In_channel.with_open_bin mfile In_channel.input_all in
          (match Telemetry.parse_openmetrics text with
          | Error msg -> fail "%s: %s" mfile msg
          | Ok parsed ->
              List.iter
                (fun (name, v) ->
                  if not (String.length name >= 4 && String.sub name 0 4 = "obs.")
                  then begin
                    let family, labels = Telemetry.metric_of_counter name in
                    match
                      Telemetry.metric_value parsed ~labels (family ^ "_total")
                    with
                    | None ->
                        fail "counter %s missing from %s (expected %s_total)"
                          name mfile family
                    | Some mv ->
                        if Float.abs (mv -. float_of_int v) > 0.5 then
                          fail "counter %s: trace says %d, %s says %g" name v
                            mfile mv
                  end)
                final))
    ;
    if !failed then exit 1;
    Printf.printf "ok: %d heartbeats, %d counters consistent%s\n" n_heartbeats
      (List.length final)
      (match metrics with Some m -> " with " ^ m | None -> "")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Verify a run's live-telemetry outputs: heartbeat count, percent \
          monotonicity per phase, strict OpenMetrics parse and \
          trace-vs-metrics counter agreement. Exit 1 on any violation.")
    Term.(
      const run $ trace_file_arg $ metrics_arg $ min_heartbeats_arg
      $ max_sample_ns_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analyze NDJSON traces produced by the --trace flag.")
    [ trace_report_cmd; trace_chrome_cmd; trace_telemetry_cmd ]

(* --- top: live (or replayed) view of a telemetry-bearing trace --- *)

type top_state = {
  mutable tp_hb :
    (string * float * float option * (string * float) list * float list) option;
  tp_counters : (string * int, int) Hashtbl.t;
      (** keyed (name, dom); display sums across domains, like
          {!Trace.final_counters} *)
  mutable tp_events : int;
  mutable tp_bad_lines : int;
}

let top_feed st = function
  | Trace.Heartbeat { phase; percent; eta_s; rates; util; _ } ->
      st.tp_events <- st.tp_events + 1;
      st.tp_hb <- Some (phase, percent, eta_s, rates, util)
  | Trace.Counter { name; value; dom; _ } ->
      st.tp_events <- st.tp_events + 1;
      Hashtbl.replace st.tp_counters (name, dom) value
  | Trace.Span_begin _ | Trace.Span_end _ -> st.tp_events <- st.tp_events + 1

let top_bar frac width =
  let frac = Float.max 0. (Float.min 1. frac) in
  let filled = int_of_float ((frac *. float_of_int width) +. 0.5) in
  "[" ^ String.make filled '#' ^ String.make (width - filled) '-' ^ "]"

let top_render ~final st =
  let b = Buffer.create 1024 in
  (match st.tp_hb with
  | None ->
      Buffer.add_string b
        "waiting for heartbeats (run with --metrics or --telemetry)...\n"
  | Some (phase, percent, eta_s, rates, util) ->
      Printf.bprintf b "phase    %s\n" (if phase = "" then "-" else phase);
      Printf.bprintf b "progress %s %5.1f%%%s\n"
        (top_bar (percent /. 100.) 40)
        percent
        (match eta_s with
        | Some e when not final -> Printf.sprintf "  eta %.1fs" e
        | _ -> "");
      List.iteri
        (fun i u ->
          Printf.bprintf b "slot %-3d %s %3.0f%% busy\n" i (top_bar u 20)
            (100. *. u))
        util;
      let is_ns_counter name =
        (* time accumulators (…_ns, par.domain_busy_ns.3): their "rate"
           is just ns-per-second noise, not work throughput *)
        let re = "_ns" in
        let nl = String.length name and rl = String.length re in
        let rec scan i =
          i + rl <= nl && (String.sub name i rl = re || scan (i + 1))
        in
        scan 0
      in
      let ranked =
        List.filter (fun (name, _) -> not (is_ns_counter name)) rates
        |> List.sort (fun (_, a) (_, b) -> compare (b : float) a)
        |> List.filteri (fun i _ -> i < 8)
      in
      if ranked <> [] then begin
        Buffer.add_string b "rates\n";
        List.iter
          (fun (name, r) -> Printf.bprintf b "  %-28s %10.1f /s\n" name r)
          ranked
      end);
  if final then begin
    (* Replay: the run is over, so show where the counters ended up. *)
    let totals : (string, int) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (name, _dom) v ->
        Hashtbl.replace totals name
          (v + Option.value ~default:0 (Hashtbl.find_opt totals name)))
      st.tp_counters;
    let ranked =
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
      |> List.sort (fun (a, va) (b, vb) ->
             match compare (vb : int) va with 0 -> compare a b | c -> c)
      |> List.filteri (fun i _ -> i < 10)
    in
    if ranked <> [] then begin
      Buffer.add_string b "final counters\n";
      List.iter
        (fun (name, v) -> Printf.bprintf b "  %-28s %10d\n" name v)
        ranked
    end
  end;
  Printf.bprintf b "%d events%s\n" st.tp_events
    (if st.tp_bad_lines > 0 then
       Printf.sprintf " (%d unparseable lines skipped)" st.tp_bad_lines
     else "");
  Buffer.contents b

let top_cmd =
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:"Parse the whole (finished) trace and render one final frame.")
  in
  let interval_arg =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Poll cadence in live mode (default 0.5).")
  in
  let exit_idle_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "exit-idle" ] ~docv:"SECONDS"
          ~doc:
            "In live mode, exit once the trace has grown no further for \
             $(docv) seconds (default: follow until interrupted).")
  in
  let new_state () =
    {
      tp_hb = None;
      tp_counters = Hashtbl.create 16;
      tp_events = 0;
      tp_bad_lines = 0;
    }
  in
  let run path replay interval exit_idle =
    if replay then begin
      let events = load_trace path in
      let st = new_state () in
      List.iter (top_feed st) events;
      print_string (top_render ~final:true st)
    end
    else begin
      if not (Sys.file_exists path) then begin
        Printf.eprintf "error: no such trace file %S\n" path;
        exit 1
      end;
      let ic = open_in_bin path in
      (* Tail the file through our own line buffer: the writer flushes
         whole lines, but a read can still land mid-line, so complete
         lines are parsed and the remainder is carried to the next
         poll. *)
      let pending = Buffer.create 256 in
      let chunk = Bytes.create 65536 in
      let st = new_state () in
      let idle = ref 0. in
      let stop = ref false in
      while not !stop do
        let grew = ref false in
        let rec drain () =
          let n = input ic chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            grew := true;
            Buffer.add_subbytes pending chunk 0 n;
            drain ()
          end
        in
        drain ();
        let data = Buffer.contents pending in
        Buffer.clear pending;
        let rec split start =
          match String.index_from_opt data start '\n' with
          | Some nl ->
              let line = String.sub data start (nl - start) in
              (if String.trim line <> "" then
                 match Trace.event_of_line line with
                 | Ok ev -> top_feed st ev
                 | Error _ -> st.tp_bad_lines <- st.tp_bad_lines + 1);
              split (nl + 1)
          | None ->
              Buffer.add_substring pending data start
                (String.length data - start)
        in
        split 0;
        if !grew then idle := 0. else idle := !idle +. interval;
        print_string "\027[2J\027[H";
        Printf.printf "treorder top — %s\n\n" path;
        print_string (top_render ~final:false st);
        flush stdout;
        match exit_idle with
        | Some limit when !idle >= limit -> stop := true
        | _ -> Unix.sleepf interval
      done;
      close_in ic
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a run live: tail its --trace NDJSON file and render \
          phase, progress/ETA, per-slot pool utilization and top counter \
          rates in place. With $(b,--replay), render a finished trace's \
          final state once.")
    Term.(const run $ trace_file_arg $ replay_arg $ interval_arg $ exit_idle_arg)

(* --- runs: provenance archives written by --archive --- *)

let fmt_utc epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let resolve_run path =
  match Runlog.resolve path with
  | Ok run -> run
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let runs_list_cmd =
  let dir_arg =
    let doc = "Archive directory (as passed to --archive)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let sort_arg =
    Arg.(
      value
      & opt (enum [ ("time", `Time); ("name", `Name) ]) `Time
      & info [ "sort" ] ~docv:"KEY"
          ~doc:
            "Order: $(b,time) (manifest start time, oldest first — the \
             default) or $(b,name) (run id).")
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Show only the last $(docv) records.")
  in
  let run dir sort limit =
    match Runlog.scan dir with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok [] -> print_endline "no run records"
    | Ok runs ->
        let runs =
          match sort with
          | `Time -> runs (* scan already orders by (started, id) *)
          | `Name ->
              List.sort
                (fun (a : Runlog.run) b ->
                  compare a.Runlog.run_id b.Runlog.run_id)
                runs
        in
        let runs =
          match limit with
          | Some n when n >= 0 ->
              let drop = max 0 (List.length runs - n) in
              List.filteri (fun i _ -> i >= drop) runs
          | _ -> runs
        in
        let table =
          Report.Table.create
            ~columns:
              [
                ("run", Report.Table.Left);
                ("subcommand", Report.Table.Left);
                ("circuit", Report.Table.Left);
                ("started (UTC)", Report.Table.Left);
                ("wall", Report.Table.Right);
                ("attachments", Report.Table.Left);
              ]
        in
        List.iter
          (fun (r : Runlog.run) ->
            let m = r.Runlog.manifest in
            Report.Table.add_row table
              [
                r.Runlog.run_id;
                m.Runlog.subcommand;
                (match List.assoc_opt "circuit" m.Runlog.params with
                | Some c -> c
                | None -> "-");
                fmt_utc m.Runlog.started;
                Report.Table.cell_time (m.Runlog.finished -. m.Runlog.started);
                (match m.Runlog.attachments with
                | [] -> "-"
                | atts -> String.concat "," atts);
              ])
          runs;
        Report.Table.print table
  in
  Cmd.v
    (Cmd.info "list" ~doc:"One line per run record in an archive directory.")
    Term.(const run $ dir_arg $ sort_arg $ limit_arg)

let runs_show_cmd =
  let run_arg =
    let doc = "Run directory, or an archive directory (latest run)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc)
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Counters and spans shown (ranked by value / total time).")
  in
  let run path top =
    let r = resolve_run path in
    let m = r.Runlog.manifest in
    Printf.printf "run:         %s\n" r.Runlog.run_id;
    Printf.printf "subcommand:  %s\n" m.Runlog.subcommand;
    Printf.printf "tool:        treorder %s (record v%d)\n" m.Runlog.tool_version
      m.Runlog.version;
    Printf.printf "argv:        %s\n" (String.concat " " m.Runlog.argv);
    Printf.printf "started:     %s\n" (fmt_utc m.Runlog.started);
    Printf.printf "wall:        %s\n"
      (Report.Table.cell_time (m.Runlog.finished -. m.Runlog.started));
    List.iter
      (fun (k, v) -> Printf.printf "param:       %s = %s\n" k v)
      m.Runlog.params;
    List.iter
      (fun (path, sha) -> Printf.printf "input:       %s  sha256 %s\n" path sha)
      m.Runlog.inputs;
    (* The key `runs history` aligns series on: same fingerprint = same
       series (subcommand + params minus jobs + input digests). *)
    Printf.printf "fingerprint: %s\n" (History.series_fingerprint m);
    List.iter
      (fun name -> Printf.printf "attachment:  %s.json\n" name)
      m.Runlog.attachments;
    match Runlog.read_attachment r "snapshot" with
    | Error msg -> Printf.printf "snapshot:    unreadable (%s)\n" msg
    | Ok snap ->
        let take n xs = List.filteri (fun i _ -> i < n) xs in
        let counters =
          Regress.counters_of_snapshot snap
          |> List.filter (fun (_, v) -> v > 0.)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
          |> take top
        in
        if counters <> [] then begin
          print_newline ();
          let table =
            Report.Table.create
              ~columns:
                [ ("counter", Report.Table.Left); ("value", Report.Table.Right) ]
          in
          List.iter
            (fun (name, v) ->
              Report.Table.add_row table [ name; Printf.sprintf "%.0f" v ])
            counters;
          Report.Table.print table
        end;
        let spans =
          Regress.spans_of_snapshot snap
          |> List.filter (fun (_, v) -> v > 0.)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
          |> take top
        in
        if spans <> [] then begin
          print_newline ();
          let table =
            Report.Table.create
              ~columns:
                [ ("span", Report.Table.Left); ("total", Report.Table.Right) ]
          in
          List.iter
            (fun (name, v) ->
              Report.Table.add_row table [ name; Report.Table.cell_time v ])
            spans;
          Report.Table.print table
        end
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render a run record: manifest plus top consumers.")
    Term.(const run $ run_arg $ top_arg)

let runs_diff_cmd =
  let a_arg =
    let doc = "Baseline run (run directory, or archive directory = latest)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc = "Candidate run (run directory, or archive directory = latest)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let tol_counters_arg =
    Arg.(
      value
      & opt float Regress.default_tolerance.Regress.counter_rtol
      & info [ "tol-counters" ] ~docv:"RTOL"
          ~doc:"Relative tolerance for counter drift.")
  in
  let with_time_arg =
    Arg.(
      value & flag
      & info [ "with-time" ]
          ~doc:
            "Also compare wall-clock (run seconds and span totals); off by \
             default because wall time is machine noise.")
  in
  let rtol_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "rtol" ] ~docv:"RTOL"
          ~doc:
            "Relative tolerance for per-gate power and audit error metrics \
             (the default demands bit-level agreement).")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"PREFIX"
          ~doc:
            "Exclude counters whose name starts with $(docv) (repeatable). \
             Timing counters (*_ns) and par.domain_* are always excluded.")
  in
  let run a b tol_counters with_time rtol ignore =
    let ra = resolve_run a and rb = resolve_run b in
    let tol =
      {
        Regress.default_tolerance with
        Regress.counter_rtol = tol_counters;
        Regress.check_time = with_time;
      }
    in
    let d = Runlog.diff ~tol ~rtol ~ignore_counters:ignore ra rb in
    print_string (Runlog.render_diff d);
    if not (Runlog.is_clean d) then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run records: parameters, input hashes, counters \
          (Regress semantics), per-gate ledger power and configuration \
          flips, audit error drift. Exits 1 when the runs disagree beyond \
          tolerance.")
    Term.(
      const run $ a_arg $ b_arg $ tol_counters_arg $ with_time_arg $ rtol_arg
      $ ignore_arg)

(* --- runs history / report: fleet analytics over archives --- *)

let history_metric_arg =
  Arg.(
    value & opt_all string []
    & info [ "metric"; "m" ] ~docv:"NAME"
        ~doc:
          "Track this metric (repeatable): a counter name, \
           dist.<name>.<stat>, span.<name>, wall_s, ledger.total_before, \
           ledger.total_after, ledger.reduction_pct, audit.<metric> or \
           memo.hit_rate_pct. Default: the headline set.")

let history_threshold_arg =
  Arg.(
    value & opt float 5.0
    & info [ "threshold" ] ~docv:"SIGMA"
        ~doc:
          "CUSUM decision bound in sigma units; lower flags smaller shifts.")

let bench_history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:
          "Also fold in an append-only bench history \
           (BENCH_history.ndjson); truncated tail lines are skipped with \
           a note.")

let load_history_records ~root ~bench =
  let archived =
    match root with
    | None -> []
    | Some root -> (
        match History.load_archive root with
        | Ok records -> records
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1)
  in
  let benched =
    match bench with
    | None -> []
    | Some path -> (
        match History.load_bench_history path with
        | Ok (records, skipped) ->
            if skipped > 0 then
              Printf.eprintf "note: %s: skipped %d unparseable line%s\n" path
                skipped
                (if skipped = 1 then "" else "s");
            records
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1)
  in
  archived @ benched

(* Drill-down sections for the dashboard: ledger top consumers and the
   audit summary of every archived run that carries them. *)
let details_of_archive ~top root =
  match root with
  | None -> []
  | Some root -> (
      match Runlog.scan root with
      | Error _ -> []
      | Ok runs ->
          List.filter_map
            (fun (r : Runlog.run) ->
              let ledger =
                match
                  Result.bind
                    (Runlog.read_attachment r "ledger")
                    Runlog.ledger_of_json
                with
                | Ok l ->
                    Array.to_list l.Runlog.l_gates
                    |> List.sort (fun (a : Runlog.ledger_gate) b ->
                           compare b.Runlog.g_power_after
                             a.Runlog.g_power_after)
                    |> List.filteri (fun i _ -> i < top)
                    |> List.map (fun (g : Runlog.ledger_gate) ->
                           ( g.Runlog.g_out,
                             g.Runlog.g_cell,
                             g.Runlog.g_power_before,
                             g.Runlog.g_power_after ))
                | Error _ -> []
              in
              let audit =
                match Runlog.read_attachment r "audit" with
                | Ok json -> Json.members "summary" Json.to_float json
                | Error _ -> []
              in
              if ledger = [] && audit = [] then None
              else
                Some
                  {
                    Html.rd_run = r.Runlog.run_id;
                    rd_ledger = ledger;
                    rd_audit = audit;
                  })
            runs)

(* Every dashboard we write must pass its own validator before it is
   allowed to exist on disk. *)
let write_dashboard ~title ~details ~path report =
  let html = Html.render ~title ~details report in
  (match Html.parse_report html with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "internal error: dashboard fails self-check: %s\n" msg;
      exit 2);
  let oc = open_output path in
  output_string oc html;
  close_out oc

let runs_history_cmd =
  let root_arg =
    let doc = "Archive root (as passed to --archive)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ROOT" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full report as JSON.")
  in
  let ndjson_arg =
    Arg.(
      value & flag
      & info [ "ndjson" ]
          ~doc:"Emit one NDJSON line per series point and detected shift.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Also write the self-contained HTML dashboard to $(docv) \
             (validated with the strict parser before the write counts).")
  in
  let fail_arg =
    Arg.(
      value & flag
      & info [ "fail-on-regression" ]
          ~doc:"Exit 1 when the detector flags at least one regression.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Regressions listed in the text report, and ledger rows per \
             dashboard drill-down.")
  in
  let run root bench metrics threshold json ndjson html fail top =
    let records = load_history_records ~root:(Some root) ~bench in
    let metrics =
      if metrics = [] then History.default_metrics else metrics
    in
    let report = History.build ~metrics ~threshold records in
    (match html with
    | Some path ->
        write_dashboard ~title:"treorder runs history"
          ~details:(details_of_archive ~top (Some root))
          ~path report
    | None -> ());
    if json then print_string (History.to_json report ^ "\n")
    else if ndjson then print_string (History.to_ndjson report)
    else print_string (History.render ~top report);
    if fail && History.regressions report <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Cross-run time-series analytics over an archive: per-metric \
          series aligned by series fingerprint, trend summaries, and a \
          deterministic changepoint detector that attributes every shift \
          to the first offending run.")
    Term.(
      const run $ root_arg $ bench_history_arg $ history_metric_arg
      $ history_threshold_arg $ json_arg $ ndjson_arg $ html_arg $ fail_arg
      $ top_arg)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Inspect and compare run-provenance archives written by --archive.")
    [ runs_list_cmd; runs_show_cmd; runs_diff_cmd; runs_history_cmd ]

(* --- report: the one-stop dashboard artifact --- *)

let heartbeat_records path =
  match Trace.load path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Ok events ->
      let fp = Runlog.sha256_hex ("trace:" ^ Filename.basename path) in
      events
      |> List.filter_map (function
           | Trace.Heartbeat { t; percent; _ } -> Some (t, percent)
           | _ -> None)
      |> List.mapi (fun i (t, percent) ->
             {
               History.r_id = Printf.sprintf "heartbeat-%03d" i;
               r_source = path;
               r_label = "telemetry";
               r_circuit = None;
               r_time = t;
               r_argv = [];
               r_fingerprint = fp;
               r_metrics = [ ("heartbeat.percent", percent) ];
             })

let report_html_cmd =
  let root_arg =
    let doc = "Archive root folded into the dashboard (optional)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ROOT" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt string "treorder_report.html"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Fold the telemetry heartbeats of an NDJSON trace in as a \
             progress series.")
  in
  let title_arg =
    Arg.(
      value
      & opt string "treorder report"
      & info [ "title" ] ~docv:"TITLE" ~doc:"Dashboard title.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Ledger rows per drill-down section.")
  in
  let run root bench trace metrics threshold out title top =
    let records =
      load_history_records ~root ~bench
      @ (match trace with Some p -> heartbeat_records p | None -> [])
    in
    if records = [] then begin
      Printf.eprintf
        "error: nothing to report (give ROOT, --bench or --trace)\n";
      exit 1
    end;
    let metrics =
      if metrics = [] then History.default_metrics @ [ "heartbeat.percent" ]
      else metrics
    in
    let report = History.build ~metrics ~threshold records in
    write_dashboard ~title ~details:(details_of_archive ~top root) ~path:out
      report;
    let n_series =
      List.fold_left
        (fun acc (g : History.group) -> acc + List.length g.g_series)
        0 report.History.groups
    in
    Printf.printf "wrote %s (%d groups, %d series, %d regressions)\n" out
      (List.length report.History.groups)
      n_series
      (List.length (History.regressions report))
  in
  Cmd.v
    (Cmd.info "html"
       ~doc:
         "Write the self-contained HTML dashboard: history series with \
          sparklines, ranked regressions, per-run ledger/audit drill-downs \
          and (with --trace) telemetry heartbeats — one file, no external \
          assets, validated by the strict parser before the write counts.")
    Term.(
      const run $ root_arg $ bench_history_arg $ trace_arg
      $ history_metric_arg $ history_threshold_arg $ out_arg $ title_arg
      $ top_arg)

let report_check_cmd =
  let file_arg =
    let doc = "Dashboard file to validate." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let text =
      match Json.read_file file with
      | Ok text -> text
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
    in
    match Html.parse_report text with
    | Ok p ->
        Printf.printf "ok: %d series, %d drill-downs\n"
          (List.length p.Html.pr_series)
          (List.length p.Html.pr_details)
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Re-validate a dashboard file with the strict parser (DOCTYPE, \
          eof terminator, single JSON payload, no external assets, \
          sparkline/payload agreement). Exits 1 on any violation.")
    Term.(const run $ file_arg)

let report_cmd =
  Cmd.group
    (Cmd.info "report"
       ~doc:"Produce and validate the self-contained observability dashboard.")
    [ report_html_cmd; report_check_cmd ]

(* --- table3 --- *)

let table3_cmd =
  let run scenario seed horizon obs =
    with_obs ~cmd:"table3" obs @@ fun pending ->
    record_params pending
      [
        ("scenario", scenario);
        ("seed", string_of_int seed);
        ("horizon", string_of_float horizon);
      ];
    let ctx = context () in
    let t =
      Experiments.Table3.run ctx ~seed ~sim_horizon:horizon
        (parse_scenario scenario)
    in
    print_string (Experiments.Table3.render t)
  in
  Cmd.v
    (Cmd.info "table3"
       ~doc:"Reproduce Table 3 (best-vs-worst over the benchmark suite).")
    Term.(const run $ scenario_arg $ seed_arg $ horizon_arg $ obs_term)

let main =
  let doc = "transistor reordering for low-power CMOS (Musoll & Cortadella, DATE 1996)" in
  Cmd.group
    (Cmd.info "treorder" ~version ~doc)
    [
      list_cmd;
      gates_cmd;
      stats_cmd;
      estimate_cmd;
      optimize_cmd;
      simulate_cmd;
      audit_cmd;
      delay_cmd;
      check_cmd;
      show_cmd;
      dot_cmd;
      spice_cmd;
      map_cmd;
      trace_cmd;
      top_cmd;
      runs_cmd;
      report_cmd;
      fuzz_cmd;
      eco_cmd;
      profile_cmd;
      glitch_cmd;
      accuracy_cmd;
      table3_cmd;
    ]

let () = exit (Cmd.eval main)
