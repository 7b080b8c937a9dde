module O = Reorder.Optimizer

type delay_bounded_row = {
  name : string;
  free_percent : float;
  bounded_percent : float;
  free_delay_percent : float;
  bounded_delay_percent : float;
}

type input_reorder_row = {
  name : string;
  full_percent : float;
  input_only_percent : float;
}

type accuracy_point = {
  name : string;
  model_power : float;
  sim_power : float;
}

type accuracy = {
  points : accuracy_point list;
  correlation : float;
  mean_ratio : float;
}

let scenario_stats ~seed scenario name circuit =
  Power.Scenario.input_stats
    ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
    scenario circuit

let critical (ctx : Common.t) circuit =
  Delay.Sta.critical_delay
    (Delay.Sta.run ctx.Common.delay circuit)

let delay_bounded (ctx : Common.t) ?(seed = 42) ?circuits scenario =
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.all ()
  in
  List.map
    (fun (name, circuit) ->
      let inputs = scenario_stats ~seed scenario name circuit in
      let optimize objective =
        O.optimize ctx.Common.power ~delay:ctx.Common.delay ~objective circuit
          ~inputs
      in
      let best = optimize O.Min_power in
      let worst = optimize O.Max_power in
      let bounded = optimize O.Min_power_delay_bounded in
      let d0 = critical ctx circuit in
      let delay_pct r =
        if d0 <= 0. then 0.
        else 100. *. (critical ctx r.O.circuit -. d0) /. d0
      in
      {
        name;
        free_percent =
          O.reduction_percent ~best:best.O.power_after
            ~worst:worst.O.power_after;
        bounded_percent =
          O.reduction_percent ~best:bounded.O.power_after
            ~worst:worst.O.power_after;
        free_delay_percent = delay_pct best;
        bounded_delay_percent = delay_pct bounded;
      })
    circuits

let input_reordering (ctx : Common.t) ?(seed = 42) ?circuits scenario =
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.all ()
  in
  List.map
    (fun (name, circuit) ->
      let inputs = scenario_stats ~seed scenario name circuit in
      let optimize ~input_reordering_only =
        O.optimize ctx.Common.power ~delay:ctx.Common.delay
          ~input_reordering_only circuit ~inputs
      in
      let full = optimize ~input_reordering_only:false in
      let restricted = optimize ~input_reordering_only:true in
      let pct r =
        O.reduction_percent ~best:r.O.power_after ~worst:r.O.power_before
      in
      { name; full_percent = pct full; input_only_percent = pct restricted })
    circuits

let model_accuracy (ctx : Common.t) ?(seed = 42) ?(sim_horizon = 2e-3)
    ?circuits scenario =
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.all ()
  in
  let points =
    List.map
      (fun (name, circuit) ->
        let stats = scenario_stats ~seed scenario name circuit in
        let analysis = Power.Analysis.run ctx.Common.power circuit ~inputs:stats in
        let model_power =
          Power.Estimate.total ctx.Common.power circuit analysis
        in
        let sim = Switchsim.Sim.build ctx.Common.proc circuit in
        let result =
          Switchsim.Sim.run_stats sim
            ~rng:(Stoch.Rng.create (seed + (3 * Hashtbl.hash name)))
            ~stats ~horizon:sim_horizon ()
        in
        { name; model_power; sim_power = result.Switchsim.Sim.power })
      circuits
  in
  (* Powers span three decades across the suite; correlate in the log
     domain so the statistic is scale-invariant rather than dominated by
     the largest circuits. *)
  let models = List.map (fun p -> log p.model_power) points in
  let sims = List.map (fun p -> log p.sim_power) points in
  {
    points;
    correlation = Report.Stats.correlation models sims;
    mean_ratio =
      Report.Stats.geometric_mean_ratio
        (List.map (fun p -> (p.model_power, p.sim_power)) points);
  }

let render_delay_bounded rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("free %", Report.Table.Right);
          ("bounded %", Report.Table.Right);
          ("free delay %", Report.Table.Right);
          ("bounded delay %", Report.Table.Right);
        ]
  in
  List.iter
    (fun (r : delay_bounded_row) ->
      Report.Table.add_row table
        [
          r.name;
          Report.Table.cell_percent r.free_percent;
          Report.Table.cell_percent r.bounded_percent;
          Report.Table.cell_signed_percent r.free_delay_percent;
          Report.Table.cell_signed_percent r.bounded_delay_percent;
        ])
    rows;
  Report.Table.add_separator table;
  let avg f = Report.Stats.mean (List.map f rows) in
  Report.Table.add_row table
    [
      "average";
      Report.Table.cell_percent (avg (fun r -> r.free_percent));
      Report.Table.cell_percent (avg (fun r -> r.bounded_percent));
      Report.Table.cell_signed_percent (avg (fun r -> r.free_delay_percent));
      Report.Table.cell_signed_percent (avg (fun r -> r.bounded_delay_percent));
    ];
  "E6 — delay-bounded reordering (the paper's §6.b direction)\n"
  ^ Report.Table.render table

let render_input_reordering rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("full %", Report.Table.Right);
          ("input-only %", Report.Table.Right);
        ]
  in
  List.iter
    (fun (r : input_reorder_row) ->
      Report.Table.add_row table
        [
          r.name;
          Report.Table.cell_percent r.full_percent;
          Report.Table.cell_percent r.input_only_percent;
        ])
    rows;
  Report.Table.add_separator table;
  let avg f = Report.Stats.mean (List.map f rows) in
  Report.Table.add_row table
    [
      "average";
      Report.Table.cell_percent (avg (fun r -> r.full_percent));
      Report.Table.cell_percent (avg (fun r -> r.input_only_percent));
    ];
  "E7 — full transistor reordering vs input reordering only (§2),\n\
   reduction of the reference mapping's power\n"
  ^ Report.Table.render table

let render_accuracy a =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("model", Report.Table.Right);
          ("simulated", Report.Table.Right);
          ("ratio", Report.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Report.Table.add_row table
        [
          p.name;
          Report.Table.cell_power p.model_power;
          Report.Table.cell_power p.sim_power;
          Report.Table.cell_float ~decimals:2 (p.model_power /. p.sim_power);
        ])
    a.points;
  Printf.sprintf
    "E8 — model vs switch-level power (paper: model overestimates by an offset)\n%s\
     correlation: %.3f   geometric-mean model/sim ratio: %.2f\n"
    (Report.Table.render table)
    a.correlation a.mean_ratio
