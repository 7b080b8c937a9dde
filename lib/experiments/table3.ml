module O = Reorder.Optimizer
module C = Netlist.Circuit

type row = {
  name : string;
  gates : int;
  model_percent : float;
  sim_percent : float;
  delay_percent : float;
}

type t = {
  scenario : Power.Scenario.t;
  rows : row list;
  avg_model : float;
  avg_sim : float;
  avg_delay : float;
}

let simulate (ctx : Common.t) ~seed ~horizon circuit stats =
  let sim = Switchsim.Sim.build ctx.Common.proc circuit in
  (* Same stimulus seed for every configuration of one circuit: the
     comparison is paired, like the paper's common input traces. *)
  let rng = Stoch.Rng.create seed in
  (Switchsim.Sim.run_stats sim ~rng ~stats ~horizon ()).Switchsim.Sim.power

let row (ctx : Common.t) ?(seed = 42) ?(sim_horizon = 2e-3) scenario
    (name, circuit) =
  let stats =
    Power.Scenario.input_stats
      ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
      scenario circuit
  in
  let best, worst =
    O.best_and_worst ctx.Common.power ~delay:ctx.Common.delay circuit
      ~inputs:stats
  in
  let model_percent =
    O.reduction_percent ~best:best.O.power_after ~worst:worst.O.power_after
  in
  let sim_seed = seed + (2 * Hashtbl.hash name) + 1 in
  let p_best = simulate ctx ~seed:sim_seed ~horizon:sim_horizon best.O.circuit stats in
  let p_worst = simulate ctx ~seed:sim_seed ~horizon:sim_horizon worst.O.circuit stats in
  let sim_percent = O.reduction_percent ~best:p_best ~worst:p_worst in
  let delay circuit =
    Delay.Sta.critical_delay
      (Delay.Sta.run ctx.Common.delay circuit)
  in
  let d_orig = delay circuit and d_best = delay best.O.circuit in
  let delay_percent =
    if d_orig <= 0. then 0. else 100. *. (d_best -. d_orig) /. d_orig
  in
  {
    name;
    gates = C.gate_count circuit;
    model_percent;
    sim_percent;
    delay_percent;
  }

let run ctx ?seed ?sim_horizon ?circuits scenario =
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.all ()
  in
  let rows = List.map (row ctx ?seed ?sim_horizon scenario) circuits in
  let avg f = Report.Stats.mean (List.map f rows) in
  {
    scenario;
    rows;
    avg_model = avg (fun r -> r.model_percent);
    avg_sim = avg (fun r -> r.sim_percent);
    avg_delay = avg (fun r -> r.delay_percent);
  }

let render t =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("G", Report.Table.Right);
          ("M %", Report.Table.Right);
          ("S %", Report.Table.Right);
          ("D %", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.name;
          string_of_int r.gates;
          Report.Table.cell_percent r.model_percent;
          Report.Table.cell_percent r.sim_percent;
          Report.Table.cell_signed_percent r.delay_percent;
        ])
    t.rows;
  Report.Table.add_separator table;
  Report.Table.add_row table
    [
      "average";
      "";
      Report.Table.cell_percent t.avg_model;
      Report.Table.cell_percent t.avg_sim;
      Report.Table.cell_signed_percent t.avg_delay;
    ];
  Printf.sprintf
    "Table 3 — scenario %s (paper scenario A: M≈9%%, S≈12%%, D≈+4%%; B ≈ half of A)\n%s"
    (Power.Scenario.name t.scenario)
    (Report.Table.render table)
