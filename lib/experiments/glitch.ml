module O = Reorder.Optimizer
module C = Netlist.Circuit

type row = {
  name : string;
  zero_power : float;
  timed_power : float;
  glitch_percent : float;
  timed_reduction_percent : float;
}

type t = { rows : row list; avg_glitch : float; avg_timed_reduction : float }

let gate_delay_fn (ctx : Common.t) circuit g =
  let gate = C.gate_at circuit g in
  let load = Netlist.Load.output ctx.Common.proc circuit g in
  Delay.Elmore.worst_delay ctx.Common.delay gate.C.cell ~config:gate.C.config
    ~load

let timed_power (ctx : Common.t) ~seed ~horizon circuit stats =
  let sim = Switchsim.Sim.build ctx.Common.proc circuit in
  (Switchsim.Sim.run_timed_stats sim ~rng:(Stoch.Rng.create seed) ~stats
     ~gate_delay:(gate_delay_fn ctx circuit) ~horizon ())
    .Switchsim.Sim.power

let zero_power (ctx : Common.t) ~seed ~horizon circuit stats =
  let sim = Switchsim.Sim.build ctx.Common.proc circuit in
  (Switchsim.Sim.run_stats sim ~rng:(Stoch.Rng.create seed) ~stats ~horizon ())
    .Switchsim.Sim.power

let run (ctx : Common.t) ?(seed = 42) ?(sim_horizon = 2e-3) ?circuits scenario =
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.all ()
  in
  let rows =
    List.map
      (fun (name, circuit) ->
        let stats =
          Power.Scenario.input_stats
            ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
            scenario circuit
        in
        let sim_seed = seed + (5 * Hashtbl.hash name) in
        let zero = zero_power ctx ~seed:sim_seed ~horizon:sim_horizon circuit stats in
        let timed =
          timed_power ctx ~seed:sim_seed ~horizon:sim_horizon circuit stats
        in
        let best, worst =
          O.best_and_worst ctx.Common.power ~delay:ctx.Common.delay circuit
            ~inputs:stats
        in
        let timed_best =
          timed_power ctx ~seed:sim_seed ~horizon:sim_horizon best.O.circuit stats
        in
        let timed_worst =
          timed_power ctx ~seed:sim_seed ~horizon:sim_horizon worst.O.circuit
            stats
        in
        {
          name;
          zero_power = zero;
          timed_power = timed;
          glitch_percent =
            (if timed <= 0. then 0. else 100. *. (timed -. zero) /. timed);
          timed_reduction_percent =
            O.reduction_percent ~best:timed_best ~worst:timed_worst;
        })
      circuits
  in
  let avg f = Report.Stats.mean (List.map f rows) in
  {
    rows;
    avg_glitch = avg (fun r -> r.glitch_percent);
    avg_timed_reduction = avg (fun r -> r.timed_reduction_percent);
  }

let render t =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("zero-delay", Report.Table.Right);
          ("timed", Report.Table.Right);
          ("glitch %", Report.Table.Right);
          ("timed best-vs-worst %", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.name;
          Report.Table.cell_power r.zero_power;
          Report.Table.cell_power r.timed_power;
          Report.Table.cell_percent r.glitch_percent;
          Report.Table.cell_percent r.timed_reduction_percent;
        ])
    t.rows;
  Report.Table.add_separator table;
  Report.Table.add_row table
    [
      "average";
      "";
      "";
      Report.Table.cell_percent t.avg_glitch;
      Report.Table.cell_percent t.avg_timed_reduction;
    ];
  "E9 — glitch power under inertial delays (extension; the paper's §1\n\
   motivates reordering with exactly these useless transitions)\n"
  ^ Report.Table.render table
