module C = Netlist.Circuit

type point = {
  bit : int;
  operand_density : float;
  carry_density_model : float;
  carry_density_sim : float;
  carry_probability : float;
}

type t = { bits : int; points : point list }

(* The ripple-carry generator builds each stage's carry as
   inv(aoi222(...)); the inverter outputs, in gate order, are the carry
   chain c1..cn. *)
let carry_nets circuit =
  List.filter_map
    (fun g ->
      let gate = C.gate_at circuit g in
      if Cell.Gate.name gate.C.cell <> "inv" then None
      else
        match C.driver circuit gate.C.fanins.(0) with
        | C.Driven_by d
          when Cell.Gate.name (C.gate_at circuit d).C.cell = "aoi222" ->
            Some gate.C.output
        | C.Driven_by _ | C.Primary_input -> None)
    (C.topological_order circuit)

let run (ctx : Common.t) ?(seed = 7) ?(sim_horizon = 4e-3) ~bits () =
  let circuit = Circuits.Generators.ripple_carry_adder bits in
  let operand_density = 0.5 /. Power.Scenario.cycle_time in
  let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:operand_density in
  let analysis = Power.Analysis.run ctx.Common.power circuit ~inputs:stats in
  let sim = Switchsim.Sim.build ctx.Common.proc circuit in
  let result =
    Switchsim.Sim.run_stats sim ~rng:(Stoch.Rng.create seed) ~stats
      ~horizon:sim_horizon ()
  in
  let points =
    List.mapi
      (fun i net ->
        let model = Power.Analysis.stats analysis net in
        let sim_stats = Switchsim.Sim.measured_stats result net in
        {
          bit = i + 1;
          operand_density;
          carry_density_model = Stoch.Signal_stats.density model;
          carry_density_sim = Stoch.Signal_stats.density sim_stats;
          carry_probability = Stoch.Signal_stats.prob model;
        })
      (carry_nets circuit)
  in
  { bits; points }

let render t =
  let table =
    Report.Table.create
      ~columns:
        [
          ("carry bit", Report.Table.Right);
          ("operand D (1/s)", Report.Table.Right);
          ("carry D model", Report.Table.Right);
          ("carry D sim", Report.Table.Right);
          ("carry P", Report.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Report.Table.add_row table
        [
          string_of_int p.bit;
          Printf.sprintf "%.3g" p.operand_density;
          Printf.sprintf "%.3g" p.carry_density_model;
          Printf.sprintf "%.3g" p.carry_density_sim;
          Report.Table.cell_float ~decimals:3 p.carry_probability;
        ])
    t.points;
  Printf.sprintf
    "E5 — %d-bit ripple-carry adder carry activity (probabilities flat at 0.5,\n\
     densities grow along the carry chain — §1.1 motivation 2)\n%s"
    t.bits
    (Report.Table.render table)
