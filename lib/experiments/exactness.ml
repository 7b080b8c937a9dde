module C = Netlist.Circuit
module S = Stoch.Signal_stats

type row = {
  name : string;
  nets : int;
  local_mean_error : float;
  local_worst_error : float;
  sim_mean_error : float;
  max_bdd : int;
}

let default_circuits () =
  List.map
    (fun n -> (n, Circuits.Suite.find n))
    [
      "c17"; "maj3"; "par4"; "dec2"; "mux4"; "rca4"; "cmpeq4"; "maj5";
      "dec3"; "par9"; "mux8"; "gray8"; "bcd7seg"; "alu1"; "tree16";
    ]

let row (ctx : Common.t) ?(seed = 42) ?(sim_horizon = 8e-3) (name, circuit) =
  let stats _ = S.make ~prob:0.5 ~density:(0.5 /. Power.Scenario.cycle_time) in
  let local = Power.Analysis.run ctx.Common.power circuit ~inputs:stats in
  let exact = Power.Exact.run circuit ~inputs:stats in
  let sim = Switchsim.Sim.build ctx.Common.proc circuit in
  let result =
    Switchsim.Sim.run_stats sim
      ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
      ~stats ~horizon:sim_horizon ()
  in
  (* Compare on gate outputs whose exact density is well above the
     simulator's noise floor. *)
  let floor = 0.05 /. Power.Scenario.cycle_time in
  let entries =
    Array.to_list (C.gates circuit)
    |> List.filter_map (fun (gate : C.gate) ->
           let net = gate.C.output in
           let e = S.density (Power.Exact.stats exact net) in
           if e < floor then None
           else
             let l = S.density (Power.Analysis.stats local net) in
             let s = S.density (Switchsim.Sim.measured_stats result net) in
             Some
               ( 100. *. Float.abs (l -. e) /. e,
                 100. *. Float.abs (s -. e) /. e ))
  in
  let locals = List.map fst entries and sims = List.map snd entries in
  {
    name;
    nets = List.length entries;
    local_mean_error = (if locals = [] then 0. else Report.Stats.mean locals);
    local_worst_error = (if locals = [] then 0. else Report.Stats.maximum locals);
    sim_mean_error = (if sims = [] then 0. else Report.Stats.mean sims);
    max_bdd = Power.Exact.max_bdd_size exact;
  }

let run ctx ?seed ?sim_horizon ?circuits () =
  let circuits =
    match circuits with Some c -> c | None -> default_circuits ()
  in
  List.map (row ctx ?seed ?sim_horizon) circuits

let render rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("circuit", Report.Table.Left);
          ("nets", Report.Table.Right);
          ("local err %", Report.Table.Right);
          ("worst %", Report.Table.Right);
          ("sim err %", Report.Table.Right);
          ("max BDD", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.name;
          string_of_int r.nets;
          Report.Table.cell_percent r.local_mean_error;
          Report.Table.cell_percent r.local_worst_error;
          Report.Table.cell_percent r.sim_mean_error;
          string_of_int r.max_bdd;
        ])
    rows;
  Report.Table.add_separator table;
  let avg f = Report.Stats.mean (List.map f rows) in
  Report.Table.add_row table
    [
      "average";
      "";
      Report.Table.cell_percent (avg (fun r -> r.local_mean_error));
      Report.Table.cell_percent (avg (fun r -> r.local_worst_error));
      Report.Table.cell_percent (avg (fun r -> r.sim_mean_error));
      "";
    ];
  "E11 — density error of the paper's local propagation vs exact global\n\
   BDDs, with the switch-level simulator as the noise yardstick\n\
   (scenario-B inputs; gate outputs above the noise floor)\n"
  ^ Report.Table.render table
