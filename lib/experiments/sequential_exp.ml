module M = Sequential.Machine
module O = Reorder.Optimizer
module S = Stoch.Signal_stats
module C = Netlist.Circuit

type row = {
  name : string;
  gates : int;
  iterations : int;
  converged : bool;
  density_error_percent : float;
  model_reduction_percent : float;
  sim_reduction_percent : float;
}

let cycle = Power.Scenario.cycle_time

let free_stats _ = S.make ~prob:0.5 ~density:(0.5 /. cycle)

let rebuild machine circuit =
  let source = M.circuit machine in
  M.create circuit
    ~registers:
      (List.map
         (fun (d, q) -> (C.net_name source d, C.net_name source q))
         (M.registers machine))

let run (ctx : Common.t) ?(seed = 42) ?(cycles = 2048) ?machines () =
  let machines =
    match machines with Some m -> m | None -> Sequential.Machines.all ()
  in
  List.map
    (fun (name, machine) ->
      let fp = M.steady_state ctx.Common.power machine ~inputs:free_stats () in
      let trace =
        M.simulate ctx.Common.proc machine
          ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
          ~cycles ~inputs:free_stats ()
      in
      let errors =
        List.filter_map
          (fun (q, measured) ->
            let truth = S.density measured in
            if truth *. cycle < 0.01 then None
            else
              let predicted =
                S.density (Power.Analysis.stats fp.M.analysis q)
              in
              Some
                (Float.min 999. (100. *. Float.abs (predicted -. truth) /. truth)))
          trace.M.register_stats
      in
      (* Optimize the core under the fixpoint statistics. *)
      let stats net = Power.Analysis.stats fp.M.analysis net in
      let optimize objective =
        O.optimize ctx.Common.power ~delay:ctx.Common.delay ~objective
          (M.circuit machine) ~inputs:stats
      in
      let best = optimize O.Min_power in
      let worst = optimize O.Max_power in
      let sim_power report =
        let rebuilt = rebuild machine report.O.circuit in
        (M.simulate ctx.Common.proc rebuilt
           ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
           ~cycles ~inputs:free_stats ())
          .M.power
      in
      let p_best = sim_power best and p_worst = sim_power worst in
      {
        name;
        gates = C.gate_count (M.circuit machine);
        iterations = fp.M.iterations;
        converged = fp.M.converged;
        density_error_percent =
          (if errors = [] then 0. else Report.Stats.mean errors);
        model_reduction_percent =
          O.reduction_percent ~best:best.O.power_after
            ~worst:worst.O.power_after;
        sim_reduction_percent = O.reduction_percent ~best:p_best ~worst:p_worst;
      })
    machines

let render rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("machine", Report.Table.Left);
          ("G", Report.Table.Right);
          ("fixpoint iters", Report.Table.Right);
          ("density err %", Report.Table.Right);
          ("M %", Report.Table.Right);
          ("S %", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.name ^ (if r.converged then "" else " (!)");
          string_of_int r.gates;
          string_of_int r.iterations;
          Report.Table.cell_percent r.density_error_percent;
          Report.Table.cell_percent r.model_reduction_percent;
          Report.Table.cell_percent r.sim_reduction_percent;
        ])
    rows;
  "E12 — latch-bounded machines: register-statistics fixpoint vs cycle\n\
   simulation, and best-vs-worst reordering of the sequential core\n\
   (density error is the lag-one approximation's bias: small for white\n\
   LFSR state, large for correlated counter state)\n"
  ^ Report.Table.render table
