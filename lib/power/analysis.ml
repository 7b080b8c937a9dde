module C = Netlist.Circuit

(* §4.2: statistics are configuration-independent, so one propagation
   per net suffices — this counter makes that invariant testable. *)
let c_densities_propagated = Obs.counter "power.densities_propagated"

type t = { per_net : Stoch.Signal_stats.t array }

let gate_input_stats_of per_net (gate : C.gate) =
  Array.map (fun net -> per_net.(net)) gate.C.fanins

let run table circuit ~inputs =
  Obs.span "power.analysis" @@ fun () ->
  Telemetry.progress_begin ~phase:"power.analysis"
    ~total:(C.gate_count circuit);
  let per_net =
    Array.make (C.net_count circuit) (Stoch.Signal_stats.constant false)
  in
  List.iter
    (fun net -> per_net.(net) <- inputs net)
    (C.primary_inputs circuit);
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let input_stats = gate_input_stats_of per_net gate in
      let groups = Model.groups_of_nets gate.C.fanins in
      Obs.incr c_densities_propagated;
      per_net.(gate.C.output) <-
        Model.output_stats table gate.C.cell ~input_stats ~groups ();
      Telemetry.progress_tick ())
    (C.topological_order circuit);
  { per_net }

let stats t net = t.per_net.(net)
let all_stats t = Array.copy t.per_net

let gate_input_stats t circuit g =
  gate_input_stats_of t.per_net (C.gate_at circuit g)
