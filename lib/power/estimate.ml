module C = Netlist.Circuit

type breakdown = {
  per_gate : float array;
  internal : float;
  output : float;
  total : float;
}

let d_gate_power = Obs.distribution "power.gate_power_uw"

let gate table ?external_load circuit analysis g ~config =
  let gate = C.gate_at circuit g in
  let input_stats = Analysis.gate_input_stats analysis circuit g in
  let groups = Model.groups_of_nets gate.C.fanins in
  let load =
    Netlist.Load.output (Model.process table) ?external_load circuit g
  in
  Model.gate_power table gate.C.cell ~config ~input_stats ~groups ~load ()

let circuit table ?external_load circuit_ analysis =
  Obs.span "power.estimate" @@ fun () ->
  let n = C.gate_count circuit_ in
  let per_gate = Array.make n 0. in
  let internal = ref 0. and output = ref 0. in
  for g = 0 to n - 1 do
    let power =
      gate table ?external_load circuit_ analysis g
        ~config:(C.gate_at circuit_ g).C.config
    in
    per_gate.(g) <- power.Model.total;
    Obs.observe d_gate_power (power.Model.total *. 1e6);
    internal := !internal +. power.Model.internal;
    output := !output +. power.Model.output
  done;
  {
    per_gate;
    internal = !internal;
    output = !output;
    total = !internal +. !output;
  }

let total table ?external_load circuit_ analysis =
  (circuit table ?external_load circuit_ analysis).total
