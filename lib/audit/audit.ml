module C = Netlist.Circuit
module Sim = Switchsim.Sim

let d_density_err = Obs.distribution "audit.net_density_error_percent"
let d_prob_err = Obs.distribution "audit.net_prob_error_abs"

type net_row = {
  net : C.net;
  name : string;
  driver_gate : int option;
  driver : string;
  fanout : int;
  depth : int;
  pred_prob : float;
  meas_prob : float;
  prob_err : float;
  pred_density : float;
  meas_density : float;
  meas_density_se : float;
  density_err_pct : float;
  toggles : int;
  sim_energy : float;
}

type gate_row = {
  gate : int;
  cell : string;
  output_name : string;
  model_power : float;
  sim_power : float;
  power_err_pct : float;
}

type summary = {
  nets : int;
  active_nets : int;
  mean_density_err_pct : float;
  max_density_err_pct : float;
  mean_prob_err : float;
  max_prob_err : float;
  model_total : float;
  sim_total : float;
  total_err_pct : float;
}

type measurement = Sim_result of Sim.result | Mc_result of Mc.result

type t = {
  circuit : string;
  backend : Power.Backend.t;
  window : float;
  net_rows : net_row array;
  gate_rows : gate_row array;
  summary : summary;
  measurement : measurement;
}

let sim_result t =
  match t.measurement with
  | Sim_result r -> r
  | Mc_result _ -> invalid_arg "Audit.sim_result: audit ran the mc backend"

let mc_result t =
  match t.measurement with
  | Mc_result m -> m
  | Sim_result _ ->
      invalid_arg "Audit.mc_result: audit ran the switchsim backend"

let signed_pct ~floor pred meas =
  100. *. (pred -. meas) /. Float.max (Float.abs meas) floor

let run table ?external_load ?(backend = Power.Backend.Switchsim) ?sim
    ?observer ?(warmup = 0.) ?(min_toggles = 8) ?samples ?pool ~rng ~inputs
    ~horizon circuit =
  Obs.span "audit.run" @@ fun () ->
  let proc = Power.Model.process table in
  let analysis = Power.Analysis.run table circuit ~inputs in
  let breakdown = Power.Estimate.circuit table ?external_load circuit analysis in
  let measurement =
    match backend with
    | Power.Backend.Analytical ->
        invalid_arg
          "Audit.run: the analytical model is the predicted side; measure \
           with the switchsim or mc backend"
    | Power.Backend.Switchsim ->
        let sim =
          match sim with
          | Some s -> s
          | None -> Sim.build proc ?external_load circuit
        in
        Sim_result
          (Sim.run_stats sim ~rng ~stats:inputs ~horizon ~warmup ?observer ())
    | Power.Backend.Mc ->
        (* Deterministic per caller seed: the engine wants an integer
           seed for its per-block split streams, so derive one from the
           caller's stream. *)
        let seed = Int64.to_int (Int64.logand (Stoch.Rng.bits64 rng) 0x3FFFFFFFL) in
        Mc_result (Mc.estimate table ?external_load ?pool ?samples ~seed ~inputs circuit)
  in
  let window =
    match measurement with
    | Sim_result r -> r.Sim.horizon
    | Mc_result m -> m.Mc.window
  in
  (* One measured toggle is the density resolution of the instrument:
     the whole window for the simulator, the summed lane-time for MC. *)
  let density_floor =
    match measurement with
    | Sim_result r -> 1. /. r.Sim.horizon
    | Mc_result m -> 1. /. (float_of_int m.Mc.trajectories *. m.Mc.window)
  in
  let meas_stats net =
    match measurement with
    | Sim_result r -> Sim.measured_stats r net
    | Mc_result m -> Mc.measured_stats m net
  in
  let meas_se net =
    match measurement with
    | Sim_result _ -> 0.
    | Mc_result m -> m.Mc.density_se.(net)
  in
  let net_toggles net =
    match measurement with
    | Sim_result r -> r.Sim.net_toggles.(net)
    | Mc_result m -> m.Mc.net_toggles.(net)
  in
  let net_energy net =
    match measurement with
    | Sim_result r -> r.Sim.per_net_energy.(net)
    | Mc_result m -> m.Mc.per_net_energy.(net)
  in
  (* MC evaluates functionally, so it sees output-node switching only:
     compare it against the model's output-node share, not the full
     gate power (which includes internal-node charging). *)
  let gate_model_power g =
    match measurement with
    | Sim_result _ -> breakdown.Power.Estimate.per_gate.(g)
    | Mc_result _ ->
        let gate = C.gate_at circuit g in
        (Power.Estimate.gate table ?external_load circuit analysis g
           ~config:gate.C.config)
          .Power.Model.output
  in
  let gate_meas_power g =
    match measurement with
    | Sim_result r -> r.Sim.per_gate_energy.(g) /. window
    | Mc_result m -> m.Mc.per_gate_energy.(g) /. window
  in
  let levels = C.levels circuit in
  (* One tick per joined net (the measurement itself reported its own
     phase — mc.run registers blocks — so this covers the join). *)
  Telemetry.progress_begin ~phase:"audit.join"
    ~total:(C.net_count circuit);
  let net_rows =
    Array.init (C.net_count circuit) (fun net ->
        Telemetry.progress_tick ();
        let pred = Power.Analysis.stats analysis net in
        let meas = meas_stats net in
        let pred_prob = Stoch.Signal_stats.prob pred in
        let meas_prob = Stoch.Signal_stats.prob meas in
        let pred_density = Stoch.Signal_stats.density pred in
        let meas_density = Stoch.Signal_stats.density meas in
        let driver_gate, driver, depth =
          match C.driver circuit net with
          | C.Primary_input -> (None, "PI", 0)
          | C.Driven_by g ->
              ( Some g,
                Cell.Gate.name (C.gate_at circuit g).C.cell,
                levels.(g) )
        in
        let toggles = net_toggles net in
        let prob_err = Float.abs (pred_prob -. meas_prob) in
        let density_err_pct =
          signed_pct ~floor:density_floor pred_density meas_density
        in
        Obs.observe d_prob_err prob_err;
        if toggles >= min_toggles then
          Obs.observe d_density_err (Float.abs density_err_pct);
        {
          net;
          name = C.net_name circuit net;
          driver_gate;
          driver;
          fanout = C.fanout_count circuit net;
          depth;
          pred_prob;
          meas_prob;
          prob_err;
          pred_density;
          meas_density;
          meas_density_se = meas_se net;
          density_err_pct;
          toggles;
          sim_energy = net_energy net;
        })
  in
  let gate_rows =
    Array.init (C.gate_count circuit) (fun g ->
        let gate = C.gate_at circuit g in
        let model_power = gate_model_power g in
        let sim_power = gate_meas_power g in
        {
          gate = g;
          cell = Cell.Gate.name gate.C.cell;
          output_name = C.net_name circuit gate.C.output;
          model_power;
          sim_power;
          power_err_pct = signed_pct ~floor:1e-12 model_power sim_power;
        })
  in
  let active = Array.to_list net_rows |> List.filter (fun n -> n.toggles >= min_toggles) in
  let mean f = function
    | [] -> 0.
    | l -> List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (List.length l)
  in
  let maxi f l = List.fold_left (fun a x -> Float.max a (f x)) 0. l in
  let all = Array.to_list net_rows in
  let model_total =
    match measurement with
    | Sim_result _ -> breakdown.Power.Estimate.total
    | Mc_result _ -> breakdown.Power.Estimate.output
  in
  let sim_total =
    match measurement with
    | Sim_result r -> r.Sim.power
    | Mc_result m -> m.Mc.power
  in
  let summary =
    {
      nets = Array.length net_rows;
      active_nets = List.length active;
      mean_density_err_pct = mean (fun n -> Float.abs n.density_err_pct) active;
      max_density_err_pct = maxi (fun n -> Float.abs n.density_err_pct) active;
      mean_prob_err = mean (fun n -> n.prob_err) all;
      max_prob_err = maxi (fun n -> n.prob_err) all;
      model_total;
      sim_total;
      total_err_pct = signed_pct ~floor:1e-12 model_total sim_total;
    }
  in
  { circuit = C.name circuit; backend; window; net_rows; gate_rows; summary;
    measurement }

let take top l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  match top with None -> l | Some n -> go n l

let worst_nets ?top t =
  let active, idle =
    Array.to_list t.net_rows
    |> List.partition (fun n -> Float.abs n.sim_energy > 0. || n.toggles > 0)
  in
  let by_err l =
    List.stable_sort
      (fun a b ->
        compare (Float.abs b.density_err_pct) (Float.abs a.density_err_pct))
      l
  in
  take top (by_err active @ by_err idle)

let worst_gates ?top t =
  Array.to_list t.gate_rows
  |> List.stable_sort (fun a b ->
         compare (Float.abs b.power_err_pct) (Float.abs a.power_err_pct))
  |> take top

let render ?(top = 10) t =
  let b = Buffer.create 2048 in
  let s = t.summary in
  let instrument =
    match t.measurement with
    | Sim_result _ -> ""
    | Mc_result m ->
        Printf.sprintf "; mc: %d samples in %d blocks, dt %s" m.Mc.samples
          m.Mc.blocks
          (Report.Table.cell_time m.Mc.dt)
  in
  Buffer.add_string b
    (Printf.sprintf "audit: %s vs %s over %s (%d nets, %d active%s)\n"
       t.circuit
       (Power.Backend.name t.backend)
       (Report.Table.cell_time t.window) s.nets s.active_nets instrument);
  Buffer.add_string b
    (Printf.sprintf "  density error: mean %.1f%%  max %.1f%%  (active nets)\n"
       s.mean_density_err_pct s.max_density_err_pct);
  Buffer.add_string b
    (Printf.sprintf "  prob error:    mean %.3f  max %.3f\n" s.mean_prob_err
       s.max_prob_err);
  Buffer.add_string b
    (Printf.sprintf "  power:         model %s  sim %s  (%s%%)\n"
       (Report.Table.cell_power s.model_total)
       (Report.Table.cell_power s.sim_total)
       (Report.Table.cell_signed_percent s.total_err_pct));
  Buffer.add_string b (Printf.sprintf "\nworst-calibrated nets (top %d):\n" top);
  let nets =
    Report.Table.create
      ~columns:
        [
          ("net", Report.Table.Left);
          ("driver", Report.Table.Left);
          ("fo", Report.Table.Right);
          ("lvl", Report.Table.Right);
          ("P model", Report.Table.Right);
          ("P sim", Report.Table.Right);
          ("D model", Report.Table.Right);
          ("D sim", Report.Table.Right);
          ("D err %", Report.Table.Right);
          ("toggles", Report.Table.Right);
        ]
  in
  List.iter
    (fun n ->
      Report.Table.add_row nets
        [
          n.name;
          n.driver;
          string_of_int n.fanout;
          string_of_int n.depth;
          Report.Table.cell_float ~decimals:3 n.pred_prob;
          Report.Table.cell_float ~decimals:3 n.meas_prob;
          Printf.sprintf "%.3g" n.pred_density;
          Printf.sprintf "%.3g" n.meas_density;
          Report.Table.cell_signed_percent n.density_err_pct;
          string_of_int n.toggles;
        ])
    (worst_nets ~top t);
  Buffer.add_string b (Report.Table.render nets);
  Buffer.add_string b (Printf.sprintf "\nworst-calibrated gates (top %d):\n" top);
  let gates =
    Report.Table.create
      ~columns:
        [
          ("gate", Report.Table.Left);
          ("output", Report.Table.Left);
          ("P model", Report.Table.Right);
          ("P sim", Report.Table.Right);
          ("err %", Report.Table.Right);
        ]
  in
  List.iter
    (fun g ->
      Report.Table.add_row gates
        [
          Printf.sprintf "g%d %s" g.gate g.cell;
          g.output_name;
          Report.Table.cell_power g.model_power;
          Report.Table.cell_power g.sim_power;
          Report.Table.cell_signed_percent g.power_err_pct;
        ])
    (worst_gates ~top t);
  Buffer.add_string b (Report.Table.render gates);
  Buffer.contents b

(* --- JSON --- *)

let net_row_fields n =
  [
    ("net", Json.int n.net);
    ("name", Json.Str n.name);
    ("driver", Json.Str n.driver);
    ( "driver_gate",
      match n.driver_gate with None -> Json.Null | Some g -> Json.int g );
    ("fanout", Json.int n.fanout);
    ("depth", Json.int n.depth);
    ("pred_prob", Json.Num n.pred_prob);
    ("meas_prob", Json.Num n.meas_prob);
    ("prob_err", Json.Num n.prob_err);
    ("pred_density", Json.Num n.pred_density);
    ("meas_density", Json.Num n.meas_density);
    ("meas_density_se", Json.Num n.meas_density_se);
    ("density_err_pct", Json.Num n.density_err_pct);
    ("toggles", Json.int n.toggles);
    ("sim_energy", Json.Num n.sim_energy);
  ]

let gate_row_fields g =
  [
    ("gate", Json.int g.gate);
    ("cell", Json.Str g.cell);
    ("output", Json.Str g.output_name);
    ("model_power", Json.Num g.model_power);
    ("sim_power", Json.Num g.sim_power);
    ("power_err_pct", Json.Num g.power_err_pct);
  ]

let summary_fields t =
  let s = t.summary in
  [
    ("circuit", Json.Str t.circuit);
    ("backend", Json.Str (Power.Backend.name t.backend));
    ("window", Json.Num t.window);
    ("nets", Json.int s.nets);
    ("active_nets", Json.int s.active_nets);
    ("mean_density_err_pct", Json.Num s.mean_density_err_pct);
    ("max_density_err_pct", Json.Num s.max_density_err_pct);
    ("mean_prob_err", Json.Num s.mean_prob_err);
    ("max_prob_err", Json.Num s.max_prob_err);
    ("model_total", Json.Num s.model_total);
    ("sim_total", Json.Num s.sim_total);
    ("total_err_pct", Json.Num s.total_err_pct);
  ]

let rows fields arr = Array.to_list (Array.map fields arr)

let to_json t =
  let objects fields arr = Json.Arr (rows (fun r -> Json.Obj (fields r)) arr) in
  Json.print
    (Json.Obj
       [
         ("summary", Json.Obj (summary_fields t));
         ("nets", objects net_row_fields t.net_rows);
         ("gates", objects gate_row_fields t.gate_rows);
       ])

let to_ndjson t =
  let tag kind fields = Json.Obj (("kind", Json.Str kind) :: fields) in
  Json.ndjson
    (rows (fun n -> tag "net" (net_row_fields n)) t.net_rows
    @ rows (fun g -> tag "gate" (gate_row_fields g)) t.gate_rows
    @ [ tag "summary" (summary_fields t) ])
