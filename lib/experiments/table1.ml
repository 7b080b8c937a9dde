type row = {
  config_index : int;
  description : string;
  case1_relative : float;
  case2_relative : float;
}

type t = {
  rows : row list;
  case1_reduction_percent : float;
  case2_reduction_percent : float;
  optimum_flips : bool;
}

let pin_names = [| "a1"; "a2"; "b" |]

let run (ctx : Common.t) =
  let gate = Cell.Gate.of_name "oai21" in
  let configs = Cell.Config.all gate in
  let stats d = Stoch.Signal_stats.make ~prob:0.5 ~density:d in
  let case1 = [| stats 1e4; stats 1e5; stats 1e6 |] in
  let case2 = [| stats 1e6; stats 1e5; stats 1e4 |] in
  let power input_stats config =
    (Power.Model.gate_power ctx.Common.power gate ~config ~input_stats
       ~load:Netlist.Load.default_external ())
      .Power.Model.total
  in
  let p1 = List.mapi (fun i _ -> power case1 i) configs in
  let p2 = List.mapi (fun i _ -> power case2 i) configs in
  let reference = List.fold_left Float.max 0. p1 in
  let rows =
    List.mapi
      (fun i config ->
        {
          config_index = i;
          description =
            Cell.Config.to_string ~names:(Common.input_names pin_names) config;
          case1_relative = List.nth p1 i /. reference;
          case2_relative = List.nth p2 i /. reference;
        })
      configs
  in
  let reduction powers =
    let best = List.fold_left Float.min infinity powers in
    let worst = List.fold_left Float.max 0. powers in
    100. *. (worst -. best) /. worst
  in
  let argmin powers =
    let best = List.fold_left Float.min infinity powers in
    let rec find i = function
      | [] -> -1
      | p :: rest -> if p = best then i else find (i + 1) rest
    in
    find 0 powers
  in
  {
    rows;
    case1_reduction_percent = reduction p1;
    case2_reduction_percent = reduction p2;
    optimum_flips = argmin p1 <> argmin p2;
  }

let render t =
  let table =
    Report.Table.create
      ~columns:
        [
          ("config", Report.Table.Left);
          ("ordering", Report.Table.Left);
          ("case 1 (rel)", Report.Table.Right);
          ("case 2 (rel)", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          string_of_int r.config_index;
          r.description;
          Report.Table.cell_float ~decimals:3 r.case1_relative;
          Report.Table.cell_float ~decimals:3 r.case2_relative;
        ])
    t.rows;
  Printf.sprintf
    "Table 1 — motivation example y=(a1+a2).b (paper: 19%% / 17%%, optimum flips)\n%s\
     case 1 best-vs-worst reduction: %.1f%%\n\
     case 2 best-vs-worst reduction: %.1f%%\n\
     optimum flips between cases: %b\n"
    (Report.Table.render table)
    t.case1_reduction_percent t.case2_reduction_percent t.optimum_flips
