module O = Reorder.Optimizer

type row = {
  label : string;
  proc : Cell.Process.t;
  table1_case1 : float;
  table1_case2 : float;
  table1_flips : bool;
  table3_avg_model : float;
}

let scale ?(c_junction = 1.) ?(c_wire = 1.) ?(r_pmos = 1.) () =
  let d = Cell.Process.default in
  Cell.Process.make ~vdd:d.Cell.Process.vdd
    ~c_gate:d.Cell.Process.c_gate
    ~c_junction:(c_junction *. d.Cell.Process.c_junction)
    ~c_wire:(c_wire *. d.Cell.Process.c_wire)
    ~r_nmos:d.Cell.Process.r_nmos
    ~r_pmos:(r_pmos *. d.Cell.Process.r_pmos)

let default_variants () =
  [
    ("baseline", Cell.Process.default);
    ("junction x0.5", scale ~c_junction:0.5 ());
    ("junction x2", scale ~c_junction:2. ());
    ("wire x0.5", scale ~c_wire:0.5 ());
    ("wire x2", scale ~c_wire:2. ());
    ("rp = rn", scale ~r_pmos:0.5 ());
    ("rp = 3rn", scale ~r_pmos:1.5 ());
  ]

let run ?variants ?(seed = 42) ?circuits () =
  let variants =
    match variants with Some v -> v | None -> default_variants ()
  in
  let circuits =
    match circuits with Some c -> c | None -> Circuits.Suite.small ()
  in
  List.map
    (fun (label, proc) ->
      let ctx = Common.create ~proc () in
      let t1 = Table1.run ctx in
      let reductions =
        List.map
          (fun (name, circuit) ->
            let inputs =
              Power.Scenario.input_stats
                ~rng:(Stoch.Rng.create (seed + Hashtbl.hash name))
                Power.Scenario.A circuit
            in
            let best, worst =
              O.best_and_worst ctx.Common.power ~delay:ctx.Common.delay circuit
                ~inputs
            in
            O.reduction_percent ~best:best.O.power_after
              ~worst:worst.O.power_after)
          circuits
      in
      {
        label;
        proc;
        table1_case1 = t1.Table1.case1_reduction_percent;
        table1_case2 = t1.Table1.case2_reduction_percent;
        table1_flips = t1.Table1.optimum_flips;
        table3_avg_model = Report.Stats.mean reductions;
      })
    variants

let render rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("process variant", Report.Table.Left);
          ("T1 case1 %", Report.Table.Right);
          ("T1 case2 %", Report.Table.Right);
          ("optimum flips", Report.Table.Left);
          ("T3 avg M %", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.label;
          Report.Table.cell_percent r.table1_case1;
          Report.Table.cell_percent r.table1_case2;
          string_of_bool r.table1_flips;
          Report.Table.cell_percent r.table3_avg_model;
        ])
    rows;
  "E10 — sensitivity of the headline numbers to the capacitance/resistance\n\
   extraction (the paper's exact values are unpublished; see EXPERIMENTS.md)\n"
  ^ Report.Table.render table
