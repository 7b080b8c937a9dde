(* Integration tests for the experiment drivers: each paper artifact is
   regenerated on small inputs and its structural claims are asserted
   (the full-scale numbers live in bench_output.txt / EXPERIMENTS.md). *)

let ctx = Experiments.Common.create ()

let small_circuits names =
  List.map (fun n -> (n, Circuits.Suite.find n)) names

(* --- E1 --- *)

let test_table1_structure () =
  let t = Experiments.Table1.run ctx in
  Alcotest.(check int) "four configurations" 4
    (List.length t.Experiments.Table1.rows);
  Alcotest.(check bool) "optimum flips" true t.Experiments.Table1.optimum_flips;
  Alcotest.(check bool) "case-1 reduction positive" true
    (t.Experiments.Table1.case1_reduction_percent > 0.);
  Alcotest.(check bool) "case-2 reduction positive" true
    (t.Experiments.Table1.case2_reduction_percent > 0.);
  (* Relative powers are normalized to the case-1 maximum. *)
  let max1 =
    Report.Stats.maximum
      (List.map (fun r -> r.Experiments.Table1.case1_relative)
         t.Experiments.Table1.rows)
  in
  Alcotest.(check (float 1e-9)) "case-1 max is 1" 1. max1

let test_table1_render_mentions_paper () =
  let s = Experiments.Table1.render (Experiments.Table1.run ctx) in
  Alcotest.(check bool) "labels present" true
    (String.length s > 0
    && String.split_on_char '\n' s <> []
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "Table 1" && contains "reduction")

(* --- E2 --- *)

let test_table2_counts_consistent () =
  let rows = Experiments.Table2.run () in
  Alcotest.(check int) "whole library" (List.length Cell.Gate.library)
    (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Experiments.Table2.gate ^ " pivot count agrees")
        r.Experiments.Table2.configurations
        r.Experiments.Table2.pivot_configurations)
    rows

(* --- E3 --- *)

let test_figure5_steps () =
  let steps = Experiments.Figure5.run () in
  Alcotest.(check int) "four configurations" 4 (List.length steps);
  match steps with
  | first :: rest ->
      Alcotest.(check bool) "starts unpivoted" true
        (first.Experiments.Figure5.pivoted_node = None);
      List.iter
        (fun s ->
          Alcotest.(check bool) "later steps pivot" true
            (s.Experiments.Figure5.pivoted_node <> None))
        rest
  | [] -> Alcotest.fail "empty trace"

(* --- E4 --- *)

let test_table3_row_fields () =
  let row =
    Experiments.Table3.row ctx ~sim_horizon:1e-3 Power.Scenario.A
      ("rca4", Circuits.Suite.find "rca4")
  in
  Alcotest.(check string) "name" "rca4" row.Experiments.Table3.name;
  Alcotest.(check int) "gates" 40 row.Experiments.Table3.gates;
  Alcotest.(check bool) "model reduction positive" true
    (row.Experiments.Table3.model_percent > 0.);
  Alcotest.(check bool) "sim reduction sane" true
    (row.Experiments.Table3.sim_percent > -5.
    && row.Experiments.Table3.sim_percent < 50.)

let test_table3_averages () =
  let t =
    Experiments.Table3.run ctx ~sim_horizon:1e-3
      ~circuits:(small_circuits [ "c17"; "mux4"; "par4" ])
      Power.Scenario.B
  in
  let mean_of field =
    Report.Stats.mean (List.map field t.Experiments.Table3.rows)
  in
  Alcotest.(check (float 1e-9)) "avg model"
    (mean_of (fun r -> r.Experiments.Table3.model_percent))
    t.Experiments.Table3.avg_model;
  Alcotest.(check (float 1e-9)) "avg sim"
    (mean_of (fun r -> r.Experiments.Table3.sim_percent))
    t.Experiments.Table3.avg_sim

let test_table3_scenarios_differ () =
  let circuits () = small_circuits [ "rca4"; "mux8" ] in
  let run s = Experiments.Table3.run ctx ~sim_horizon:1e-3 ~circuits:(circuits ()) s in
  let a = run Power.Scenario.A and b = run Power.Scenario.B in
  Alcotest.(check bool) "B weaker than A" true
    (b.Experiments.Table3.avg_model < a.Experiments.Table3.avg_model)

(* --- E5 --- *)

let test_adder_profile_shape () =
  let p = Experiments.Adder_profile.run ctx ~bits:8 ~sim_horizon:1e-3 () in
  let points = p.Experiments.Adder_profile.points in
  Alcotest.(check int) "one point per carry" 8 (List.length points);
  List.iter
    (fun pt ->
      Alcotest.(check (float 1e-9)) "carry probability exactly 0.5" 0.5
        pt.Experiments.Adder_profile.carry_probability;
      Alcotest.(check bool) "carry busier than operands" true
        (pt.Experiments.Adder_profile.carry_density_model
        > pt.Experiments.Adder_profile.operand_density))
    points;
  (* Densities grow along the chain. *)
  match (points, List.rev points) with
  | first :: _, last :: _ ->
      Alcotest.(check bool) "monotone growth" true
        (last.Experiments.Adder_profile.carry_density_model
        > first.Experiments.Adder_profile.carry_density_model)
  | _ -> Alcotest.fail "no points"

(* --- E6/E7/E9 --- *)

let test_delay_bounded_rows () =
  let rows =
    Experiments.Ablations.delay_bounded ctx
      ~circuits:(small_circuits [ "c17"; "mux4" ])
      Power.Scenario.A
  in
  List.iter
    (fun (r : Experiments.Ablations.delay_bounded_row) ->
      Alcotest.(check bool)
        (r.Experiments.Ablations.name ^ " bounded <= free")
        true
        (r.Experiments.Ablations.bounded_percent
        <= r.Experiments.Ablations.free_percent +. 1e-9);
      Alcotest.(check bool)
        (r.Experiments.Ablations.name ^ " bounded never slower")
        true
        (r.Experiments.Ablations.bounded_delay_percent <= 1e-9))
    rows

let test_input_reordering_rows () =
  let rows =
    Experiments.Ablations.input_reordering ctx
      ~circuits:(small_circuits [ "c17"; "alu1" ])
      Power.Scenario.A
  in
  List.iter
    (fun (r : Experiments.Ablations.input_reorder_row) ->
      Alcotest.(check bool)
        (r.Experiments.Ablations.name ^ " input-only <= full")
        true
        (r.Experiments.Ablations.input_only_percent
        <= r.Experiments.Ablations.full_percent +. 1e-9))
    rows

let test_model_accuracy () =
  let a =
    Experiments.Ablations.model_accuracy ctx ~sim_horizon:1e-3
      ~circuits:(small_circuits [ "c17"; "rca4"; "mux8"; "par9"; "dec3" ])
      Power.Scenario.A
  in
  Alcotest.(check bool) "strong correlation" true
    (a.Experiments.Ablations.correlation > 0.7);
  Alcotest.(check bool) "model overestimates" true
    (a.Experiments.Ablations.mean_ratio > 1.0)

let test_glitch_rows () =
  let t =
    Experiments.Glitch.run ctx ~sim_horizon:1e-3
      ~circuits:(small_circuits [ "mult4"; "par16" ])
      Power.Scenario.A
  in
  match t.Experiments.Glitch.rows with
  | [ mult; par ] ->
      Alcotest.(check bool) "multiplier glitches" true
        (mult.Experiments.Glitch.glitch_percent > 5.);
      Alcotest.(check bool)
        (Printf.sprintf "multiplier out-glitches the balanced tree (%.1f%% vs %.1f%%)"
           mult.Experiments.Glitch.glitch_percent
           par.Experiments.Glitch.glitch_percent)
        true
        (mult.Experiments.Glitch.glitch_percent
        > par.Experiments.Glitch.glitch_percent);
      Alcotest.(check bool) "reduction survives timing" true
        (mult.Experiments.Glitch.timed_reduction_percent > 0.)
  | _ -> Alcotest.fail "expected two rows"

(* --- reproduction pins --- *)

(* The model-side headline numbers EXPERIMENTS.md records, over the full
   suite, exactly at the precision the reports print. Table 3 runs with
   a 1 ns simulation window: its S column is not pinned here, and its M
   column does not depend on the simulator. *)
let test_reproduction_pins () =
  let pin what expected v =
    Alcotest.(check string) what expected (Report.Table.cell_percent v)
  and signed what expected v =
    Alcotest.(check string) what expected (Report.Table.cell_signed_percent v)
  in
  let mean f rows = Report.Stats.mean (List.map f rows) in
  let table3 s = Experiments.Table3.run ctx ~sim_horizon:1e-9 s in
  pin "E4 avg M, scenario A" "10.6"
    (table3 Power.Scenario.A).Experiments.Table3.avg_model;
  pin "E4 avg M, scenario B" "5.3"
    (table3 Power.Scenario.B).Experiments.Table3.avg_model;
  let bounded = Experiments.Ablations.delay_bounded ctx Power.Scenario.A in
  pin "E6 bounded reduction" "10.4"
    (mean (fun r -> r.Experiments.Ablations.bounded_percent) bounded);
  signed "E6 bounded delay" "-0.8"
    (mean (fun r -> r.Experiments.Ablations.bounded_delay_percent) bounded);
  let input = Experiments.Ablations.input_reordering ctx Power.Scenario.A in
  pin "E7 full reordering" "5.3"
    (mean (fun r -> r.Experiments.Ablations.full_percent) input);
  pin "E7 input reordering only" "4.9"
    (mean (fun r -> r.Experiments.Ablations.input_only_percent) input)

(* The simulator side on a fixed subset, until the full-suite Table 3
   is fast enough for @check: the 15 circuits of the bench's E6/E9
   ablation subset, at the default simulation window, exactly at the
   precision the reports print. *)
let test_simulator_pins () =
  let circuits () =
    small_circuits
      [
        "c17"; "rca4"; "par9"; "mux8"; "dec3"; "alu1"; "maj5"; "prio8";
        "cmpeq4"; "cmpgt4"; "inc6"; "tree16"; "rnd_a"; "rca8"; "mux16";
      ]
  in
  let t3 =
    Experiments.Table3.run ctx ~circuits:(circuits ()) Power.Scenario.A
  in
  Alcotest.(check string) "E4 avg S, scenario A" "8.0"
    (Report.Table.cell_percent t3.Experiments.Table3.avg_sim);
  let e8 =
    Experiments.Ablations.model_accuracy ctx ~circuits:(circuits ())
      Power.Scenario.A
  in
  Alcotest.(check string) "E8 mean model/sim ratio" "1.09"
    (Printf.sprintf "%.2f" e8.Experiments.Ablations.mean_ratio)

(* --- rendering smoke --- *)

let test_all_renders_nonempty () =
  let nonempty name s =
    Alcotest.(check bool) (name ^ " renders") true (String.length s > 40)
  in
  nonempty "table2" (Experiments.Table2.render (Experiments.Table2.run ()));
  nonempty "figure5" (Experiments.Figure5.render (Experiments.Figure5.run ()));
  let circuits = small_circuits [ "c17" ] in
  nonempty "table3"
    (Experiments.Table3.render
       (Experiments.Table3.run ctx ~sim_horizon:1e-3 ~circuits Power.Scenario.B));
  nonempty "ablations-delay"
    (Experiments.Ablations.render_delay_bounded
       (Experiments.Ablations.delay_bounded ctx ~circuits Power.Scenario.B));
  nonempty "ablations-input"
    (Experiments.Ablations.render_input_reordering
       (Experiments.Ablations.input_reordering ctx ~circuits Power.Scenario.B));
  nonempty "glitch"
    (Experiments.Glitch.render
       (Experiments.Glitch.run ctx ~sim_horizon:1e-3 ~circuits Power.Scenario.B))

let () =
  Alcotest.run "experiments"
    [
      ( "E1",
        [
          Alcotest.test_case "structure" `Quick test_table1_structure;
          Alcotest.test_case "render" `Quick test_table1_render_mentions_paper;
        ] );
      ("E2", [ Alcotest.test_case "counts consistent" `Quick test_table2_counts_consistent ]);
      ("E3", [ Alcotest.test_case "steps" `Quick test_figure5_steps ]);
      ( "E4",
        [
          Alcotest.test_case "row fields" `Quick test_table3_row_fields;
          Alcotest.test_case "averages" `Quick test_table3_averages;
          Alcotest.test_case "scenarios differ" `Quick test_table3_scenarios_differ;
        ] );
      ("E5", [ Alcotest.test_case "profile shape" `Slow test_adder_profile_shape ]);
      ( "E6-E9",
        [
          Alcotest.test_case "delay-bounded" `Quick test_delay_bounded_rows;
          Alcotest.test_case "input reordering" `Quick test_input_reordering_rows;
          Alcotest.test_case "model accuracy" `Slow test_model_accuracy;
          Alcotest.test_case "glitch" `Slow test_glitch_rows;
        ] );
      ( "E4-E7",
        [ Alcotest.test_case "model-side pins" `Quick test_reproduction_pins ] );
      ( "E4, E8",
        [
          Alcotest.test_case "simulator-side pins on a subset" `Quick
            test_simulator_pins;
        ] );
      ( "rendering",
        [ Alcotest.test_case "all render" `Quick test_all_renders_nonempty ] );
    ]
