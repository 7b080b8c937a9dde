(* Tests for the core optimizer (Fig. 3): improvement, greedy global
   optimality under the monotonic model, delay-bounded and
   input-reordering-only variants. *)

module O = Reorder.Optimizer
module C = Netlist.Circuit
module B = Netlist.Builder
module S = Stoch.Signal_stats

let power_table () = Power.Model.table Cell.Process.default
let delay_table () = Delay.Elmore.table Cell.Process.default

let scenario_inputs seed scenario circuit =
  Power.Scenario.input_stats ~rng:(Stoch.Rng.create seed) scenario circuit

(* Asymmetric activities make reordering worthwhile. *)
let asymmetric circuit =
  let nets = List.length (C.primary_inputs circuit) in
  let table = Hashtbl.create 16 in
  List.iteri
    (fun i net ->
      let density = 1e3 *. (10. ** (3. *. float_of_int i /. float_of_int nets)) in
      Hashtbl.add table net (S.make ~prob:0.5 ~density))
    (C.primary_inputs circuit);
  fun net -> Hashtbl.find table net

let test_optimize_improves () =
  let pt = power_table () and dt = delay_table () in
  List.iter
    (fun (name, circuit) ->
      let inputs = asymmetric circuit in
      let r = O.optimize pt ~delay:dt circuit ~inputs in
      Alcotest.(check bool)
        (name ^ ": never worse than the input netlist")
        true
        (r.O.power_after <= r.O.power_before +. 1e-18))
    (Circuits.Suite.small ())

let test_best_leq_worst () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let inputs = scenario_inputs 5 Power.Scenario.A circuit in
  let best, worst = O.best_and_worst pt ~delay:dt circuit ~inputs in
  Alcotest.(check bool) "best < worst" true
    (best.O.power_after < worst.O.power_after);
  Alcotest.(check bool) "positive reduction" true
    (O.reduction_percent ~best:best.O.power_after ~worst:worst.O.power_after
     > 0.)

let test_optimize_idempotent () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "mux8" in
  let inputs = scenario_inputs 11 Power.Scenario.A circuit in
  let r1 = O.optimize pt ~delay:dt circuit ~inputs in
  let r2 = O.optimize pt ~delay:dt r1.O.circuit ~inputs in
  Alcotest.(check int) "no further change" 0 r2.O.gates_changed;
  Alcotest.(check (float 1e-18)) "same power" r1.O.power_after r2.O.power_after

(* Under the model, the greedy one-pass result is globally optimal
   (§4.2): verify by brute force over every configuration combination of
   a small circuit. *)
let test_greedy_is_globally_optimal () =
  let pt = power_table () and dt = delay_table () in
  let b = B.create ~name:"tiny" in
  let x0 = B.input b "x0" in
  let x1 = B.input b "x1" in
  let x2 = B.input b "x2" in
  let y = B.gate b "oai21" [ x0; x1; x2 ] in
  let z = B.gate b "nand3" [ y; x1; x0 ] in
  B.output b z;
  let circuit = B.finish b in
  let inputs = asymmetric circuit in
  let r = O.optimize pt ~delay:dt circuit ~inputs in
  let analysis = Power.Analysis.run pt circuit ~inputs in
  let brute = ref infinity in
  let count0 = Cell.Gate.config_count (C.gate_at circuit 0).C.cell in
  let count1 = Cell.Gate.config_count (C.gate_at circuit 1).C.cell in
  for c0 = 0 to count0 - 1 do
    for c1 = 0 to count1 - 1 do
      let candidate = C.with_configs circuit [| c0; c1 |] in
      brute := Float.min !brute (Power.Estimate.total pt candidate analysis)
    done
  done;
  Alcotest.(check (float 1e-20)) "greedy = exhaustive minimum" !brute
    r.O.power_after

let test_single_gate_argmin () =
  let pt = power_table () and dt = delay_table () in
  let b = B.create ~name:"one" in
  let x0 = B.input b "a" in
  let x1 = B.input b "b" in
  let x2 = B.input b "c" in
  let x3 = B.input b "d" in
  let y = B.gate b "nand4" [ x0; x1; x2; x3 ] in
  B.output b y;
  let circuit = B.finish b in
  let inputs = asymmetric circuit in
  let r = O.optimize pt ~delay:dt circuit ~inputs in
  let analysis = Power.Analysis.run pt circuit ~inputs in
  let powers =
    List.init 24 (fun config ->
        (Power.Estimate.gate pt circuit analysis 0 ~config).Power.Model.total)
  in
  let min_power = List.fold_left Float.min infinity powers in
  Alcotest.(check (float 1e-22)) "argmin over 24 configurations" min_power
    (List.nth powers r.O.configs.(0))

let test_delay_bounded_respects_circuit_delay () =
  let pt = power_table () and dt = delay_table () in
  List.iter
    (fun name ->
      let circuit = Circuits.Suite.find name in
      let inputs = scenario_inputs 3 Power.Scenario.A circuit in
      let r =
        O.optimize pt ~delay:dt ~objective:O.Min_power_delay_bounded circuit
          ~inputs
      in
      let sta c = Delay.Sta.critical_delay (Delay.Sta.run dt c) in
      Alcotest.(check bool)
        (name ^ ": critical path not degraded")
        true
        (sta r.O.circuit <= sta circuit +. 1e-15);
      Alcotest.(check bool)
        (name ^ ": power not degraded")
        true
        (r.O.power_after <= r.O.power_before +. 1e-18))
    [ "rca4"; "mux8"; "alu1"; "c17"; "rca16"; "csel16"; "rnd_c" ]

let test_delay_bounded_weaker_than_free () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let inputs = scenario_inputs 17 Power.Scenario.A circuit in
  let free = O.optimize pt ~delay:dt circuit ~inputs in
  let bounded =
    O.optimize pt ~delay:dt ~objective:O.Min_power_delay_bounded circuit ~inputs
  in
  Alcotest.(check bool) "bounded cannot beat free" true
    (bounded.O.power_after >= free.O.power_after -. 1e-18)

let test_input_reordering_only_subset () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "alu1" in
  let inputs = scenario_inputs 29 Power.Scenario.A circuit in
  let restricted = O.optimize pt ~delay:dt ~input_reordering_only:true circuit ~inputs in
  let free = O.optimize pt ~delay:dt circuit ~inputs in
  (* Chosen configurations keep the reference layout shape. *)
  Array.iteri
    (fun g config ->
      let cell = (C.gate_at circuit g).C.cell in
      let configs = Cell.Config.all cell in
      Alcotest.(check bool)
        (Printf.sprintf "gate %d same shape" g)
        true
        (Cell.Config.same_shape (List.nth configs config)
           (Cell.Config.reference cell)))
    restricted.O.configs;
  Alcotest.(check bool) "restricted cannot beat free" true
    (restricted.O.power_after >= free.O.power_after -. 1e-18)

let test_min_delay_objective () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let inputs = scenario_inputs 41 Power.Scenario.B circuit in
  let r = O.optimize pt ~delay:dt ~objective:O.Min_delay circuit ~inputs in
  Array.iteri
    (fun g config ->
      let cell = (C.gate_at circuit g).C.cell in
      let load = Netlist.Load.output (Power.Model.process pt) circuit g in
      let chosen = Delay.Elmore.worst_delay dt cell ~config ~load in
      List.iter
        (fun other ->
          Alcotest.(check bool)
            (Printf.sprintf "gate %d fastest" g)
            true
            (chosen
             <= Delay.Elmore.worst_delay dt cell ~config:other ~load +. 1e-18))
        (List.init (Cell.Gate.config_count cell) Fun.id))
    r.O.configs

let test_explored_counts () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "c17" in
  let inputs = scenario_inputs 1 Power.Scenario.B circuit in
  let r = O.optimize pt ~delay:dt circuit ~inputs in
  (* c17 = 6 nand2 gates, 2 configurations each. *)
  Alcotest.(check int) "12 configurations explored" 12
    r.O.configurations_explored

let test_reduction_percent () =
  Alcotest.(check (float 1e-9)) "25%" 25.
    (O.reduction_percent ~best:7.5 ~worst:10.);
  Alcotest.(check (float 1e-9)) "degenerate" 0.
    (O.reduction_percent ~best:0. ~worst:0.);
  (* worst = 0 must not divide by zero, whatever best is. *)
  Alcotest.(check (float 1e-9)) "worst = 0, best > 0" 0.
    (O.reduction_percent ~best:5. ~worst:0.);
  Alcotest.(check (float 1e-9)) "worst < 0" 0.
    (O.reduction_percent ~best:(-1.) ~worst:(-2.));
  (* best > worst (mismatched scenarios) clamps to 0, not negative. *)
  Alcotest.(check (float 1e-9)) "best > worst clamps to 0" 0.
    (O.reduction_percent ~best:12. ~worst:10.);
  (* best < 0 with worst > 0 clamps to 100, not beyond. *)
  Alcotest.(check (float 1e-9)) "negative best clamps to 100" 100.
    (O.reduction_percent ~best:(-5.) ~worst:10.);
  (* pp_report surfaces the percentage so CLI users need not compute it. *)
  let b = B.create ~name:"pp" in
  let a = B.input b "a" in
  let c = B.input b "c" in
  B.output b (B.nand2 b a c);
  let circuit = B.finish b in
  let r =
    {
      O.circuit;
      configs = [| 0 |];
      power_before = 10.;
      power_after = 7.5;
      gates_changed = 0;
      configurations_explored = 2;
    }
  in
  let rendered = Format.asprintf "%a" O.pp_report r in
  let contains needle haystack =
    let ln = String.length needle in
    let rec at i =
      i + ln <= String.length haystack
      && (String.sub haystack i ln = needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "pp_report prints the reduction" true
    (contains "25.0% reduction" rendered)

let test_rewritten_circuit_same_function () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let inputs = scenario_inputs 2 Power.Scenario.A circuit in
  let r = O.optimize pt ~delay:dt circuit ~inputs in
  (* Reordering is function-preserving: same outputs on random vectors. *)
  let rng = Stoch.Rng.create 123 in
  for _ = 1 to 50 do
    let vector = Hashtbl.create 16 in
    List.iter
      (fun net -> Hashtbl.add vector net (Stoch.Rng.bool rng))
      (C.primary_inputs circuit);
    let env net = Hashtbl.find vector net in
    Alcotest.(check (list bool)) "same outputs"
      (Netlist.Eval.outputs circuit ~inputs:env)
      (Netlist.Eval.outputs r.O.circuit ~inputs:env)
  done

(* --- memo quantization --- *)

module M = Reorder.Memo

let test_memo_quantization () =
  (* Probability grid: round-trip stability and boundary behaviour. *)
  for b = 0 to M.prob_buckets do
    Alcotest.(check int)
      (Printf.sprintf "prob bucket %d round-trips" b)
      b
      (M.quantize_prob (M.representative_prob b))
  done;
  Alcotest.(check int) "prob clamped below" 0 (M.quantize_prob (-0.5));
  Alcotest.(check int) "prob clamped above" M.prob_buckets
    (M.quantize_prob 1.5);
  let w = 1. /. float_of_int M.prob_buckets in
  (* Values just either side of a bucket midpoint land in adjacent
     buckets: the grid actually discriminates at its stated width. *)
  Alcotest.(check bool) "midpoint splits buckets" true
    (M.quantize_prob ((0.5 *. w) -. 1e-9) = 0
    && M.quantize_prob ((0.5 *. w) +. 1e-9) = 1);
  (* Log grid: zero bucket and round-trips. *)
  Alcotest.(check bool) "zero density gets the zero bucket" true
    (M.quantize_log 0. = None && M.quantize_log (-1.) = None);
  Alcotest.(check (float 1e-12)) "zero bucket representative" 0.
    (M.representative_log None);
  List.iter
    (fun v ->
      let b = M.quantize_log v in
      Alcotest.(check bool)
        (Printf.sprintf "log bucket of %g round-trips" v)
        true
        (M.quantize_log (M.representative_log b) = b))
    [ 1e-3; 0.02; 1.; 17.; 1e4; 3.3e6 ];
  (* A decade spans exactly log_buckets_per_decade buckets. *)
  match (M.quantize_log 10., M.quantize_log 100.) with
  | Some a, Some b ->
      Alcotest.(check int) "buckets per decade" M.log_buckets_per_decade (b - a)
  | _ -> Alcotest.fail "positive values must get a bucket"

let test_memo_keys_discriminate () =
  let cell = Cell.Gate.of_name "nand2" in
  let groups = [| 0; 1 |] in
  let stats p d = [| S.make ~prob:p ~density:d; S.make ~prob:p ~density:d |] in
  let key ?(maximize = false) ?(input_only = false) ?(load = 20e-15) st =
    M.key ~cell ~maximize ~input_only ~groups ~input_stats:st ~load
  in
  let base = key (stats 0.5 1e5) in
  Alcotest.(check string) "same quantized inputs, same key" base
    (key (stats 0.5001 1.0001e5));
  Alcotest.(check bool) "direction in the key" true
    (base <> key ~maximize:true (stats 0.5 1e5));
  Alcotest.(check bool) "restriction in the key" true
    (base <> key ~input_only:true (stats 0.5 1e5));
  Alcotest.(check bool) "probability in the key" true
    (base <> key (stats 0.9 1e5));
  Alcotest.(check bool) "density in the key" true
    (base <> key (stats 0.5 1e8));
  Alcotest.(check bool) "load in the key" true
    (base <> key ~load:2e-12 (stats 0.5 1e5));
  (* Hit/miss accounting through the table itself. *)
  let t = M.create () in
  Alcotest.(check int) "fresh memo empty" 0 (M.size t);
  Alcotest.(check bool) "first lookup misses" true (M.lookup t base = None);
  M.store t base 3;
  M.store t base 7 (* keep-first *);
  Alcotest.(check bool) "hit returns the first stored value" true
    (M.lookup t base = Some 3);
  Alcotest.(check int) "one entry" 1 (M.size t)

(* --- parallel determinism --- *)

let test_parallel_matches_sequential () =
  let pt = power_table () and dt = delay_table () in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun name ->
      let circuit = Circuits.Suite.find name in
      let inputs = scenario_inputs 11 Power.Scenario.A circuit in
      List.iter
        (fun (objective, input_reordering_only) ->
          let seq =
            O.optimize pt ~delay:dt ~objective ~input_reordering_only circuit
              ~inputs
          in
          let par =
            O.optimize pt ~delay:dt ~objective ~input_reordering_only ~pool
              circuit ~inputs
          in
          Alcotest.(check (float 0.))
            (name ^ " power_after bit-identical")
            seq.O.power_after par.O.power_after;
          Alcotest.(check (array int))
            (name ^ " configs identical")
            seq.O.configs par.O.configs;
          Alcotest.(check int)
            (name ^ " explored identical")
            seq.O.configurations_explored par.O.configurations_explored)
        (List.concat_map
           (fun objective -> [ (objective, false); (objective, true) ])
           [ O.Min_power; O.Max_power; O.Min_power_delay_bounded; O.Min_delay ]))
    [ "c17"; "rca4"; "tree16"; "mux8"; "alu1" ]

let test_parallel_memo_deterministic_and_hits () =
  let pt = power_table () and dt = delay_table () in
  (* Uniform inputs maximize structural sharing. *)
  let inputs _ = S.make ~prob:0.5 ~density:1e5 in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  (* An adder repeats the same full-adder cells with near-identical
     propagated statistics along the carry chain: the memo must carry
     most of the gates (a small circuit like tree16 is capped lower —
     every distinct level is one compulsory miss). *)
  let hits = Obs.counter "optimizer.memo_hits" in
  let rca = Circuits.Suite.find "rca16" in
  let h0 = Obs.value hits in
  ignore (O.optimize pt ~delay:dt ~memo:(M.create ()) rca ~inputs);
  let gates = C.gate_count rca in
  let rca_hits = Obs.value hits - h0 in
  Alcotest.(check bool)
    (Printf.sprintf "memo hit rate %d/%d > 80%%" rca_hits gates)
    true
    (float_of_int rca_hits > 0.8 *. float_of_int gates);
  let circuit = Circuits.Suite.find "tree16" in
  let seq = O.optimize pt ~delay:dt ~memo:(M.create ()) circuit ~inputs in
  let par = O.optimize pt ~delay:dt ~memo:(M.create ()) ~pool circuit ~inputs in
  Alcotest.(check (float 0.)) "memoized parallel power bit-identical"
    seq.O.power_after par.O.power_after;
  Alcotest.(check (array int)) "memoized parallel configs identical"
    seq.O.configs par.O.configs;
  (* And memoization must stay function-preserving like any reordering. *)
  let rng = Stoch.Rng.create 7 in
  for _ = 1 to 20 do
    let vector = Hashtbl.create 16 in
    List.iter
      (fun net -> Hashtbl.add vector net (Stoch.Rng.bool rng))
      (C.primary_inputs circuit);
    let env net = Hashtbl.find vector net in
    Alcotest.(check (list bool)) "same outputs"
      (Netlist.Eval.outputs circuit ~inputs:env)
      (Netlist.Eval.outputs seq.O.circuit ~inputs:env)
  done

let prop_scenarios_and_circuits_improve =
  QCheck.Test.make ~name:"best <= reference <= worst on random scenarios"
    ~count:20
    QCheck.(pair (int_range 0 10000) QCheck.(int_range 0 9))
    (fun (seed, pick) ->
      let pt = power_table () and dt = delay_table () in
      let name = List.nth (Circuits.Suite.names ()) pick in
      let circuit = Circuits.Suite.find name in
      let inputs = scenario_inputs seed Power.Scenario.A circuit in
      let best, worst = O.best_and_worst pt ~delay:dt circuit ~inputs in
      best.O.power_after <= best.O.power_before +. 1e-18
      && worst.O.power_after >= best.O.power_after -. 1e-18)

let prop_reduction_percent_bounded =
  QCheck.Test.make ~name:"reduction_percent in [0,100] for 0 < best <= worst"
    ~count:500
    QCheck.(pair (float_range 1e-15 1e3) (float_range 1e-15 1e3))
    (fun (a, b) ->
      let best = Float.min a b and worst = Float.max a b in
      let r = O.reduction_percent ~best ~worst in
      r >= 0. && r <= 100.)

let () =
  Alcotest.run "reorder"
    [
      ( "optimizer",
        [
          Alcotest.test_case "improves all small benchmarks" `Slow
            test_optimize_improves;
          Alcotest.test_case "best <= worst" `Quick test_best_leq_worst;
          Alcotest.test_case "idempotent" `Quick test_optimize_idempotent;
          Alcotest.test_case "greedy = brute force (monotonicity)" `Quick
            test_greedy_is_globally_optimal;
          Alcotest.test_case "single gate argmin" `Quick test_single_gate_argmin;
          Alcotest.test_case "explored counts" `Quick test_explored_counts;
          Alcotest.test_case "reduction percent" `Quick test_reduction_percent;
          Alcotest.test_case "function preserved" `Quick
            test_rewritten_circuit_same_function;
          Property.to_alcotest prop_scenarios_and_circuits_improve;
          Property.to_alcotest prop_reduction_percent_bounded;
        ] );
      ( "objectives",
        [
          Alcotest.test_case "delay-bounded respects circuit delay" `Quick
            test_delay_bounded_respects_circuit_delay;
          Alcotest.test_case "delay-bounded weaker than free" `Quick
            test_delay_bounded_weaker_than_free;
          Alcotest.test_case "input-reordering-only subset" `Quick
            test_input_reordering_only_subset;
          Alcotest.test_case "min-delay objective" `Quick test_min_delay_objective;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "memo quantization boundaries" `Quick
            test_memo_quantization;
          Alcotest.test_case "memo keys discriminate" `Quick
            test_memo_keys_discriminate;
          Alcotest.test_case "pool run bit-identical to sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "memoized runs deterministic, trees hit" `Quick
            test_parallel_memo_deterministic_and_hits;
        ] );
    ]
