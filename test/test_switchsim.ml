(* Tests for the switch-level simulator: functional agreement with
   zero-delay evaluation, hand-computed energy, statistical agreement
   with the analytic model, input validation. *)

module Sim = Switchsim.Sim
module C = Netlist.Circuit
module B = Netlist.Builder
module W = Stoch.Waveform
module S = Stoch.Signal_stats

let proc = Cell.Process.default

let inverter_circuit () =
  let b = B.create ~name:"inv1" in
  let x = B.input b "x" in
  let y = B.inv b ~name:"y" x in
  B.output b y;
  B.finish b

let nand_inv () =
  let b = B.create ~name:"nand_inv" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let y = B.nand2 b ~name:"y" a bb in
  let z = B.inv b ~name:"z" y in
  B.output b z;
  B.finish b

let test_inverter_energy_hand_computed () =
  (* Input square wave 0,1,0,1,0 with period 1s: output rises twice.
     Output cap = 2 junctions + wire + 20 fF external load. *)
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.of_bits ~bits:[| false; true; false; true; false |] ~period:1.0 in
  let r = Sim.run sim ~inputs:(fun _ -> w) () in
  let c_out = (2. *. 6e-15) +. 15e-15 +. 20e-15 in
  Alcotest.(check (float 1e-27)) "2 charges x C Vdd^2"
    (2. *. c_out *. 25.) r.Sim.energy;
  Alcotest.(check int) "4 input events" 4 r.Sim.events;
  Alcotest.(check (float 1e-15)) "power = E / horizon" (r.Sim.energy /. 5.)
    r.Sim.power

let test_inverter_output_toggles () =
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.of_bits ~bits:[| false; true; false; true |] ~period:1.0 in
  let r = Sim.run sim ~inputs:(fun _ -> w) () in
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.(check int) "output toggles with input" 3 r.Sim.net_toggles.(y);
  (* Output is high exactly when input is low: 2 of 4 seconds. *)
  Alcotest.(check (float 1e-9)) "high time" 2.0 r.Sim.net_high_time.(y)

let test_nand_masked_input () =
  (* With b=0, the nand output stays 1 regardless of a: no output energy
     beyond internal-node charging. *)
  let c = nand_inv () in
  let sim = Sim.build proc c in
  let wa = W.of_bits ~bits:[| false; true; false; true |] ~period:1.0 in
  let wb = W.constant false ~horizon:4.0 in
  let inputs net = if C.net_name c net = "a" then wa else wb in
  let r = Sim.run sim ~inputs () in
  let y = Option.get (C.net_of_name c "y") in
  let z = Option.get (C.net_of_name c "z") in
  Alcotest.(check int) "y silent" 0 r.Sim.net_toggles.(y);
  Alcotest.(check int) "z silent" 0 r.Sim.net_toggles.(z);
  (* The internal pull-down node of the nand still charges and
     discharges as a toggles — the paper's useless internal activity. *)
  Alcotest.(check bool) "internal energy flows" true
    (r.Sim.per_gate_energy.(0) > 0.)

let test_internal_energy_depends_on_order () =
  (* Same masked stimulus, but the nand2's two configurations place the
     toggling transistor either next to the output (internal node
     between it and ground: charges when a=1...) or next to ground. The
     internal node's switching differs between the two orders. *)
  let c = nand_inv () in
  let wa = W.of_bits ~bits:[| false; true; false; true; false; true |] ~period:1.0 in
  let wb = W.constant false ~horizon:6.0 in
  let energy config =
    let circuit = C.with_configs c [| config; 0 |] in
    let sim = Sim.build proc circuit in
    let inputs net = if C.net_name circuit net = "a" then wa else wb in
    (Sim.run sim ~inputs ()).Sim.per_gate_energy.(0)
  in
  let e0 = energy 0 and e1 = energy 1 in
  Alcotest.(check bool) "orders dissipate differently" true
    (Float.abs (e0 -. e1) > 1e-18 *. Float.max e0 e1)

let test_agrees_with_eval_on_static_vectors () =
  (* Constant waveforms: settled nets must equal functional evaluation,
     for every benchmark in the small suite and several vectors. *)
  let rng = Stoch.Rng.create 7 in
  List.iter
    (fun (name, circuit) ->
      let sim = Sim.build proc circuit in
      for _ = 1 to 3 do
        let vector = Hashtbl.create 16 in
        List.iter
          (fun net -> Hashtbl.add vector net (Stoch.Rng.bool rng))
          (C.primary_inputs circuit);
        let inputs net = W.constant (Hashtbl.find vector net) ~horizon:1.0 in
        let r = Sim.run sim ~inputs () in
        let expected =
          Netlist.Eval.nets circuit ~inputs:(fun net -> Hashtbl.find vector net)
        in
        List.iter
          (fun net ->
            let simulated = r.Sim.net_high_time.(net) > 0.5 in
            Alcotest.(check bool)
              (Printf.sprintf "%s net %s" name (C.net_name circuit net))
              expected.(net) simulated)
          (C.primary_outputs circuit)
      done)
    (Circuits.Suite.small ())

let test_agrees_with_eval_after_transitions () =
  (* Drive c17 with clocked patterns; at the end of each period the
     settled outputs must match Eval on the current vector. Checked via
     toggle counts: output toggles iff consecutive vectors differ. *)
  let circuit = Circuits.Suite.find "c17" in
  let sim = Sim.build proc circuit in
  let rng = Stoch.Rng.create 99 in
  let n_steps = 64 in
  let pis = Array.of_list (C.primary_inputs circuit) in
  let patterns =
    Array.init (Array.length pis) (fun _ ->
        Array.init n_steps (fun _ -> Stoch.Rng.bool rng))
  in
  let inputs net =
    let idx = ref 0 in
    Array.iteri (fun i pi -> if pi = net then idx := i) pis;
    W.of_bits ~bits:patterns.(!idx) ~period:1.0
  in
  let r = Sim.run sim ~inputs () in
  let expected_toggles out_pos =
    let eval step =
      let env net =
        let idx = ref 0 in
        Array.iteri (fun i pi -> if pi = net then idx := i) pis;
        patterns.(!idx).(step)
      in
      List.nth (Netlist.Eval.outputs circuit ~inputs:env) out_pos
    in
    let count = ref 0 in
    for step = 1 to n_steps - 1 do
      if eval step <> eval (step - 1) then incr count
    done;
    !count
  in
  List.iteri
    (fun pos net ->
      Alcotest.(check int)
        (Printf.sprintf "output %d toggle count" pos)
        (expected_toggles pos) r.Sim.net_toggles.(net))
    (C.primary_outputs circuit)

let test_measured_stats_match_input () =
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let rng = Stoch.Rng.create 3 in
  let stats _ = S.make ~prob:0.3 ~density:2.0 in
  let r = Sim.run_stats sim ~rng ~stats ~horizon:20_000. () in
  let x = Option.get (C.net_of_name c "x") in
  let m = Sim.measured_stats r x in
  Alcotest.(check bool) "P near 0.3" true (Float.abs (S.prob m -. 0.3) < 0.03);
  Alcotest.(check bool) "D near 2.0" true (Float.abs (S.density m -. 2.0) < 0.1)

let test_simulated_density_matches_analysis () =
  (* On a tree-structured circuit (no reconvergent fan-out) the Najm
     propagation is exact, so the simulator must agree within sampling
     error. *)
  let circuit = Circuits.Suite.find "tree16" in
  let table = Power.Model.table proc in
  let stats _ = S.make ~prob:0.5 ~density:1.0 in
  let analysis = Power.Analysis.run table circuit ~inputs:stats in
  let sim = Sim.build proc circuit in
  let rng = Stoch.Rng.create 21 in
  let r = Sim.run_stats sim ~rng ~stats ~horizon:4000. () in
  Array.iteri
    (fun g (gate : C.gate) ->
      ignore g;
      let net = gate.C.output in
      let analytic = S.density (Power.Analysis.stats analysis net) in
      let simulated = S.density (Sim.measured_stats r net) in
      if analytic > 0.1 then
        Alcotest.(check bool)
          (Printf.sprintf "net %s: %.3f vs %.3f" (C.net_name circuit net)
             analytic simulated)
          true
          (Float.abs (simulated -. analytic) /. analytic < 0.2))
    (C.gates circuit)

let test_reconvergence_bounded_gap () =
  (* Through reconvergent XOR logic (rca4) the independence assumption
     biases the analytic densities; the gap stays within a small factor
     — the paper's M-vs-S discussion depends on this staying bounded. *)
  let circuit = Circuits.Suite.find "rca4" in
  let table = Power.Model.table proc in
  let stats _ = S.make ~prob:0.5 ~density:1.0 in
  let analysis = Power.Analysis.run table circuit ~inputs:stats in
  let sim = Sim.build proc circuit in
  let rng = Stoch.Rng.create 21 in
  let r = Sim.run_stats sim ~rng ~stats ~horizon:4000. () in
  List.iter
    (fun net ->
      let analytic = S.density (Power.Analysis.stats analysis net) in
      let simulated = S.density (Sim.measured_stats r net) in
      if analytic > 0.5 then
        Alcotest.(check bool)
          (Printf.sprintf "net %s: %.3f vs %.3f" (C.net_name circuit net)
             analytic simulated)
          true
          (simulated /. analytic < 2.5 && analytic /. simulated < 2.5))
    (C.primary_outputs circuit)

let test_per_gate_energy_sums () =
  let circuit = Circuits.Suite.find "par4" in
  let sim = Sim.build proc circuit in
  let rng = Stoch.Rng.create 5 in
  let stats _ = S.make ~prob:0.5 ~density:1.0 in
  let r = Sim.run_stats sim ~rng ~stats ~horizon:500. () in
  let sum = Array.fold_left ( +. ) 0. r.Sim.per_gate_energy in
  Alcotest.(check (float 1e-20)) "per-gate sums to total" r.Sim.energy sum

let test_warmup_reduces_window () =
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.of_bits ~bits:[| false; true; false; true; false |] ~period:1.0 in
  let r = Sim.run sim ~warmup:2.5 ~inputs:(fun _ -> w) () in
  Alcotest.(check (float 1e-9)) "window" 2.5 r.Sim.horizon;
  (* Only the final rise (input falls at t=4) is inside the window:
     wait — input rises at 1,3; falls at 2,4... bits 0,1,0,1,0 toggle at
     t=1,2,3,4; output rises at t=2 and t=4; with warmup 2.5 only t=4
     counts. *)
  let c_out = (2. *. 6e-15) +. 15e-15 +. 20e-15 in
  Alcotest.(check (float 1e-27)) "one charge" (c_out *. 25.) r.Sim.energy

(* A primary output that is also read inside the circuit: the case
   where summing the fan-out pins and the external load in another order
   rounds differently (27 + 20 + 20 fF here). *)
let po_with_fanout () =
  let b = B.create ~name:"po_fanout" in
  let x = B.input b "x" in
  let y = B.inv b ~name:"y" x in
  let z = B.inv b ~name:"z" y in
  B.output b y;
  B.output b z;
  B.finish b

let test_output_node_is_model_capacitance () =
  let c = po_with_fanout () in
  let y = Option.get (C.net_of_name c "y") in
  let g = match C.driver c y with C.Driven_by g -> g | C.Primary_input -> -1 in
  let model =
    Power.Model.gate_power (Power.Model.table proc) (C.gate_at c g).C.cell
      ~config:0
      ~input_stats:[| S.make ~prob:0.5 ~density:1. |]
      ~load:(Netlist.Load.output proc c g) ()
  in
  let cap = (List.hd model.Power.Model.nodes).Power.Model.capacitance in
  let deposits = ref [] in
  let observer =
    {
      Sim.on_net = (fun ~time:_ ~net:_ ~before:_ ~after:_ ~in_window:_ -> ());
      on_internal = None;
      on_energy =
        Some
          (fun ~time:_ ~gate ~node ~energy ->
            if gate = g && node = 0 then deposits := energy :: !deposits);
    }
  in
  (* x falls at t = 1 and t = 3: y rises twice from a known 0. *)
  let w = W.of_bits ~bits:[| true; false; true; false |] ~period:1.0 in
  ignore (Sim.run (Sim.build proc c) ~observer ~inputs:(fun _ -> w) ());
  let vdd = proc.Cell.Process.vdd in
  Alcotest.(check int) "two rises" 2 (List.length !deposits);
  List.iter
    (Alcotest.(check (float 0.)) "C Vdd^2 at the model's C"
       (1. *. cap *. vdd *. vdd))
    !deposits

let test_per_net_energy_conservation () =
  let circuit = Circuits.Suite.find "par4" in
  let sim = Sim.build proc circuit in
  let rng = Stoch.Rng.create 5 in
  let stats _ = S.make ~prob:0.5 ~density:1.0 in
  let r = Sim.run_stats sim ~rng ~stats ~horizon:500. () in
  (* Exact, not approximate: energy is defined as this very fold. *)
  let sum = Array.fold_left ( +. ) 0. r.Sim.per_net_energy in
  Alcotest.(check (float 0.)) "per-net fold IS the total" r.Sim.energy sum;
  (* Per-net energy is the driving gate's energy; input nets carry 0. *)
  Array.iter
    (fun (gate : C.gate) ->
      match C.driver circuit gate.C.output with
      | C.Driven_by g ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "net %s = gate %d" (C.net_name circuit gate.C.output) g)
            r.Sim.per_gate_energy.(g)
            r.Sim.per_net_energy.(gate.C.output)
      | C.Primary_input -> assert false)
    (C.gates circuit);
  List.iter
    (fun net ->
      Alcotest.(check (float 0.)) "input nets carry no energy" 0.
        r.Sim.per_net_energy.(net))
    (C.primary_inputs circuit)

let null_observer =
  {
    Sim.on_net = (fun ~time:_ ~net:_ ~before:_ ~after:_ ~in_window:_ -> ());
    on_internal = None;
    on_energy = None;
  }

let test_observer_warmup_flagging () =
  (* Events during warm-up are delivered but flagged out-of-window. *)
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.of_bits ~bits:[| false; true; false; true; false |] ~period:1.0 in
  let events = ref [] in
  let observer =
    {
      null_observer with
      Sim.on_net =
        (fun ~time ~net:_ ~before:_ ~after:_ ~in_window ->
          events := (time, in_window) :: !events);
    }
  in
  let r = Sim.run sim ~warmup:2.5 ~observer ~inputs:(fun _ -> w) () in
  ignore r;
  let events = List.rev !events in
  Alcotest.(check bool) "events before the window are seen" true
    (List.exists (fun (t, _) -> t < 2.5) events);
  Alcotest.(check bool) "events inside the window are seen" true
    (List.exists (fun (t, _) -> t >= 2.5) events);
  List.iter
    (fun (t, in_window) ->
      Alcotest.(check bool)
        (Printf.sprintf "event at %g flagged correctly" t)
        (t >= 2.5) in_window)
    events;
  (* Times arrive in non-decreasing order. *)
  ignore
    (List.fold_left
       (fun prev (t, _) ->
         Alcotest.(check bool) "monotone times" true (t >= prev);
         t)
       neg_infinity events)

let test_observer_energy_matches_books () =
  (* Every deposit reported through on_energy carries exactly the joules
     the accumulator books — including X→1 half-energy charges of an
     internal node first touched inside the window. *)
  let base = nand_inv () in
  let wa = W.of_bits ~bits:[| false; true; false; true |] ~period:1.0 in
  let wb = W.constant false ~horizon:4.0 in
  let half_seen = ref false in
  List.iter
    (fun config ->
      let circuit = C.with_configs base [| config; 0 |] in
      let sim = Sim.build proc circuit in
      let inputs net = if C.net_name circuit net = "a" then wa else wb in
      let booked = Array.make (C.gate_count circuit) 0. in
      let observer =
        {
          null_observer with
          Sim.on_energy =
            Some
              (fun ~time:_ ~gate ~node ~energy ->
                booked.(gate) <- booked.(gate) +. energy;
                (* b = 0 masks the output: any deposit on the nand's
                   internal node rises from X, at half energy. *)
                if gate = 0 && node = 1 then begin
                  let g = C.gate_at circuit 0 in
                  let network =
                    Cell.Config.network
                      (List.nth (Cell.Config.all g.C.cell) g.C.config)
                  in
                  let c_int =
                    Cell.Process.node_capacitance proc network
                      (Sp.Network.Internal 0)
                  in
                  let vdd = proc.Cell.Process.vdd in
                  Alcotest.(check (float 1e-30)) "half charge from X"
                    (0.5 *. c_int *. vdd *. vdd)
                    energy;
                  half_seen := true
                end);
        }
      in
      let r = Sim.run sim ~observer ~inputs () in
      (* Chronological per-gate accumulation is the accumulator's own
         order, so the sums agree bit-for-bit. *)
      Array.iteri
        (fun g e ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "config %d gate %d books what it reports" config g)
            e booked.(g))
        r.Sim.per_gate_energy)
    [ 0; 1 ];
  Alcotest.(check bool) "an X→1 half-energy deposit was observed" true
    !half_seen

let test_no_observer_no_probe_events () =
  let circuit = Circuits.Suite.find "c17" in
  let sim = Sim.build proc circuit in
  let rng () = Stoch.Rng.create 11 in
  let stats _ = S.make ~prob:0.5 ~density:1.0 in
  Obs.reset ();
  ignore (Sim.run_stats sim ~rng:(rng ()) ~stats ~horizon:100. ());
  Alcotest.(check int) "no observer, no probe events" 0
    (Obs.value (Obs.counter "switchsim.probe_events"));
  ignore
    (Sim.run_stats sim ~rng:(rng ()) ~stats ~horizon:100.
       ~observer:null_observer ());
  Alcotest.(check bool) "observer counts probe events" true
    (Obs.value (Obs.counter "switchsim.probe_events") > 0)

let test_validation () =
  let c = nand_inv () in
  let sim = Sim.build proc c in
  let wa = W.constant true ~horizon:1.0 in
  let wb = W.constant true ~horizon:2.0 in
  Alcotest.check_raises "horizon mismatch"
    (Invalid_argument "Switchsim.run: waveform horizons differ") (fun () ->
      ignore
        (Sim.run sim
           ~inputs:(fun net -> if C.net_name c net = "a" then wa else wb)
           ()));
  Alcotest.check_raises "warmup beyond horizon"
    (Invalid_argument "Switchsim.run: warmup outside [0, horizon)") (fun () ->
      ignore (Sim.run sim ~warmup:2.0 ~inputs:(fun _ -> wa) ()))

(* Once [start] has settled the circuit in topological order every net
   is 0 or 1, and stays so: a gate then always sees a known input
   vector. Every suite circuit, zero-delay and timed. *)
let test_no_unknown_net_after_settle () =
  let delay = Delay.Elmore.table proc in
  List.iter
    (fun (name, circuit) ->
      let sim = Sim.build proc circuit in
      let stats =
        Power.Scenario.input_stats ~rng:(Stoch.Rng.create 5) Power.Scenario.A
          circuit
      in
      let gate_delay g =
        let gate = C.gate_at circuit g in
        Delay.Elmore.worst_delay delay gate.C.cell ~config:gate.C.config
          ~load:(Netlist.Load.output proc circuit g)
      in
      let check mode r events =
        List.iter
          (fun (time, net, before, after) ->
            if after = Sim.VX || (time > 0. && before = Sim.VX) then
              Alcotest.failf "%s (%s): net %s unknown at %g" name mode
                (C.net_name circuit net) time)
          events;
        Array.iteri
          (fun net v ->
            if v = Sim.VX then
              Alcotest.failf "%s (%s): net %s ends unknown" name mode
                (C.net_name circuit net))
          r.Sim.final_values
      in
      let observe () =
        let events = ref [] in
        ( events,
          {
            null_observer with
            Sim.on_net =
              (fun ~time ~net ~before ~after ~in_window:_ ->
                events := (time, net, before, after) :: !events);
          } )
      in
      let events, observer = observe () in
      let r =
        Sim.run_stats sim ~rng:(Stoch.Rng.create 7) ~stats ~horizon:2e-5
          ~observer ()
      in
      check "zero-delay" r !events;
      let events, observer = observe () in
      let r =
        Sim.run_timed_stats sim ~rng:(Stoch.Rng.create 7) ~stats ~gate_delay
          ~horizon:2e-5 ~observer ()
      in
      check "timed" r !events)
    (Circuits.Suite.all ())

(* Property: on random circuits with random clocked stimuli, simulated
   primary-output values at the end of the run equal Eval of the final
   vector. *)
let prop_final_state_matches_eval =
  QCheck.Test.make ~name:"final settled state matches functional evaluation"
    ~count:25
    QCheck.(pair (int_range 0 10000) (int_range 2 20))
    (fun (seed, steps) ->
      QCheck.assume (steps >= 2);
      let circuit =
        Circuits.Generators.random_logic ~seed ~inputs:5 ~gates:25
      in
      let sim = Sim.build proc circuit in
      let rng = Stoch.Rng.create (seed + 1) in
      let pis = C.primary_inputs circuit in
      let patterns = Hashtbl.create 8 in
      List.iter
        (fun net ->
          Hashtbl.add patterns net
            (Array.init steps (fun _ -> Stoch.Rng.bool rng)))
        pis;
      let inputs net =
        W.of_bits ~bits:(Hashtbl.find patterns net) ~period:1.0
      in
      let r = Sim.run sim ~inputs () in
      let final net = (Hashtbl.find patterns net).(steps - 1) in
      let expected = Netlist.Eval.nets circuit ~inputs:final in
      List.for_all
        (fun net ->
          let settled =
            (* recover from toggle parity: initial value + toggles *)
            let initial =
              Netlist.Eval.nets circuit ~inputs:(fun n ->
                  (Hashtbl.find patterns n).(0))
            in
            if r.Sim.net_toggles.(net) mod 2 = 0 then initial.(net)
            else not initial.(net)
          in
          settled = expected.(net))
        (C.primary_outputs circuit))

let () =
  Alcotest.run "switchsim"
    [
      ( "energy",
        [
          Alcotest.test_case "inverter hand-computed" `Quick
            test_inverter_energy_hand_computed;
          Alcotest.test_case "output toggles" `Quick test_inverter_output_toggles;
          Alcotest.test_case "masked input / internal power" `Quick
            test_nand_masked_input;
          Alcotest.test_case "internal energy depends on order" `Quick
            test_internal_energy_depends_on_order;
          Alcotest.test_case "per-gate sums" `Quick test_per_gate_energy_sums;
          Alcotest.test_case "per-net conservation" `Quick
            test_per_net_energy_conservation;
          Alcotest.test_case "warmup window" `Quick test_warmup_reduces_window;
          Alcotest.test_case "output node at the model's C" `Quick
            test_output_node_is_model_capacitance;
        ] );
      ( "probes",
        [
          Alcotest.test_case "warmup events flagged" `Quick
            test_observer_warmup_flagging;
          Alcotest.test_case "energy events match the books" `Quick
            test_observer_energy_matches_books;
          Alcotest.test_case "no observer, no probe events" `Quick
            test_no_observer_no_probe_events;
        ] );
      ( "functional",
        [
          Alcotest.test_case "static vectors vs Eval" `Slow
            test_agrees_with_eval_on_static_vectors;
          Alcotest.test_case "clocked c17 vs Eval" `Quick
            test_agrees_with_eval_after_transitions;
          Property.to_alcotest prop_final_state_matches_eval;
          Alcotest.test_case "no unknown net after the settle" `Quick
            test_no_unknown_net_after_settle;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "measured input stats" `Slow
            test_measured_stats_match_input;
          Alcotest.test_case "density matches analysis" `Slow
            test_simulated_density_matches_analysis;
          Alcotest.test_case "reconvergence gap bounded" `Slow
            test_reconvergence_bounded_gap;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
