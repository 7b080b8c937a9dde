(* Tests for the timed (inertial) simulation mode: pure transport of
   single events, glitch generation on reconvergent paths, inertial
   absorption of short pulses, and agreement with the zero-delay mode on
   hazard-free topologies. *)

module Sim = Switchsim.Sim
module H = Switchsim.Event_heap
module C = Netlist.Circuit
module B = Netlist.Builder
module W = Stoch.Waveform

let proc = Cell.Process.default

(* --- event heap --- *)

let test_heap_ordering () =
  let h = H.create () in
  List.iter (fun t -> H.push h ~time:t (int_of_float t)) [ 5.; 1.; 3.; 2.; 4. ]
  ;
  let popped = ref [] in
  let rec drain () =
    match H.pop h with
    | None -> ()
    | Some (_, v) ->
        popped := v :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !popped)

let test_heap_interleaved () =
  let h = H.create () in
  H.push h ~time:3. "c";
  H.push h ~time:1. "a";
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (H.peek_time h);
  (match H.pop h with
  | Some (_, "a") -> ()
  | _ -> Alcotest.fail "expected a");
  H.push h ~time:2. "b";
  (match H.pop h with
  | Some (_, "b") -> ()
  | _ -> Alcotest.fail "expected b");
  Alcotest.(check int) "one left" 1 (H.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let h = H.create () in
      List.iteri (fun i t -> H.push h ~time:t i) times;
      let rec drain last =
        match H.pop h with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

(* --- circuits under test --- *)

let inverter_circuit () =
  let b = B.create ~name:"inv1" in
  let x = B.input b "x" in
  let y = B.inv b ~name:"y" x in
  B.output b y;
  B.finish b

(* The classic hazard circuit: y = nand(a, inv a). Zero delay: y is the
   constant 1. With the inverter slower than the nand, every rising edge
   of [a] drives a real 1-0-1 glitch through y. *)
let hazard_circuit () =
  let b = B.create ~name:"hazard" in
  let a = B.input b "a" in
  let na = B.inv b ~name:"na" a in
  let y = B.gate b ~name:"y" "nand2" [ a; na ] in
  B.output b y;
  B.finish b

let gate_delays circuit assoc g =
  let gate = C.gate_at circuit g in
  List.assoc (C.net_name circuit gate.C.output) assoc

let test_single_event_transport () =
  (* One input edge, one gate: identical energy/toggles to zero delay,
     the output simply moves later. *)
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.make ~initial:false ~transitions:[| 10. |] ~horizon:100. in
  let zero = Sim.run sim ~inputs:(fun _ -> w) () in
  let timed =
    Sim.run_timed sim ~gate_delay:(fun _ -> 2.) ~inputs:(fun _ -> w) ()
  in
  Alcotest.(check (float 1e-25)) "same energy" zero.Sim.energy timed.Sim.energy;
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.(check int) "same toggles" zero.Sim.net_toggles.(y)
    timed.Sim.net_toggles.(y);
  (* Output was high until t=10+2 in timed mode vs 10 in zero-delay. *)
  Alcotest.(check (float 1e-9)) "high-time shifted by the delay"
    (zero.Sim.net_high_time.(y) +. 2.)
    timed.Sim.net_high_time.(y)

let test_hazard_glitches () =
  let c = hazard_circuit () in
  let sim = Sim.build proc c in
  (* a rises at 10, 30, 50: three glitch opportunities. Inverter delay
     1s, nand delay 0.1s: the 1s-wide low pulse survives. *)
  let w = W.make ~initial:false ~transitions:[| 10.; 20.; 30.; 40.; 50.; 60. |] ~horizon:100. in
  let delays = [ ("na", 1.0); ("y", 0.1) ] in
  let zero = Sim.run sim ~inputs:(fun _ -> w) () in
  let timed =
    Sim.run_timed sim
      ~gate_delay:(gate_delays c delays)
      ~inputs:(fun _ -> w) ()
  in
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.(check int) "zero delay: constant output" 0 zero.Sim.net_toggles.(y);
  (* Each rising edge of a produces a full 1-0-1 glitch: 2 toggles. *)
  Alcotest.(check int) "timed: 3 glitches" 6 timed.Sim.net_toggles.(y);
  Alcotest.(check bool) "glitches cost energy" true
    (timed.Sim.energy > zero.Sim.energy)

let test_inertial_absorption () =
  (* Same circuit, but now the nand is slower than the inverter: the
     would-be 1s pulse is shorter than the 3s gate delay — absorbed. *)
  let c = hazard_circuit () in
  let sim = Sim.build proc c in
  let w = W.make ~initial:false ~transitions:[| 10.; 20. |] ~horizon:40. in
  let delays = [ ("na", 1.0); ("y", 3.0) ] in
  let timed =
    Sim.run_timed sim
      ~gate_delay:(gate_delays c delays)
      ~inputs:(fun _ -> w) ()
  in
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.(check int) "pulse absorbed" 0 timed.Sim.net_toggles.(y)

let test_hazard_free_topology_matches_zero_delay () =
  (* An inverter chain has a single path: no reconvergence, no hazards —
     timed and zero-delay runs agree on energy and every toggle count. *)
  let b = B.create ~name:"chain" in
  let x = B.input b "x" in
  let n1 = B.inv b x in
  let n2 = B.inv b n1 in
  let n3 = B.inv b n2 in
  B.output b n3;
  let c = B.finish b in
  let sim = Sim.build proc c in
  let rng = Stoch.Rng.create 4 in
  let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:0.05 in
  let zero = Sim.run_stats sim ~rng:(Stoch.Rng.copy rng) ~stats ~horizon:2000. () in
  let timed =
    Sim.run_timed_stats sim ~rng:(Stoch.Rng.copy rng) ~stats
      ~gate_delay:(fun _ -> 1e-3) ~horizon:2000. ()
  in
  Alcotest.(check (float 1e-22)) "same energy" zero.Sim.energy timed.Sim.energy;
  for net = 0 to C.net_count c - 1 do
    Alcotest.(check int)
      (Printf.sprintf "net %d toggles" net)
      zero.Sim.net_toggles.(net) timed.Sim.net_toggles.(net)
  done

let glitch_ratio name =
  let c = Circuits.Suite.find name in
  let sim = Sim.build proc c in
  let delay_table = Delay.Elmore.table proc in
  let gate_delay g =
    let gate = C.gate_at c g in
    Delay.Elmore.worst_delay delay_table gate.C.cell ~config:gate.C.config
      ~load:20e-15
  in
  let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let zero = Sim.run_stats sim ~rng:(Stoch.Rng.create 9) ~stats ~horizon:2e-3 () in
  let timed =
    Sim.run_timed_stats sim ~rng:(Stoch.Rng.create 9) ~stats ~gate_delay
      ~horizon:2e-3 ()
  in
  timed.Sim.power /. zero.Sim.power

let test_timed_glitch_power_shapes () =
  (* Array multipliers are the classic glitch hog — uneven arrival times
     through the adder array generate a double-digit glitch overhead;
     balanced parity trees see near-equal path delays, so their hazards
     are inertially absorbed. *)
  let mult = glitch_ratio "mult4" in
  Alcotest.(check bool)
    (Printf.sprintf "multiplier glitches (ratio %.3f > 1.1)" mult)
    true (mult > 1.1);
  let par = glitch_ratio "par16" in
  Alcotest.(check bool)
    (Printf.sprintf "balanced tree glitch-free (ratio %.3f in [0.97,1.03])" par)
    true
    (par > 0.97 && par < 1.03)

let test_timed_deterministic () =
  let c = Circuits.Suite.find "c17" in
  let sim = Sim.build proc c in
  let stats _ = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let run () =
    (Sim.run_timed_stats sim ~rng:(Stoch.Rng.create 11) ~stats
       ~gate_delay:(fun _ -> 1e-9) ~horizon:1e-3 ())
      .Sim.energy
  in
  Alcotest.(check (float 0.)) "identical reruns" (run ()) (run ())

let test_timed_validation () =
  let c = inverter_circuit () in
  let sim = Sim.build proc c in
  let w = W.constant true ~horizon:1.0 in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Switchsim.run_timed: negative gate delay") (fun () ->
      ignore (Sim.run_timed sim ~gate_delay:(fun _ -> -1.) ~inputs:(fun _ -> w) ()))

let () =
  Alcotest.run "timed"
    [
      ( "event heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Property.to_alcotest prop_heap_sorts;
        ] );
      ( "timed simulation",
        [
          Alcotest.test_case "single event transport" `Quick
            test_single_event_transport;
          Alcotest.test_case "hazard glitches" `Quick test_hazard_glitches;
          Alcotest.test_case "inertial absorption" `Quick
            test_inertial_absorption;
          Alcotest.test_case "hazard-free matches zero delay" `Quick
            test_hazard_free_topology_matches_zero_delay;
          Alcotest.test_case "glitch power shapes" `Slow
            test_timed_glitch_power_shapes;
          Alcotest.test_case "deterministic" `Quick test_timed_deterministic;
          Alcotest.test_case "validation" `Quick test_timed_validation;
        ] );
    ]
