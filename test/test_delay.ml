(* Tests for the Elmore delay model and static timing analysis. The key
   behavioural check: a critical input placed next to the output makes
   the gate faster than next to the rail (§5's rule of thumb). *)

module El = Delay.Elmore
module Sta = Delay.Sta
module C = Netlist.Circuit
module B = Netlist.Builder

let proc = Cell.Process.default
let table () = El.table proc
let gate = Cell.Gate.of_name

(* Hand calculation for the inverter: single NMOS / single PMOS.
   Fall: τ = (C_out + load)·R_n with C_out = 3 junctions + wire. *)
let test_inverter_hand_computed () =
  let t = table () in
  let c_out = (2. *. 6e-15) +. 15e-15 in
  let load = 10e-15 in
  let rise, fall = El.pin_delay_rise_fall t (gate "inv") ~config:0 ~pin:0 ~load in
  Alcotest.(check (float 1e-15)) "fall = (C+L)Rn" ((c_out +. load) *. 5e3) fall;
  Alcotest.(check (float 1e-15)) "rise = (C+L)Rp" ((c_out +. load) *. 10e3) rise

(* nand2: output has 3 terminals + wire; internal node 2 terminals.
   Pull-down chain [x0 near output; x1 near ground].
   Pin x0 last: only C_out discharges through both NMOS: τ = C_out·2Rn.
   Pin x1 last: C_out·2Rn + C_int·Rn (internal node still charged). *)
let test_nand2_position_dependence () =
  let t = table () in
  let c_out = (3. *. 6e-15) +. 15e-15 in
  let c_int = 2. *. 6e-15 in
  let r = 5e3 in
  let _, fall0 = El.pin_delay_rise_fall t (gate "nand2") ~config:0 ~pin:0 ~load:0. in
  let _, fall1 = El.pin_delay_rise_fall t (gate "nand2") ~config:0 ~pin:1 ~load:0. in
  Alcotest.(check (float 1e-15)) "near-output pin" (c_out *. 2. *. r) fall0;
  Alcotest.(check (float 1e-15)) "near-rail pin"
    ((c_out *. 2. *. r) +. (c_int *. r))
    fall1;
  Alcotest.(check bool) "output-adjacent critical pin is faster" true
    (fall0 < fall1)

let test_reordering_swaps_pin_delays () =
  (* Config 1 of nand2 swaps the chain; pin roles must swap. *)
  let t = table () in
  let d config pin =
    snd (El.pin_delay_rise_fall t (gate "nand2") ~config ~pin ~load:0.)
  in
  Alcotest.(check (float 1e-18)) "pin0 cfg0 = pin1 cfg1" (d 0 0) (d 1 1);
  Alcotest.(check (float 1e-18)) "pin1 cfg0 = pin0 cfg1" (d 0 1) (d 1 0)

let test_delay_affine_in_load () =
  let t = table () in
  let d load = El.pin_delay t (gate "nand3") ~config:0 ~pin:1 ~load in
  let d0 = d 0. and d1 = d 10e-15 and d2 = d 20e-15 in
  Alcotest.(check (float 1e-18)) "affine" (d1 -. d0) (d2 -. d1);
  Alcotest.(check bool) "increasing" true (d2 > d1 && d1 > d0)

let test_worst_delay_is_max_pin () =
  let t = table () in
  let g = gate "oai21" in
  let w = El.worst_delay t g ~config:0 ~load:5e-15 in
  let pins =
    List.init (Cell.Gate.arity g) (fun pin ->
        El.pin_delay t g ~config:0 ~pin ~load:5e-15)
  in
  Alcotest.(check (float 1e-18)) "max" (List.fold_left Float.max 0. pins) w

let test_validation () =
  let t = table () in
  Alcotest.check_raises "negative load" (Invalid_argument "Delay.Elmore: negative load")
    (fun () -> ignore (El.pin_delay t (gate "inv") ~config:0 ~pin:0 ~load:(-1.)));
  Alcotest.check_raises "bad pin" (Invalid_argument "Delay.Elmore: pin out of range")
    (fun () -> ignore (El.pin_delay t (gate "inv") ~config:0 ~pin:3 ~load:0.));
  Alcotest.check_raises "bad config"
    (Invalid_argument "Delay.Elmore: configuration index out of range")
    (fun () -> ignore (El.pin_delay t (gate "inv") ~config:9 ~pin:0 ~load:0.))

(* Property: every pin of every configuration of every library gate has
   positive rise and fall delays (complementary gates always have a path
   through each pin). *)
let prop_all_pins_positive =
  let gates = Array.of_list Cell.Gate.library in
  QCheck.Test.make ~name:"all pins of all configs have positive delays"
    ~count:(Array.length gates)
    (QCheck.make
       ~print:(fun i -> Cell.Gate.name gates.(i))
       QCheck.Gen.(int_bound (Array.length gates - 1)))
    (fun gi ->
      let t = table () in
      let g = gates.(gi) in
      List.for_all
        (fun config ->
          List.for_all
            (fun pin ->
              let rise, fall = El.pin_delay_rise_fall t g ~config ~pin ~load:1e-15 in
              rise > 0. && fall > 0.)
            (List.init (Cell.Gate.arity g) Fun.id))
        (List.init (Cell.Gate.config_count g) Fun.id))

(* Each configuration's graph derived from its device list alone: a
   node's neighbours by a scan of every device, its degree by a fold
   over them, its H/G by a depth-first search over those scans. The
   shared, indexed graphs must agree with it. *)
module Reference_graph = struct
  module N = Sp.Network

  let neighbours devices n =
    List.concat
      (List.mapi
         (fun d (dev : N.device) ->
           if dev.a = n then [ (d, dev.b) ]
           else if dev.b = n then [ (d, dev.a) ]
           else [])
         devices)

  let capacitance devices n =
    let degree =
      List.fold_left
        (fun acc (d : N.device) ->
          acc + (if d.a = n then 1 else 0) + if d.b = n then 1 else 0)
        0 devices
    in
    let junction = float_of_int degree *. proc.Cell.Process.c_junction in
    if n = N.Output then junction +. proc.Cell.Process.c_wire else junction

  let path m devices ~source ~target ~blocked =
    let literal (d : N.device) =
      match d.polarity with
      | Sp.Sp_tree.Nmos -> Bdd.var m d.input
      | Sp.Sp_tree.Pmos -> Bdd.nvar m d.input
    in
    let rec explore here on_path cube =
      if here = target then cube
      else if here = blocked then Bdd.zero m
      else
        List.fold_left
          (fun acc (d, next) ->
            if List.mem next on_path then acc
            else
              Bdd.(
                acc
                ||| explore next (next :: on_path)
                      (cube &&& literal (List.nth devices d))))
          (Bdd.zero m) (neighbours devices here)
    in
    explore source [ source ] (Bdd.one m)
end

(* Reference pin models in their plainest form: rail paths enumerated
   over device lists, one Elmore walk per (path, pin). The table's pin
   delays must match them bit for bit. *)
module Reference_elmore = struct
  module N = Sp.Network

  type affine = { fixed : float; coef : float }

  let rail_paths network rail =
    let blocked = match rail with N.Vss -> N.Vdd | _ -> N.Vss in
    let devices = Array.to_list (N.devices network) in
    let paths = ref [] in
    let rec explore here on_path acc =
      if here = rail then paths := List.rev acc :: !paths
      else if here <> blocked then
        List.iter
          (fun (d, next) ->
            if not (List.mem next on_path) then
              explore next (next :: on_path) (List.nth devices d :: acc))
          (Reference_graph.neighbours devices here)
    in
    explore N.Output [ N.Output ] [];
    !paths

  let path_affine network pin path =
    if not (List.exists (fun (d : N.device) -> d.input = pin) path) then None
    else
      let all = Array.to_list (N.devices network) in
      let resistances =
        List.map
          (fun (d : N.device) -> Cell.Process.device_resistance proc d.polarity)
          path
      in
      let total_r = List.fold_left ( +. ) 0. resistances in
      let rec walk devices rs downstream node_entry fixed =
        match (devices, rs) with
        | [], [] -> fixed
        | (d : N.device) :: rest_d, r :: rest_r ->
            if d.input = pin then fixed
            else
              let downstream = downstream -. r in
              let mid = if d.a = node_entry then d.b else d.a in
              let fixed =
                match mid with
                | N.Internal _ ->
                    fixed +. (Reference_graph.capacitance all mid *. downstream)
                | N.Vdd | N.Vss | N.Output -> fixed
              in
              walk rest_d rest_r downstream mid fixed
        | _ -> assert false
      in
      let internal_fixed = walk path resistances total_r N.Output 0. in
      let c_out = Reference_graph.capacitance all N.Output in
      Some { fixed = internal_fixed +. (c_out *. total_r); coef = total_r }

  let eval load paths =
    List.fold_left
      (fun acc a -> Float.max acc (a.fixed +. (a.coef *. load)))
      0. paths

  let pin_delay_rise_fall cell ~config ~pin ~load =
    let network = Cell.Config.network (List.nth (Cell.Config.all cell) config) in
    let models rail =
      List.filter_map (path_affine network pin) (rail_paths network rail)
    in
    (eval load (models N.Vdd), eval load (models N.Vss))
end

let test_pin_delays_bit_identical () =
  let t = table () in
  let bits = Int64.bits_of_float in
  List.iter
    (fun cell ->
      for config = 0 to Cell.Gate.config_count cell - 1 do
        for pin = 0 to Cell.Gate.arity cell - 1 do
          List.iter
            (fun load ->
              let rise, fall = El.pin_delay_rise_fall t cell ~config ~pin ~load in
              let rise', fall' =
                Reference_elmore.pin_delay_rise_fall cell ~config ~pin ~load
              in
              if bits rise <> bits rise' || bits fall <> bits fall' then
                Alcotest.failf "%s config %d pin %d load %g: (%h, %h) <> (%h, %h)"
                  (Cell.Gate.name cell) config pin load rise fall rise' fall')
            [ 0.; 7e-15; 43e-15 ]
        done
      done)
    Cell.Gate.library

(* Every configuration of every library cell: the shared graph that the
   power model, Elmore, the simulator and Monte-Carlo read, against its
   derivation from the configuration's device list. *)
let test_graphs_match_device_lists () =
  let module N = Sp.Network in
  let t = table () in
  let m = Bdd.manager () in
  let bits = Int64.bits_of_float in
  let configurations = ref 0 in
  List.iter
    (fun cell ->
      List.iteri
        (fun config reference ->
          incr configurations;
          let name = Printf.sprintf "%s config %d" (Cell.Gate.name cell) config in
          let network = Cell.Config.nth_network cell config in
          let devices = Array.to_list (N.devices (Cell.Config.network reference)) in
          if Array.to_list (N.devices network) <> devices then
            Alcotest.failf "%s: devices differ from a fresh layout" name;
          let internal = List.init (N.internal_count network) (fun i -> N.Internal i) in
          let nodes = [ N.Vdd; N.Vss; N.Output ] @ internal in
          Alcotest.(check int) (name ^ " node count") (List.length nodes)
            (N.node_count network);
          List.iter
            (fun node ->
              let i = N.index node in
              if N.node_of_index i <> node then
                Alcotest.failf "%s: index %d does not map back" name i;
              let expected =
                List.map
                  (fun (d, far) -> (d, N.index far))
                  (Reference_graph.neighbours devices node)
              in
              if Array.to_list (N.adjacency network i) <> expected then
                Alcotest.failf "%s: adjacency of %s" name (N.node_name node))
            nodes;
          List.iter
            (fun node ->
              let c = Cell.Process.node_capacitance proc network node in
              if bits c <> bits (Reference_graph.capacitance devices node) then
                Alcotest.failf "%s: capacitance of %s" name (N.node_name node);
              let path target blocked =
                Reference_graph.path m devices ~source:node ~target ~blocked
              in
              if not (Bdd.equal (N.h_function m network node) (path N.Vdd N.Vss))
              then Alcotest.failf "%s: H of %s" name (N.node_name node);
              if not (Bdd.equal (N.g_function m network node) (path N.Vss N.Vdd))
              then Alcotest.failf "%s: G of %s" name (N.node_name node))
            (N.power_nodes network);
          for pin = 0 to Cell.Gate.arity cell - 1 do
            List.iter
              (fun load ->
                let rise, fall = El.pin_delay_rise_fall t cell ~config ~pin ~load in
                let rise', fall' =
                  Reference_elmore.pin_delay_rise_fall cell ~config ~pin ~load
                in
                if bits rise <> bits rise' || bits fall <> bits fall' then
                  Alcotest.failf "%s pin %d load %g: (%h, %h) <> (%h, %h)" name
                    pin load rise fall rise' fall')
              [ 0.; 20e-15; 1e-12 ]
          done)
        (Cell.Config.all cell))
    Cell.Gate.library;
  Alcotest.(check int) "configurations walked" 353 !configurations

(* --- STA --- *)

let chain_of_inverters n =
  let b = B.create ~name:"chain" in
  let x = B.input b "x" in
  let rec go i net = if i = 0 then net else go (i - 1) (B.inv b net) in
  let out = go n x in
  B.output b out;
  B.finish b

let test_sta_chain_monotone () =
  let t = table () in
  let d n = Sta.critical_delay (Sta.run t (chain_of_inverters n)) in
  Alcotest.(check bool) "longer chain is slower" true
    (d 8 > d 4 && d 4 > d 2 && d 2 > 0.)

let test_sta_inverter_exact () =
  let t = table () in
  let sta = Sta.run t ~external_load:10e-15 (chain_of_inverters 1) in
  let c_out = (2. *. 6e-15) +. 15e-15 in
  Alcotest.(check (float 1e-15)) "rise delay through PMOS"
    ((c_out +. 10e-15) *. 10e3)
    (Sta.critical_delay sta)

let test_sta_arrival_and_path () =
  let t = table () in
  let c = chain_of_inverters 3 in
  let sta = Sta.run t c in
  let path = Sta.critical_path sta in
  Alcotest.(check int) "path visits input + 3 outputs" 4 (List.length path);
  (match path with
  | first :: _ ->
      Alcotest.(check (float 0.)) "starts at arrival 0" 0. (Sta.arrival sta first)
  | [] -> Alcotest.fail "empty path");
  (match Sta.critical_output sta with
  | Some out ->
      Alcotest.(check (float 1e-18)) "critical = arrival at output"
        (Sta.arrival sta out) (Sta.critical_delay sta)
  | None -> Alcotest.fail "no critical output")

let test_sta_config_affects_delay () =
  (* nand3 with the critical (late) input: placing its transistor near
     the output net shortens the circuit delay. Build a circuit where
     input c arrives late (behind two inverters) and feeds pin 0 or 2. *)
  let build pin_for_late =
    let b = B.create ~name:"late" in
    let a = B.input b "a" in
    let c0 = B.input b "c" in
    let late = B.inv b (B.inv b c0) in
    let pins =
      match pin_for_late with
      | 0 -> [ late; a; a ]
      | _ -> [ a; a; late ]
    in
    let y = B.gate b "nand3" pins in
    B.output b y;
    B.finish b
  in
  let t = table () in
  let d pin = Sta.critical_delay (Sta.run t (build pin)) in
  (* Pin 0 is laid next to the output in the reference nand3 config. *)
  Alcotest.(check bool) "late input near output is faster" true (d 0 < d 2)

let test_sta_empty_circuit () =
  let b = B.create ~name:"wires" in
  let x = B.input b "x" in
  B.output b x;
  let c = B.finish b in
  let t = table () in
  Alcotest.(check (float 0.)) "no gates, no delay" 0.
    (Sta.critical_delay (Sta.run t c))

(* --- required times --- *)

let latest_holds r d =
  let x = Sta.latest r d in
  if d > r then x = neg_infinity
  else x >= 0. && x +. d <= r && (x = infinity || Float.succ x +. d > r)

let check_latest r d =
  if not (latest_holds r d) then
    Alcotest.failf "latest %h %h = %h" r d (Sta.latest r d)

let test_latest_random () =
  let rng = Stoch.Rng.create 7 in
  for _ = 1 to 2000 do
    (* Independent pairs, some with [d > r], and required times built
       as an arrival plus a delay, where the boundary sits. *)
    let d = Stoch.Rng.float_range rng 0. 2e-8 in
    check_latest (Stoch.Rng.float_range rng 0. 1e-7) d;
    let a = Stoch.Rng.float_range rng 0. 1e-7 in
    check_latest (a +. d) d;
    Alcotest.(check bool) "an arrival meets its own sum" true
      (a <= Sta.latest (a +. d) d)
  done

let test_latest_edges () =
  let tiny = Int64.float_of_bits 1L in
  Alcotest.(check (float 0.)) "d > r" neg_infinity (Sta.latest 1e-9 2e-9);
  Alcotest.(check (float 0.)) "r = infinity" infinity (Sta.latest infinity 3e-9);
  Alcotest.(check (float 0.)) "d = 0" 4e-9 (Sta.latest 4e-9 0.);
  Alcotest.(check (float 0.)) "r = d = 0" 0. (Sta.latest 0. 0.);
  Alcotest.(check (float 0.)) "subnormal difference" (7. *. tiny)
    (Sta.latest (10. *. tiny) (3. *. tiny));
  Alcotest.(check (float 0.)) "largest subnormal" (Float.min_float -. tiny)
    (Sta.latest Float.min_float tiny);
  let x = Sta.latest 1e-300 1e-300 in
  Alcotest.(check bool) "d = r: a subnormal slack" true
    (x > 0. && x < Float.min_float);
  List.iter
    (fun (r, d) -> check_latest r d)
    [
      (1e-9, 2e-9); (1e-9, 1e-9); (5e-8, 5e-8); (1., 1.); (infinity, 3e-9);
      (infinity, infinity); (4e-9, 0.); (0., 0.); (10. *. tiny, 3. *. tiny);
      (Float.min_float, tiny); (1e-300, 1e-300); (tiny, tiny); (tiny, 0.);
    ]

(* For every gate and configuration, the required-time verdict with the
   rest of the circuit at its incumbents equals a full timing of the
   circuit with only that change: against the optimizer's budget, and
   against the critical delay itself, which the incumbents on the
   critical path meet with no slack at all. *)
let test_required_matches_full_sta () =
  let t = table () in
  let rejects = ref 0 in
  List.iter
    (fun name ->
      let c = Circuits.Suite.find name in
      let sta = Sta.run t c in
      let arrival = Array.init (C.net_count c) (Sta.arrival sta) in
      let configs = Array.map (fun (g : C.gate) -> g.C.config) (C.gates c) in
      let critical = Sta.critical_delay sta in
      let budgets = [ critical +. 1e-18; critical ] in
      let required = List.map (fun budget -> Sta.required sta ~budget) budgets in
      for g = 0 to C.gate_count c - 1 do
        let gate = C.gate_at c g in
        for config = 0 to Cell.Gate.config_count gate.C.cell - 1 do
          let a = Sta.step sta arrival g ~config in
          configs.(g) <- config;
          let d = Sta.critical_delay (Sta.run t (C.with_configs c configs)) in
          configs.(g) <- gate.C.config;
          List.iter2
            (fun budget required ->
              let fast = a <= required.(gate.C.output) and full = d <= budget in
              if fast <> full then
                Alcotest.failf
                  "%s gate %d config %d, budget %h: required %b, full STA %b"
                  name g config budget fast full;
              if not full then incr rejects)
            budgets required
        done
      done)
    [ "rca8"; "alu2"; "mult4"; "csel8" ];
  Alcotest.(check bool) "some candidates break the bound" true (!rejects > 0)

let () =
  Alcotest.run "delay"
    [
      ( "elmore",
        [
          Alcotest.test_case "inverter hand-computed" `Quick
            test_inverter_hand_computed;
          Alcotest.test_case "nand2 position dependence" `Quick
            test_nand2_position_dependence;
          Alcotest.test_case "reordering swaps pin delays" `Quick
            test_reordering_swaps_pin_delays;
          Alcotest.test_case "affine in load" `Quick test_delay_affine_in_load;
          Alcotest.test_case "worst = max pin" `Quick test_worst_delay_is_max_pin;
          Alcotest.test_case "validation" `Quick test_validation;
          Property.to_alcotest prop_all_pins_positive;
          Alcotest.test_case "pin delays bit-identical to the reference"
            `Quick test_pin_delays_bit_identical;
          Alcotest.test_case "graphs match their device lists" `Quick
            test_graphs_match_device_lists;
        ] );
      ( "sta",
        [
          Alcotest.test_case "chain monotone" `Quick test_sta_chain_monotone;
          Alcotest.test_case "inverter exact" `Quick test_sta_inverter_exact;
          Alcotest.test_case "arrival and path" `Quick test_sta_arrival_and_path;
          Alcotest.test_case "config affects delay" `Quick
            test_sta_config_affects_delay;
          Alcotest.test_case "empty circuit" `Quick test_sta_empty_circuit;
          Alcotest.test_case "latest on random pairs" `Quick test_latest_random;
          Alcotest.test_case "latest edge cases" `Quick test_latest_edges;
          Alcotest.test_case "verdicts match a full STA" `Quick
            test_required_matches_full_sta;
        ] );
    ]
