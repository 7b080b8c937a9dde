(* Tests for the extended power model, density propagation, circuit
   estimation and scenarios. Hand-computed expectations follow §3 of the
   paper. *)

module M = Power.Model
module A = Power.Analysis
module E = Power.Estimate
module S = Stoch.Signal_stats
module C = Netlist.Circuit
module B = Netlist.Builder

let table () = M.table Cell.Process.default
let stats p d = S.make ~prob:p ~density:d
let gate n = Cell.Gate.of_name n

(* --- Model.output_stats --- *)

let test_inverter_stats () =
  let t = table () in
  let out = M.output_stats t (gate "inv") ~input_stats:[| stats 0.3 42. |] () in
  Alcotest.(check (float 1e-9)) "P(out) = 1 - P(in)" 0.7 (S.prob out);
  Alcotest.(check (float 1e-9)) "D(out) = D(in)" 42. (S.density out)

let test_nand2_stats () =
  let t = table () in
  let pa = 0.5 and pb = 0.25 and da = 10. and db = 100. in
  let out =
    M.output_stats t (gate "nand2") ~input_stats:[| stats pa da; stats pb db |] ()
  in
  Alcotest.(check (float 1e-9)) "P = 1 - pa.pb" (1. -. (pa *. pb)) (S.prob out);
  (* D = P(b).Da + P(a).Db (boolean differences of an AND). *)
  Alcotest.(check (float 1e-9)) "Najm density" ((pb *. da) +. (pa *. db))
    (S.density out)

let test_xor_like_density () =
  (* aoi21 with x2 = 0 held constant degenerates to nand2 on x0,x1. *)
  let t = table () in
  let out =
    M.output_stats t (gate "aoi21")
      ~input_stats:[| stats 0.5 10.; stats 0.5 20.; S.constant false |]
      ()
  in
  Alcotest.(check (float 1e-9)) "degenerate aoi21 density"
    ((0.5 *. 10.) +. (0.5 *. 20.))
    (S.density out)

let test_constant_inputs_zero_density () =
  let t = table () in
  let out =
    M.output_stats t (gate "nor3")
      ~input_stats:[| S.constant true; S.constant false; S.constant false |]
      ()
  in
  Alcotest.(check (float 1e-9)) "no transitions" 0. (S.density out);
  Alcotest.(check (float 1e-9)) "P(nor) = 0" 0. (S.prob out)

let test_output_stats_rejects_bad_arity () =
  let t = table () in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Power.Model: input_stats length differs from gate arity")
    (fun () ->
      ignore (M.output_stats t (gate "nand2") ~input_stats:[| stats 0.5 1. |] ()))

(* --- Model.gate_power --- *)

let test_inverter_has_no_internal_power () =
  let t = table () in
  let p =
    M.gate_power t (gate "inv") ~config:0 ~input_stats:[| stats 0.5 100. |]
      ~load:10e-15 ()
  in
  Alcotest.(check (float 1e-30)) "internal" 0. p.M.internal;
  Alcotest.(check bool) "output positive" true (p.M.output > 0.);
  Alcotest.(check (float 1e-25)) "total = output" p.M.output p.M.total

let test_output_node_transitions_equal_najm () =
  let t = table () in
  let input_stats = [| stats 0.3 1e5; stats 0.7 2e5; stats 0.5 3e4 |] in
  let p = M.gate_power t (gate "oai21") ~config:2 ~input_stats ~load:0. () in
  let najm = S.density (M.output_stats t (gate "oai21") ~input_stats ()) in
  match p.M.nodes with
  | { M.node = Sp.Network.Output; transitions; _ } :: _ ->
      Alcotest.(check (float 1e-6)) "output transitions = Najm density" najm
        transitions
  | _ -> Alcotest.fail "output node must come first"

let test_internal_node_probability () =
  (* nand2 reference config: pull-down [x0; x1] from output to ground;
     internal node n0: H = x0 & !x1, G = x1, so
     P(n0) = P(H) / (P(H) + P(G)). *)
  let t = table () in
  let pa = 0.6 and pb = 0.3 in
  let p =
    M.gate_power t (gate "nand2") ~config:0
      ~input_stats:[| stats pa 1.; stats pb 1. |]
      ~load:0. ()
  in
  let p_h = pa *. (1. -. pb) and p_g = pb in
  let expected = p_h /. (p_h +. p_g) in
  let internal =
    List.find
      (fun n -> match n.M.node with Sp.Network.Internal _ -> true | _ -> false)
      p.M.nodes
  in
  Alcotest.(check (float 1e-9)) "steady-state probability" expected
    internal.M.probability

let test_gate_power_monotone_in_load () =
  let t = table () in
  let input_stats = [| stats 0.5 1e5; stats 0.5 1e5 |] in
  let power load =
    (M.gate_power t (gate "nand2") ~config:0 ~input_stats ~load ()).M.total
  in
  Alcotest.(check bool) "more load, more power" true (power 50e-15 > power 5e-15)

let test_gate_power_rejects_negative_load () =
  let t = table () in
  Alcotest.check_raises "negative load"
    (Invalid_argument "Power.Model.gate_power: negative load") (fun () ->
      ignore
        (M.gate_power t (gate "inv") ~config:0 ~input_stats:[| stats 0.5 1. |]
           ~load:(-1.) ()))

let test_gate_power_rejects_bad_config () =
  let t = table () in
  Alcotest.check_raises "config out of range"
    (Invalid_argument "Power.Model: configuration index out of range")
    (fun () ->
      ignore
        (M.gate_power t (gate "inv") ~config:5 ~input_stats:[| stats 0.5 1. |]
           ~load:0. ()))

(* Table 1 of the paper: the best configuration of the example gate
   flips between the two activity cases. *)
let test_table1_best_config_flips () =
  let t = table () in
  let g = gate "oai21" in
  let configs = Cell.Config.all g in
  let best input_stats =
    let powers =
      List.mapi
        (fun i _ ->
          (i, (M.gate_power t g ~config:i ~input_stats ~load:20e-15 ()).M.total))
        configs
    in
    fst
      (List.fold_left
         (fun (bi, bp) (i, p) -> if p < bp then (i, p) else (bi, bp))
         (-1, infinity) powers)
  in
  let case1 = best [| stats 0.5 1e4; stats 0.5 1e5; stats 0.5 1e6 |] in
  let case2 = best [| stats 0.5 1e6; stats 0.5 1e5; stats 0.5 1e4 |] in
  Alcotest.(check bool) "different optimum" true (case1 <> case2)

(* --- tied pins (groups) --- *)

let majority_groups = [| 0; 1; 1; 3; 0; 3 |]
(* aoi222 pins (a,b,b,c,a,c): pin2 ties to pin1, pin4 to pin0, pin5 to
   pin3 — the majority-carry cell of the full adder. *)

let test_groups_of_nets () =
  Alcotest.(check (array int)) "majority wiring" majority_groups
    (M.groups_of_nets [| 10; 11; 11; 12; 10; 12 |]);
  Alcotest.(check (array int)) "distinct nets" [| 0; 1; 2 |]
    (M.groups_of_nets [| 5; 9; 7 |])

let test_tied_pins_exact_probability () =
  (* Majority of three independent P=0.5 signals is exactly 0.5; the
     AOI222 output (its complement) too. Treating the six pins as
     independent would give 1 - (1 - 1/4)^3 = 0.578 instead. *)
  let t = table () in
  let input_stats = Array.make 6 (stats 0.5 1.) in
  let tied =
    M.output_stats t (gate "aoi222") ~input_stats ~groups:majority_groups ()
  in
  Alcotest.(check (float 1e-12)) "exact 0.5" 0.5 (S.prob tied);
  let untied = M.output_stats t (gate "aoi222") ~input_stats () in
  (* independent pins: P(out) = P(no AND-pair conducts) = (3/4)^3 *)
  Alcotest.(check bool) "independence bias visible" true
    (Float.abs (S.prob untied -. (0.75 ** 3.)) < 1e-12)

let test_tied_pins_density () =
  (* d(maj)/d(a) = b xor c, so with all P = 0.5:
     D(out) = 0.5 (Da + Db + Dc). *)
  let t = table () in
  let da = 10. and db = 100. and dc = 1000. in
  let input_stats =
    [| stats 0.5 da; stats 0.5 db; stats 0.5 db; stats 0.5 dc;
       stats 0.5 da; stats 0.5 dc |]
  in
  let out =
    M.output_stats t (gate "aoi222") ~input_stats ~groups:majority_groups ()
  in
  Alcotest.(check (float 1e-9)) "majority density"
    (0.5 *. (da +. db +. dc))
    (S.density out)

let test_groups_validation () =
  let t = table () in
  let input_stats = Array.make 2 (stats 0.5 1.) in
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Power.Model: groups must point at earlier pins")
    (fun () ->
      ignore
        (M.output_stats t (gate "nand2") ~input_stats ~groups:[| 1; 1 |] ()));
  Alcotest.check_raises "non-idempotent representative"
    (Invalid_argument "Power.Model: group representative must map to itself")
    (fun () ->
      ignore
        (M.gate_power t (gate "nor3") ~config:0
           ~input_stats:(Array.make 3 (stats 0.5 1.))
           ~groups:[| 0; 0; 1 |] ~load:0. ()))

let test_analysis_uses_groups () =
  (* A full-adder carry stage driven by independent inputs: the carry
     net probability must be exactly 0.5 (see E5). *)
  let t = table () in
  let b = B.create ~name:"carry" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let cin = B.input b "cin" in
  let maj = B.gate b "aoi222" [ a; bb; bb; cin; a; cin ] in
  let carry = B.inv b ~name:"carry" maj in
  B.output b carry;
  let circuit = B.finish b in
  let analysis = A.run t circuit ~inputs:(fun _ -> stats 0.5 1.) in
  let carry_net = Option.get (C.net_of_name circuit "carry") in
  Alcotest.(check (float 1e-12)) "P(carry) exact" 0.5
    (S.prob (A.stats analysis carry_net));
  Alcotest.(check (float 1e-12)) "D(carry) = 1.5" 1.5
    (S.density (A.stats analysis carry_net))

(* Property: output statistics are identical across configurations — the
   monotonicity hook of §4.2. *)
let library_gate_arb =
  QCheck.make
    ~print:Cell.Gate.name
    QCheck.Gen.(
      map (List.nth Cell.Gate.library)
        (int_bound (List.length Cell.Gate.library - 1)))

let random_stats_for rng n =
  Array.init n (fun _ ->
      stats (Stoch.Rng.float rng) (Stoch.Rng.float_range rng 0. 1e6))

let prop_output_stats_config_invariant =
  QCheck.Test.make ~name:"output stats identical across configurations"
    ~count:40
    (QCheck.pair library_gate_arb QCheck.(int_range 0 1_000_000))
    (fun (g, seed) ->
      let t = table () in
      let rng = Stoch.Rng.create seed in
      let input_stats = random_stats_for rng (Cell.Gate.arity g) in
      let reference = M.output_stats t g ~input_stats () in
      (* output_stats uses config 0; check the output node's transitions
         per config equal the reference density. *)
      List.for_all
        (fun i ->
          let p = M.gate_power t g ~config:i ~input_stats ~load:0. () in
          match p.M.nodes with
          | { M.node = Sp.Network.Output; transitions; _ } :: _ ->
              Float.abs (transitions -. S.density reference) < 1e-6
          | _ -> false)
        (List.init (Cell.Gate.config_count g) Fun.id))

let prop_gate_power_nonnegative =
  QCheck.Test.make ~name:"node powers are nonnegative" ~count:40
    (QCheck.pair library_gate_arb QCheck.(int_range 0 1_000_000))
    (fun (g, seed) ->
      let t = table () in
      let rng = Stoch.Rng.create seed in
      let input_stats = random_stats_for rng (Cell.Gate.arity g) in
      List.for_all
        (fun i ->
          let p = M.gate_power t g ~config:i ~input_stats ~load:10e-15 () in
          List.for_all (fun n -> n.M.power >= 0.) p.M.nodes
          && p.M.total >= 0.)
        (List.init (Cell.Gate.config_count g) Fun.id))

(* --- Analysis --- *)

let nand_inv () =
  let b = B.create ~name:"nand_inv" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let y = B.nand2 b ~name:"y" a bb in
  let z = B.inv b ~name:"z" y in
  B.output b z;
  B.finish b

let test_analysis_propagation () =
  let t = table () in
  let c = nand_inv () in
  let inputs net =
    if C.net_name c net = "a" then stats 0.5 100. else stats 0.25 200.
  in
  let a = A.run t c ~inputs in
  let y = Option.get (C.net_of_name c "y") in
  let z = Option.get (C.net_of_name c "z") in
  Alcotest.(check (float 1e-9)) "P(y)" (1. -. (0.5 *. 0.25)) (S.prob (A.stats a y));
  Alcotest.(check (float 1e-9)) "D(y)" ((0.25 *. 100.) +. (0.5 *. 200.))
    (S.density (A.stats a y));
  Alcotest.(check (float 1e-9)) "P(z) = 1 - P(y)" (0.5 *. 0.25)
    (S.prob (A.stats a z));
  Alcotest.(check (float 1e-9)) "D(z) = D(y)" (S.density (A.stats a y))
    (S.density (A.stats a z))

let test_analysis_gate_input_stats () =
  let t = table () in
  let c = nand_inv () in
  let inputs _ = stats 0.5 10. in
  let a = A.run t c ~inputs in
  let pins = A.gate_input_stats a c 1 in
  Alcotest.(check int) "inv has one pin" 1 (Array.length pins);
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.(check (float 1e-12)) "pin stats = net stats"
    (S.density (A.stats a y))
    (S.density pins.(0))

(* --- Estimate --- *)

let test_output_load_fanout () =
  let proc = Cell.Process.default in
  let load = Netlist.Load.output proc in
  let c = nand_inv () in
  (* Gate 0 (nand2) output feeds one inv pin; not a primary output. *)
  let expected = Cell.Process.input_pin_capacitance proc (gate "inv") 0 in
  Alcotest.(check (float 1e-20)) "one inv pin" expected (load c 0);
  (* Gate 1 (inv) drives the primary output: external load only. *)
  Alcotest.(check (float 1e-20)) "external load" 20e-15 (load c 1);
  Alcotest.(check (float 1e-20)) "custom external load" 5e-15
    (load ~external_load:5e-15 c 1)

let test_estimate_breakdown_consistency () =
  let t = table () in
  let c = nand_inv () in
  let a = A.run t c ~inputs:(fun _ -> stats 0.5 1e5) in
  let b = E.circuit t c a in
  let sum = Array.fold_left ( +. ) 0. b.E.per_gate in
  Alcotest.(check bool) "positive total" true (b.E.total > 0.);
  Alcotest.(check (float 1e-18)) "per-gate sums to total" b.E.total sum;
  Alcotest.(check (float 1e-18)) "internal + output = total" b.E.total
    (b.E.internal +. b.E.output);
  Alcotest.(check (float 1e-18)) "total helper agrees" b.E.total (E.total t c a)

let test_estimate_config_changes_power () =
  (* Reordering the nand2 changes circuit power when its input
     activities are asymmetric. *)
  let t = table () in
  let c = nand_inv () in
  let inputs net =
    if C.net_name c net = "a" then stats 0.5 1e6 else stats 0.5 1e3
  in
  let a = A.run t c ~inputs in
  let p0 = E.total t c a in
  let p1 = E.total t (C.with_configs c [| 1; 0 |]) a in
  Alcotest.(check bool) "configs differ in power" true
    (Float.abs (p0 -. p1) > 1e-12 *. Float.abs p0)

(* --- Scenario --- *)

let test_scenario_b () =
  let c = nand_inv () in
  let rng = Stoch.Rng.create 1 in
  let f = Power.Scenario.input_stats ~rng Power.Scenario.B c in
  List.iter
    (fun net ->
      let s = f net in
      Alcotest.(check (float 1e-9)) "P = 0.5" 0.5 (S.prob s);
      Alcotest.(check (float 1e-3)) "D = 0.5/cycle" 5e5 (S.density s))
    (C.primary_inputs c)

let test_scenario_a_ranges_and_stability () =
  let c = nand_inv () in
  let rng = Stoch.Rng.create 7 in
  let f = Power.Scenario.input_stats ~rng Power.Scenario.A c in
  List.iter
    (fun net ->
      let s = f net in
      Alcotest.(check bool) "prob in range" true (S.prob s >= 0. && S.prob s <= 1.);
      Alcotest.(check bool) "density in range" true
        (S.density s >= 0. && S.density s <= 1e6);
      (* Stable on repeated lookup. *)
      Alcotest.(check (float 0.)) "stable" (S.density s) (S.density (f net)))
    (C.primary_inputs c)

let test_scenario_rejects_non_input () =
  let c = nand_inv () in
  let rng = Stoch.Rng.create 7 in
  let f = Power.Scenario.input_stats ~rng Power.Scenario.A c in
  let y = Option.get (C.net_of_name c "y") in
  Alcotest.check_raises "non-input net"
    (Invalid_argument "Scenario.input_stats: not a primary input net")
    (fun () -> ignore (f y))

let test_scenario_names () =
  Alcotest.(check string) "A" "A" (Power.Scenario.name Power.Scenario.A);
  Alcotest.(check bool) "of_name b" true
    (Power.Scenario.of_name "b" = Power.Scenario.B)

(* --- Compiled programs vs the symbolic walk --- *)

(* The model as the diagrams define it, one Bdd.probability walk per
   root: H/G path search, the Bdd.compose group remap and Boolean
   differences, on a manager of its own. *)
module Walk = struct
  type node = {
    node : Sp.Network.node;
    cap : float;
    h : Bdd.t;
    g : Bdd.t;
    dh : Bdd.t array;
    dg : Bdd.t array;
  }

  type t = { nodes : node list; f : Bdd.t; df : Bdd.t array }

  let m = Bdd.manager ()

  let build proc cell config groups =
    let network = Cell.Config.network (List.nth (Cell.Config.all cell) config) in
    let remap f =
      let r = ref f in
      Array.iteri
        (fun pin rep -> if rep <> pin then r := Bdd.compose !r pin (Bdd.var m rep))
        groups;
      !r
    in
    let differences f =
      Array.init (Array.length groups) (fun i ->
          if groups.(i) = i then Bdd.boolean_difference f i else Bdd.zero m)
    in
    let symbolic node =
      let h = remap (Sp.Network.h_function m network node) in
      let g = remap (Sp.Network.g_function m network node) in
      {
        node;
        cap = Cell.Process.node_capacitance proc network node;
        h;
        g;
        dh = differences h;
        dg = differences g;
      }
    in
    let f = remap (Sp.Network.output_function m network) in
    { nodes = List.map symbolic (Sp.Network.power_nodes network); f; df = differences f }

  let gate_power proc w input_stats ~load =
    let p i = S.prob input_stats.(i) in
    let node_power n =
      let p_h = Bdd.probability n.h p and p_g = Bdd.probability n.g p in
      let probability = if p_h +. p_g <= 0. then 0. else p_h /. (p_h +. p_g) in
      let by_input = Array.make (Array.length n.dh) 0. in
      let transitions = ref 0. in
      Array.iteri
        (fun i dh_i ->
          let d_i = S.density input_stats.(i) in
          if d_i > 0. then begin
            let toggle_h = Bdd.probability dh_i p in
            let toggle_g = Bdd.probability n.dg.(i) p in
            let t_i =
              d_i *. (((1. -. probability) *. toggle_h) +. (probability *. toggle_g))
            in
            by_input.(i) <- t_i;
            transitions := !transitions +. t_i
          end)
        n.dh;
      let capacitance =
        n.cap +. match n.node with Sp.Network.Output -> load | _ -> 0.
      in
      let vdd = proc.Cell.Process.vdd in
      {
        M.node = n.node;
        probability;
        transitions = !transitions;
        by_input;
        capacitance;
        power = 0.5 *. capacitance *. vdd *. vdd *. !transitions;
      }
    in
    let nodes = List.map node_power w.nodes in
    let split (internal, output) (np : M.node_power) =
      match np.M.node with
      | Sp.Network.Output -> (internal, output +. np.M.power)
      | _ -> (internal +. np.M.power, output)
    in
    let internal, output = List.fold_left split (0., 0.) nodes in
    { M.nodes; internal; output; total = internal +. output }

  let contributions w input_stats =
    let p i = S.prob input_stats.(i) in
    Array.mapi (fun i df_i -> S.density input_stats.(i) *. Bdd.probability df_i p) w.df

  let output_stats w input_stats =
    S.make
      ~prob:(Bdd.probability w.f (fun i -> S.prob input_stats.(i)))
      ~density:(Array.fold_left ( +. ) 0. (contributions w input_stats))
end

(* Every {!M.groups_of_nets} pattern of [arity] pins, one per way of
   tying them to nets: each pin maps to itself or to an earlier pin that
   maps to itself, so there are Bell(arity) of them, identity first. *)
let group_patterns arity =
  let rec extend groups =
    let pin = Array.length groups in
    if pin = arity then [ groups ]
    else
      List.concat_map
        (fun rep -> extend (Array.append groups [| rep |]))
        (pin :: List.filter (fun j -> groups.(j) = j) (List.init pin Fun.id))
  in
  extend [||]

(* Seeded statistics with density-0 pins and probabilities 0 and 1;
   tied pins copy their representative's. *)
let draw_stats rng groups =
  let pick () =
    match Stoch.Rng.int rng 5 with
    | 0 -> stats 0. (Stoch.Rng.float_range rng 1. 1e6)
    | 1 -> stats 1. (Stoch.Rng.float_range rng 1. 1e6)
    | 2 -> stats (Stoch.Rng.float rng) 0.
    | _ -> stats (Stoch.Rng.float rng) (Stoch.Rng.float_range rng 1. 1e6)
  in
  let drawn = Array.map (fun _ -> pick ()) groups in
  Array.map (fun rep -> drawn.(rep)) groups

let test_compiled_bit_identical () =
  let proc = Cell.Process.default in
  let t = table () in
  let rng = Stoch.Rng.create 2024 in
  let bits = Int64.bits_of_float in
  let same what a b =
    if bits a <> bits b then
      Alcotest.failf "%s: compiled %h, walk %h" what a b
  in
  let same_array what a b =
    Alcotest.(check int) (what ^ " length") (Array.length b) (Array.length a);
    Array.iteri (fun i x -> same (Printf.sprintf "%s.(%d)" what i) x b.(i)) a
  in
  let evaluations = ref 0 in
  List.iter
    (fun cell ->
      let arity = Cell.Gate.arity cell in
      List.iter
        (fun groups ->
          for config = 0 to Cell.Gate.config_count cell - 1 do
            let w = Walk.build proc cell config groups in
            begin
              incr evaluations;
              let input_stats = draw_stats rng groups in
              let load = float_of_int ((!evaluations mod 3) + 1) *. 7e-15 in
              let where =
                Printf.sprintf "%s config %d groups [%s]" (Cell.Gate.name cell) config
                  (String.concat ";" (Array.to_list (Array.map string_of_int groups)))
              in
              let got = M.gate_power t cell ~config ~input_stats ~groups ~load () in
              let want = Walk.gate_power proc w input_stats ~load in
              Alcotest.(check int) (where ^ " nodes") (List.length want.M.nodes)
                (List.length got.M.nodes);
              List.iter2
                (fun (g : M.node_power) (r : M.node_power) ->
                  let what field =
                    Format.asprintf "%s node %a %s" where Sp.Network.pp_node r.M.node field
                  in
                  Alcotest.(check bool) (what "id") true (g.M.node = r.M.node);
                  same (what "probability") g.M.probability r.M.probability;
                  same (what "transitions") g.M.transitions r.M.transitions;
                  same_array (what "by_input") g.M.by_input r.M.by_input;
                  same (what "capacitance") g.M.capacitance r.M.capacitance;
                  same (what "power") g.M.power r.M.power)
                got.M.nodes want.M.nodes;
              same (where ^ " internal") got.M.internal want.M.internal;
              same (where ^ " output") got.M.output want.M.output;
              same (where ^ " total") got.M.total want.M.total;
              same (where ^ " gate_total")
                (M.gate_total t cell ~config ~input_stats ~groups ~load)
                want.M.total;
              same (where ^ " resolved program")
                (M.total (M.program t cell ~config ~groups) ~input_stats ~load)
                want.M.total;
              if config = 0 then begin
                let out = M.output_stats t cell ~input_stats ~groups () in
                let ref_out = Walk.output_stats w input_stats in
                same (where ^ " output prob") (S.prob out) (S.prob ref_out);
                same (where ^ " output density") (S.density out) (S.density ref_out)
              end
            end
          done)
        (group_patterns arity))
    Cell.Gate.library;
  Alcotest.(check int) "every key of the library" 27_517 !evaluations

let () =
  Alcotest.run "power"
    [
      ( "output stats",
        [
          Alcotest.test_case "inverter" `Quick test_inverter_stats;
          Alcotest.test_case "nand2" `Quick test_nand2_stats;
          Alcotest.test_case "degenerate aoi21" `Quick test_xor_like_density;
          Alcotest.test_case "constant inputs" `Quick
            test_constant_inputs_zero_density;
          Alcotest.test_case "arity validation" `Quick
            test_output_stats_rejects_bad_arity;
        ] );
      ( "gate power",
        [
          Alcotest.test_case "inverter internal = 0" `Quick
            test_inverter_has_no_internal_power;
          Alcotest.test_case "output transitions = Najm" `Quick
            test_output_node_transitions_equal_najm;
          Alcotest.test_case "internal node probability" `Quick
            test_internal_node_probability;
          Alcotest.test_case "monotone in load" `Quick
            test_gate_power_monotone_in_load;
          Alcotest.test_case "rejects negative load" `Quick
            test_gate_power_rejects_negative_load;
          Alcotest.test_case "rejects bad config" `Quick
            test_gate_power_rejects_bad_config;
          Alcotest.test_case "Table 1: optimum flips with activity" `Quick
            test_table1_best_config_flips;
          Alcotest.test_case "groups_of_nets" `Quick test_groups_of_nets;
          Alcotest.test_case "tied pins: exact probability" `Quick
            test_tied_pins_exact_probability;
          Alcotest.test_case "tied pins: density" `Quick test_tied_pins_density;
          Alcotest.test_case "groups validation" `Quick test_groups_validation;
          Alcotest.test_case "analysis uses groups" `Quick
            test_analysis_uses_groups;
          Alcotest.test_case "compiled programs bit-identical to the walk"
            `Quick test_compiled_bit_identical;
          Property.to_alcotest prop_output_stats_config_invariant;
          Property.to_alcotest prop_gate_power_nonnegative;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "propagation" `Quick test_analysis_propagation;
          Alcotest.test_case "gate input stats" `Quick
            test_analysis_gate_input_stats;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "output load" `Quick test_output_load_fanout;
          Alcotest.test_case "breakdown consistency" `Quick
            test_estimate_breakdown_consistency;
          Alcotest.test_case "config changes power" `Quick
            test_estimate_config_changes_power;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "B" `Quick test_scenario_b;
          Alcotest.test_case "A ranges/stability" `Quick
            test_scenario_a_ranges_and_stability;
          Alcotest.test_case "rejects non-input" `Quick
            test_scenario_rejects_non_input;
          Alcotest.test_case "names" `Quick test_scenario_names;
        ] );
    ]
