(* Tests for the gate library: functions, configuration counts (Table 2),
   instance grouping, joint pivot exploration (Fig. 5), electrical
   parameters. *)

module T = Sp.Sp_tree
module G = Cell.Gate
module C = Cell.Config

let var = Bdd.var

(* --- Gate --- *)

let test_names_roundtrip () =
  List.iter
    (fun g ->
      Alcotest.(check string) "of_name . name = id" (G.name g)
        (G.name (G.of_name (G.name g))))
    G.library

let test_of_name_unknown () =
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (G.of_name "xor9");
       false
     with Not_found -> true)

let test_make_rejects_bad () =
  let rejects k =
    try
      ignore (G.make k);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nand1" true (rejects (G.Nand 1));
  Alcotest.(check bool) "nor0" true (rejects (G.Nor 0));
  Alcotest.(check bool) "single group" true (rejects (G.Aoi [ 3 ]));
  Alcotest.(check bool) "zero group" true (rejects (G.Oai [ 2; 0 ]));
  Alcotest.(check bool) "all singleton" true (rejects (G.Aoi [ 1; 1 ]))

let check_function name gate expected =
  let m = Bdd.manager () in
  Alcotest.(check bool) name true (Bdd.equal (G.function_bdd m gate) (expected m))

let test_functions () =
  check_function "inv" (G.of_name "inv") (fun m -> Bdd.not_ (var m 0));
  check_function "nand2" (G.of_name "nand2") (fun m ->
      Bdd.not_ Bdd.(var m 0 &&& var m 1));
  check_function "nor3" (G.of_name "nor3") (fun m ->
      Bdd.not_ Bdd.(var m 0 ||| var m 1 ||| var m 2));
  check_function "aoi21 = !(x0.x1 + x2)" (G.of_name "aoi21") (fun m ->
      Bdd.not_ Bdd.(var m 0 &&& var m 1 ||| var m 2));
  check_function "oai21 = !((x0+x1).x2)" (G.of_name "oai21") (fun m ->
      Bdd.not_ Bdd.((var m 0 ||| var m 1) &&& var m 2));
  check_function "aoi221" (G.of_name "aoi221") (fun m ->
      Bdd.not_
        Bdd.(var m 0 &&& var m 1 ||| (var m 2 &&& var m 3) ||| var m 4))

let test_arities () =
  let expect = [ ("inv", 1); ("nand4", 4); ("aoi222", 6); ("oai311", 5) ] in
  List.iter
    (fun (n, a) -> Alcotest.(check int) n a (G.arity (G.of_name n)))
    expect

let test_transistor_counts () =
  Alcotest.(check int) "inv" 2 (G.transistor_count (G.of_name "inv"));
  Alcotest.(check int) "nand2" 4 (G.transistor_count (G.of_name "nand2"));
  Alcotest.(check int) "aoi222" 12 (G.transistor_count (G.of_name "aoi222"))

(* Table 2 of the paper (counts regenerated; see DESIGN.md §6 on the
   illegible entries). *)
let test_table2_config_counts () =
  let expect =
    [
      ("inv", 1); ("nand2", 2); ("nor2", 2); ("nand3", 6); ("nor3", 6);
      ("aoi21", 4); ("oai21", 4); ("nand4", 24); ("nor4", 24);
      ("aoi22", 8); ("oai22", 8); ("aoi31", 12); ("oai31", 12);
      ("aoi211", 12); ("oai211", 12); ("aoi221", 24); ("oai221", 24);
      ("aoi222", 48); ("oai222", 48); ("aoi311", 36); ("oai311", 36);
    ]
  in
  List.iter
    (fun (n, c) -> Alcotest.(check int) n c (G.config_count (G.of_name n)))
    expect

let test_table2_instance_counts () =
  (* The paper's bracket annotations: aoi21[A,B], aoi31[A,B],
     aoi211[A,B,C], aoi221[A,B,C]; unannotated gates need one instance. *)
  let expect =
    [
      ("inv", 1); ("nand2", 1); ("nand4", 1); ("nor3", 1); ("aoi22", 1);
      ("aoi222", 1); ("aoi21", 2); ("oai21", 2); ("aoi31", 2);
      ("aoi211", 3); ("oai211", 3); ("aoi221", 3); ("oai221", 3);
    ]
  in
  List.iter
    (fun (n, c) -> Alcotest.(check int) n c (C.instance_count (G.of_name n)))
    expect

(* --- Config --- *)

let test_config_all_counts_match () =
  List.iter
    (fun g ->
      Alcotest.(check int) (G.name g) (G.config_count g)
        (List.length (C.all g)))
    G.library

let test_config_reference_first () =
  let g = G.of_name "oai21" in
  match C.all g with
  | first :: _ ->
      Alcotest.(check bool) "reference leads" true (C.equal first (C.reference g))
  | [] -> Alcotest.fail "no configs"

let test_config_all_distinct () =
  List.iter
    (fun g ->
      let cs = C.all g in
      let distinct = List.sort_uniq C.compare cs in
      Alcotest.(check int) (G.name g) (List.length cs) (List.length distinct))
    G.library

let test_config_functions_invariant () =
  let m = Bdd.manager () in
  List.iter
    (fun g ->
      let reference = G.function_bdd m g in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (G.name g ^ " config function")
            true
            (Bdd.equal (Sp.Network.output_function m (C.network c)) reference))
        (C.all g))
    G.library

(* The per-cell truth tables against the BDD path search they replace:
   every powered node of every configuration of every cell, at every
   input vector. No vector joins a node to both rails, and the output
   is always driven. *)
let test_config_tables_match_path_search () =
  let m = Bdd.manager () in
  let configs = ref 0 in
  List.iter
    (fun g ->
      for k = 0 to G.config_count g - 1 do
        incr configs;
        let network = C.nth_network g k in
        let { C.h; g = low } = C.nth_tables g k in
        List.iteri
          (fun j node ->
            let where = Format.asprintf "%s config %d node %a" (G.name g) k Sp.Network.pp_node node in
            let hf = Sp.Network.h_function m network node in
            let gf = Sp.Network.g_function m network node in
            for v = 0 to 63 do
              let bit table = Int64.logand (Int64.shift_right_logical table v) 1L = 1L in
              let env i = (v lsr i) land 1 = 1 in
              let in_range = v < 1 lsl G.arity g in
              Alcotest.(check bool) (Printf.sprintf "%s H at %d" where v)
                (in_range && Bdd.eval hf env) (bit h.(j));
              Alcotest.(check bool) (Printf.sprintf "%s G at %d" where v)
                (in_range && Bdd.eval gf env) (bit low.(j))
            done;
            Alcotest.(check int64) (where ^ ": H and G disjoint") 0L (Int64.logand h.(j) low.(j)))
          (Sp.Network.power_nodes network);
        let all = Int64.pred (Int64.shift_left 1L (1 lsl G.arity g)) in
        let all = if G.arity g = 6 then -1L else all in
        Alcotest.(check int64) (Printf.sprintf "%s config %d: H of y = not G of y" (G.name g) k)
          (Int64.logand all (Int64.lognot low.(0))) h.(0)
      done)
    G.library;
  Alcotest.(check int) "configurations walked" 353 !configs

(* Fig. 5: the pivot exploration of the whole example gate finds exactly
   the four configurations of Fig. 1(a). *)
let test_fig5_pivot_exploration () =
  let g = G.of_name "oai21" in
  let trace = ref [] in
  let found = C.pivot_all ~trace:(fun k c -> trace := (k, c) :: !trace) (C.reference g) in
  Alcotest.(check int) "4 configurations" 4 (List.length found);
  Alcotest.(check int) "3 discovered by pivoting" 3 (List.length !trace);
  (* And the set agrees with the exhaustive enumeration. *)
  let set l = List.sort_uniq C.compare l in
  Alcotest.(check int) "same set as all" 0
    (Stdlib.compare (set found) (set (C.all g)))

let prop_pivot_all_matches_all =
  QCheck.Test.make ~name:"joint pivot agrees with exhaustive enumeration"
    ~count:(List.length Cell.Gate.library)
    (QCheck.make
       ~print:(fun g -> G.name g)
       QCheck.Gen.(map (List.nth G.library) (int_bound (List.length G.library - 1))))
    (fun g ->
      let set l = List.sort_uniq C.compare l in
      set (C.pivot_all (C.reference g)) = set (C.all g))

let test_index_in () =
  let g = G.of_name "nand3" in
  let cs = C.all g in
  List.iteri
    (fun i c -> Alcotest.(check int) "index round-trip" i (C.index_in cs c))
    cs

(* --- Process / electrical --- *)

let test_process_validation () =
  Alcotest.(check bool) "negative vdd rejected" true
    (try
       ignore
         (Cell.Process.make ~vdd:(-1.) ~c_gate:1e-15 ~c_junction:1e-15
            ~c_wire:1e-15 ~r_nmos:1e3 ~r_pmos:1e3);
       false
     with Invalid_argument _ -> true)

let test_node_capacitance () =
  let p = Cell.Process.default in
  let g = C.network (C.reference (G.of_name "nand2")) in
  (* Output: 3 terminals x 6 fF + 15 fF wire. *)
  Alcotest.(check (float 1e-20)) "output cap" (3. *. 6e-15 +. 15e-15)
    (Cell.Process.node_capacitance p g Sp.Network.Output);
  Alcotest.(check (float 1e-20)) "internal cap" (2. *. 6e-15)
    (Cell.Process.node_capacitance p g (Sp.Network.Internal 0))

let test_input_pin_capacitance () =
  let p = Cell.Process.default in
  (* Each input drives one NMOS and one PMOS. *)
  Alcotest.(check (float 1e-20)) "pin cap" (2. *. 10e-15)
    (Cell.Process.input_pin_capacitance p (G.of_name "nand2") 0);
  (* The precomputed count is the devices the pin drives in every
     configuration's transistor graph, and the capacitance is the float
     counting them gives. *)
  List.iter
    (fun g ->
      for pin = 0 to G.arity g - 1 do
        let name = Printf.sprintf "%s pin %d" (G.name g) pin in
        List.iter
          (fun config ->
            let driven =
              List.length
                (List.filter
                   (fun (d : Sp.Network.device) -> d.input = pin)
                   (Array.to_list (Sp.Network.devices (C.network config))))
            in
            Alcotest.(check int) name driven (G.pin_devices g pin))
          (C.all g);
        Alcotest.(check (float 0.)) name
          (float_of_int (G.pin_devices g pin) *. p.Cell.Process.c_gate)
          (Cell.Process.input_pin_capacitance p g pin)
      done;
      Alcotest.check_raises "pin out of range"
        (Invalid_argument "Gate.pin_devices: no such pin") (fun () ->
          ignore (Cell.Process.input_pin_capacitance p g (G.arity g))))
    G.library

let test_capacitance_invariant_total () =
  (* Reordering moves diffusion between internal nodes and the supply
     rails, but the gate's total junction area — counted over every
     node including the rails — is fixed (same devices). *)
  let p = Cell.Process.default in
  let g = G.of_name "aoi221" in
  let total c =
    let n = C.network c in
    let rail_terminals node = float_of_int (Sp.Network.node_degree n node) in
    List.fold_left
      (fun acc node -> acc +. Cell.Process.node_capacitance p n node)
      ((rail_terminals Sp.Network.Vdd +. rail_terminals Sp.Network.Vss) *. 6e-15)
      (Sp.Network.power_nodes n)
  in
  match C.all g with
  | [] -> Alcotest.fail "no configs"
  | first :: rest ->
      let reference = total first in
      List.iter
        (fun c ->
          Alcotest.(check bool) "total diffusion cap invariant" true
            (Float.abs (total c -. reference) < 1e-18))
        rest

let () =
  Alcotest.run "cell"
    [
      ( "gate",
        [
          Alcotest.test_case "name round-trip" `Quick test_names_roundtrip;
          Alcotest.test_case "unknown name" `Quick test_of_name_unknown;
          Alcotest.test_case "rejects bad kinds" `Quick test_make_rejects_bad;
          Alcotest.test_case "logic functions" `Quick test_functions;
          Alcotest.test_case "arities" `Quick test_arities;
          Alcotest.test_case "transistor counts" `Quick test_transistor_counts;
          Alcotest.test_case "Table 2 config counts" `Quick
            test_table2_config_counts;
          Alcotest.test_case "Table 2 instance counts" `Quick
            test_table2_instance_counts;
        ] );
      ( "config",
        [
          Alcotest.test_case "all counts match" `Quick
            test_config_all_counts_match;
          Alcotest.test_case "reference first" `Quick test_config_reference_first;
          Alcotest.test_case "all distinct" `Quick test_config_all_distinct;
          Alcotest.test_case "functions invariant" `Slow
            test_config_functions_invariant;
          Alcotest.test_case "Fig. 5 pivot exploration" `Quick
            test_fig5_pivot_exploration;
          Property.to_alcotest prop_pivot_all_matches_all;
          Alcotest.test_case "index_in" `Quick test_index_in;
          Alcotest.test_case "truth tables match the path search" `Quick
            test_config_tables_match_path_search;
        ] );
      ( "process",
        [
          Alcotest.test_case "validation" `Quick test_process_validation;
          Alcotest.test_case "node capacitance" `Quick test_node_capacitance;
          Alcotest.test_case "input pin capacitance" `Quick
            test_input_pin_capacitance;
          Alcotest.test_case "total capacitance invariant" `Quick
            test_capacitance_invariant_total;
        ] );
    ]
