(* Functional correctness of the benchmark suite: the arithmetic blocks
   really add/multiply, selectors select, etc. Verified by exhaustive or
   sampled evaluation via Netlist.Eval. *)

module C = Netlist.Circuit
module G = Circuits.Generators

(* Drive a circuit with a bit assignment given per input name. *)
let eval_named circuit assignments =
  let inputs net = List.assoc (C.net_name circuit net) assignments in
  Netlist.Eval.outputs circuit ~inputs

let bits_of_int width v = List.init width (fun i -> v land (1 lsl i) <> 0)

let int_of_bits bits =
  List.fold_left (fun (acc, i) b -> ((acc lor if b then 1 lsl i else 0), i + 1))
    (0, 0) bits
  |> fst

let bus_assignment prefix width v =
  List.mapi (fun i b -> (Printf.sprintf "%s%d" prefix i, b)) (bits_of_int width v)

let test_rca_adds () =
  let n = 4 in
  let c = G.ripple_carry_adder n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for cin = 0 to 1 do
        let assignments =
          bus_assignment "a" n a @ bus_assignment "b" n b
          @ [ ("cin", cin = 1) ]
        in
        let result = int_of_bits (eval_named c assignments) in
        Alcotest.(check int)
          (Printf.sprintf "%d+%d+%d" a b cin)
          (a + b + cin) result
      done
    done
  done

let test_carry_select_adds () =
  let c = G.carry_select_adder 3 (* 6-bit *) in
  let cases = [ (0, 0, 0); (63, 63, 1); (21, 42, 0); (37, 57, 1); (8, 56, 0) ] in
  List.iter
    (fun (a, b, cin) ->
      let assignments =
        bus_assignment "a" 6 a @ bus_assignment "b" 6 b @ [ ("cin", cin = 1) ]
      in
      Alcotest.(check int)
        (Printf.sprintf "%d+%d+%d" a b cin)
        (a + b + cin)
        (int_of_bits (eval_named c assignments)))
    cases

let test_incrementer () =
  let n = 5 in
  let c = G.incrementer n in
  for v = 0 to 31 do
    let result = int_of_bits (eval_named c (bus_assignment "x" n v)) in
    Alcotest.(check int) (Printf.sprintf "%d+1" v) (v + 1) result
  done

let test_multiplier () =
  let n = 4 in
  let c = G.array_multiplier n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let assignments = bus_assignment "a" n a @ bus_assignment "b" n b in
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" a b)
        (a * b)
        (int_of_bits (eval_named c assignments))
    done
  done

let test_parity () =
  let n = 9 in
  let c = G.parity n in
  List.iter
    (fun v ->
      let expected = List.fold_left ( <> ) false (bits_of_int n v) in
      match eval_named c (bus_assignment "x" n v) with
      | [ y ] -> Alcotest.(check bool) (Printf.sprintf "parity %d" v) expected y
      | _ -> Alcotest.fail "one output expected")
    [ 0; 1; 5; 511; 256; 341; 170 ]

let test_mux_tree () =
  let n = 8 in
  let c = G.mux_tree n in
  for sel = 0 to n - 1 do
    for data = 0 to 255 do
      if data land 0b10010110 = data (* sample a few patterns *) then begin
        let assignments =
          bus_assignment "d" n data @ bus_assignment "s" 3 sel
        in
        match eval_named c assignments with
        | [ y ] ->
            Alcotest.(check bool)
              (Printf.sprintf "mux d=%d s=%d" data sel)
              (data land (1 lsl sel) <> 0)
              y
        | _ -> Alcotest.fail "one output expected"
      end
    done
  done

let test_decoder () =
  let k = 3 in
  let c = G.decoder k in
  for v = 0 to 7 do
    let outs = eval_named c (bus_assignment "x" k v) in
    List.iteri
      (fun i y ->
        Alcotest.(check bool) (Printf.sprintf "dec %d line %d" v i) (i = v) y)
      outs
  done

let test_equality_comparator () =
  let n = 4 in
  let c = G.equality_comparator n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      match eval_named c (bus_assignment "a" n a @ bus_assignment "b" n b) with
      | [ y ] ->
          Alcotest.(check bool) (Printf.sprintf "%d=%d" a b) (a = b) y
      | _ -> Alcotest.fail "one output expected"
    done
  done

let test_magnitude_comparator () =
  let n = 4 in
  let c = G.magnitude_comparator n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      match eval_named c (bus_assignment "a" n a @ bus_assignment "b" n b) with
      | [ y ] ->
          Alcotest.(check bool) (Printf.sprintf "%d>%d" a b) (a > b) y
      | _ -> Alcotest.fail "one output expected"
    done
  done

let popcount v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

let test_majority () =
  List.iter
    (fun n ->
      let c = G.majority n in
      for v = 0 to (1 lsl n) - 1 do
        match eval_named c (bus_assignment "x" n v) with
        | [ y ] ->
            Alcotest.(check bool)
              (Printf.sprintf "maj%d %d" n v)
              (popcount v > n / 2)
              y
        | _ -> Alcotest.fail "one output expected"
      done)
    [ 3; 5 ]

let test_priority_encoder () =
  let n = 8 in
  let c = G.priority_encoder n in
  for v = 0 to 255 do
    let highest =
      let rec go i = if i < 0 then -1 else if v land (1 lsl i) <> 0 then i else go (i - 1) in
      go (n - 1)
    in
    let outs = eval_named c (bus_assignment "x" n v) in
    List.iteri
      (fun i y ->
        Alcotest.(check bool) (Printf.sprintf "prio %d line %d" v i) (i = highest) y)
      outs
  done

let test_alu () =
  let n = 2 in
  let c = G.alu_slice n in
  let mask = (1 lsl n) - 1 in
  for a = 0 to mask do
    for b = 0 to mask do
      for op = 0 to 3 do
        for cin = 0 to 1 do
          let expected =
            match op with
            | 0 -> a land b
            | 1 -> a lor b
            | 2 -> a lxor b
            | _ -> (a + b + cin) land mask
          in
          let expected_carry_bits =
            if op = 3 then (a + b + cin) lsr n else -1
          in
          let assignments =
            bus_assignment "a" n a @ bus_assignment "b" n b
            @ [
                ("cin", cin = 1);
                ("s0", op land 1 = 1);
                ("s1", op land 2 <> 0);
              ]
          in
          match eval_named c assignments with
          | outs when List.length outs = n + 1 ->
              let value_bits = List.filteri (fun i _ -> i < n) outs in
              Alcotest.(check int)
                (Printf.sprintf "alu op=%d a=%d b=%d cin=%d" op a b cin)
                expected
                (int_of_bits value_bits);
              if op = 3 then
                Alcotest.(check int) "alu carry" expected_carry_bits
                  (if List.nth outs n then 1 else 0)
          | _ -> Alcotest.fail "n+1 outputs expected"
        done
      done
    done
  done

let test_kogge_stone_adds () =
  let n = 4 in
  let c = G.kogge_stone_adder n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for cin = 0 to 1 do
        let assignments =
          bus_assignment "a" n a @ bus_assignment "b" n b
          @ [ ("cin", cin = 1) ]
        in
        Alcotest.(check int)
          (Printf.sprintf "ks %d+%d+%d" a b cin)
          (a + b + cin)
          (int_of_bits (eval_named c assignments))
      done
    done
  done

let test_wallace_multiplies () =
  let n = 4 in
  let c = G.wallace_multiplier n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let assignments = bus_assignment "a" n a @ bus_assignment "b" n b in
      Alcotest.(check int)
        (Printf.sprintf "wal %d*%d" a b)
        (a * b)
        (int_of_bits (eval_named c assignments))
    done
  done

let test_carry_lookahead_adds () =
  let n = 4 in
  let c = G.carry_lookahead_adder n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for cin = 0 to 1 do
        let assignments =
          bus_assignment "a" n a @ bus_assignment "b" n b
          @ [ ("cin", cin = 1) ]
        in
        Alcotest.(check int)
          (Printf.sprintf "cla %d+%d+%d" a b cin)
          (a + b + cin)
          (int_of_bits (eval_named c assignments))
      done
    done
  done

let test_gray_to_binary () =
  let n = 6 in
  let c = G.gray_to_binary n in
  for v = 0 to 63 do
    let gray = v lxor (v lsr 1) in
    Alcotest.(check int)
      (Printf.sprintf "gray(%d)" v)
      v
      (int_of_bits (eval_named c (bus_assignment "g" n gray)))
  done

let test_bcd_to_7seg () =
  let c = G.bcd_to_7seg () in
  let digit_segments =
    [|
      "abcdef"; "bc"; "abdeg"; "abcdg"; "bcfg"; "acdfg"; "acdefg"; "abc";
      "abcdefg"; "abcdfg"; "abcefg"; "cdefg"; "adef"; "bcdeg"; "adefg"; "aefg";
    |]
  in
  for digit = 0 to 15 do
    let outs = eval_named c (bus_assignment "x" 4 digit) in
    List.iteri
      (fun i lit ->
        let seg = Char.chr (Char.code 'a' + i) in
        Alcotest.(check bool)
          (Printf.sprintf "digit %d segment %c" digit seg)
          (String.contains digit_segments.(digit) seg)
          lit)
      outs
  done

let test_c17_function () =
  (* c17: o22 = nand(g10,g16), o23 = nand(g16,g19) with
     g10=nand(1,3), g11=nand(3,6), g16=nand(2,g11), g19=nand(g11,7). *)
  let c = G.c17 () in
  for v = 0 to 31 do
    let bit i = v land (1 lsl i) <> 0 in
    let g1 = bit 0 and g2 = bit 1 and g3 = bit 2 and g6 = bit 3 and g7 = bit 4 in
    let nand x y = not (x && y) in
    let n10 = nand g1 g3 and n11 = nand g3 g6 in
    let n16 = nand g2 n11 in
    let n19 = nand n11 g7 in
    let assignments =
      [ ("g1", g1); ("g2", g2); ("g3", g3); ("g6", g6); ("g7", g7) ]
    in
    match eval_named c assignments with
    | [ o22; o23 ] ->
        Alcotest.(check bool) "o22" (nand n10 n16) o22;
        Alcotest.(check bool) "o23" (nand n16 n19) o23
    | _ -> Alcotest.fail "two outputs expected"
  done

let test_suite_registry () =
  let all = Circuits.Suite.all () in
  Alcotest.(check bool) "at least 50 benchmarks" true (List.length all >= 50);
  let names = Circuits.Suite.names () in
  Alcotest.(check int) "names match" (List.length all) (List.length names);
  (* Unique names, find round-trips, registry name = circuit name. *)
  Alcotest.(check int) "unique names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, c) ->
      Alcotest.(check string) "circuit is named" name (C.name c);
      let found = Circuits.Suite.find name in
      Alcotest.(check int) "find agrees" (C.gate_count c) (C.gate_count found))
    all

let test_suite_deterministic () =
  let a = Circuits.Suite.find "rnd_c" in
  let b = Circuits.Suite.find "rnd_c" in
  Alcotest.(check string) "same netlist text" (Netlist.Io.to_string a)
    (Netlist.Io.to_string b)

let test_suite_small_subset () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) name true (C.gate_count c < 100))
    (Circuits.Suite.small ())

let test_suite_find_unknown () =
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Circuits.Suite.find "nonexistent");
       false
     with Not_found -> true)

let test_generators_validate () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rca0" true (rejects (fun () -> G.ripple_carry_adder 0));
  Alcotest.(check bool) "mult1" true (rejects (fun () -> G.array_multiplier 1));
  Alcotest.(check bool) "mux3" true (rejects (fun () -> G.mux_tree 3));
  Alcotest.(check bool) "dec5" true (rejects (fun () -> G.decoder 5));
  Alcotest.(check bool) "maj4" true (rejects (fun () -> G.majority 4))

(* Every generator, across its legal size range: the circuit builds
   (Circuit.create validates), evaluates without raising, and
   round-trips through the Io text format to the same rendering. *)
let sized_generators =
  [
    ("ripple_carry_adder", G.ripple_carry_adder, [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    ("carry_select_adder", G.carry_select_adder, [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    ("incrementer", G.incrementer, [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    ("array_multiplier", G.array_multiplier, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("parity", G.parity, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("mux_tree", G.mux_tree, [ 2; 4; 8 ]);
    ("decoder", G.decoder, [ 2; 3; 4 ]);
    ("equality_comparator", G.equality_comparator, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("magnitude_comparator", G.magnitude_comparator, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("majority", G.majority, [ 3; 5 ]);
    ("priority_encoder", G.priority_encoder, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("and_or_tree", G.and_or_tree, [ 4; 5; 6; 7; 8 ]);
    ("alu_slice", G.alu_slice, [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    ("kogge_stone_adder", G.kogge_stone_adder, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("wallace_multiplier", G.wallace_multiplier, [ 2; 3; 4; 5; 6; 7; 8 ]);
    (* lookahead terms grow quadratically; keep the range modest *)
    ("carry_lookahead_adder", G.carry_lookahead_adder, [ 2; 3; 4 ]);
    ("gray_to_binary", G.gray_to_binary, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ("c17", (fun _ -> G.c17 ()), [ 1 ]);
    ("bcd_to_7seg", (fun _ -> G.bcd_to_7seg ()), [ 1 ]);
  ]

let test_generators_build_eval_roundtrip () =
  List.iter
    (fun (name, gen, sizes) ->
      List.iter
        (fun n ->
          let label = Printf.sprintf "%s %d" name n in
          let c = gen n in
          Alcotest.(check bool)
            (label ^ ": at least one gate and one output")
            true
            (C.gate_count c >= 1 && C.primary_outputs c <> []);
          (* evaluates without raising, on an alternating bit pattern *)
          let outs = Netlist.Eval.outputs c ~inputs:(fun net -> net mod 2 = 0) in
          Alcotest.(check int)
            (label ^ ": one value per primary output")
            (List.length (C.primary_outputs c))
            (List.length outs);
          let text = Netlist.Io.to_string c in
          let c2 = Netlist.Io.of_string text in
          Alcotest.(check string)
            (label ^ ": Io round-trip fixpoint")
            text (Netlist.Io.to_string c2);
          Alcotest.(check int)
            (label ^ ": gate count preserved")
            (C.gate_count c) (C.gate_count c2))
        sizes)
    sized_generators

(* Property: random_logic always yields valid circuits with at least one
   primary output, for arbitrary parameters. *)
let prop_random_logic_valid =
  QCheck.Test.make ~name:"random_logic builds valid circuits" ~count:50
    QCheck.(triple (int_range 0 100000) (int_range 1 12) (int_range 1 120))
    (fun (seed, inputs, gates) ->
      let c = G.random_logic ~seed ~inputs ~gates in
      C.gate_count c = gates && List.length (C.primary_outputs c) >= 1)

let () =
  Alcotest.run "circuits"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "ripple-carry adds (exhaustive)" `Slow test_rca_adds;
          Alcotest.test_case "carry-select adds" `Quick test_carry_select_adds;
          Alcotest.test_case "incrementer" `Quick test_incrementer;
          Alcotest.test_case "multiplier (exhaustive 4x4)" `Slow test_multiplier;
          Alcotest.test_case "kogge-stone adds (exhaustive)" `Slow
            test_kogge_stone_adds;
          Alcotest.test_case "wallace multiplies (exhaustive)" `Slow
            test_wallace_multiplies;
          Alcotest.test_case "carry-lookahead adds (exhaustive)" `Slow
            test_carry_lookahead_adds;
          Alcotest.test_case "alu slice" `Slow test_alu;
        ] );
      ( "logic",
        [
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "mux tree" `Quick test_mux_tree;
          Alcotest.test_case "decoder" `Quick test_decoder;
          Alcotest.test_case "equality comparator" `Quick
            test_equality_comparator;
          Alcotest.test_case "magnitude comparator" `Quick
            test_magnitude_comparator;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "priority encoder" `Quick test_priority_encoder;
          Alcotest.test_case "c17" `Quick test_c17_function;
          Alcotest.test_case "gray decoder" `Quick test_gray_to_binary;
          Alcotest.test_case "bcd to 7-segment" `Quick test_bcd_to_7seg;
        ] );
      ( "suite",
        [
          Alcotest.test_case "registry" `Quick test_suite_registry;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "small subset" `Quick test_suite_small_subset;
          Alcotest.test_case "find unknown" `Quick test_suite_find_unknown;
          Alcotest.test_case "generator validation" `Quick
            test_generators_validate;
          Alcotest.test_case "all generators build/eval/round-trip (sizes 1-8)"
            `Quick test_generators_build_eval_roundtrip;
          Property.to_alcotest prop_random_logic_valid;
        ] );
    ]
