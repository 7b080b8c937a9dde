(* Tests for circuit structure, builder, validation, topological
   analysis and the two text formats. *)

module C = Netlist.Circuit
module B = Netlist.Builder
module Io = Netlist.Io

(* A tiny reference circuit: y = !(a.b), z = !y. *)
let nand_inv () =
  let b = B.create ~name:"nand_inv" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let y = B.nand2 b ~name:"y" a bb in
  let z = B.inv b ~name:"z" y in
  B.output b z;
  B.finish b

let test_builder_basic () =
  let c = nand_inv () in
  Alcotest.(check int) "gates" 2 (C.gate_count c);
  Alcotest.(check int) "nets" 4 (C.net_count c);
  Alcotest.(check int) "inputs" 2 (List.length (C.primary_inputs c));
  Alcotest.(check (list int)) "outputs" [ 3 ] (C.primary_outputs c);
  Alcotest.(check string) "net name" "y" (C.net_name c 2)

let test_driver_and_readers () =
  let c = nand_inv () in
  let y = Option.get (C.net_of_name c "y") in
  let a = Option.get (C.net_of_name c "a") in
  Alcotest.(check bool) "a is PI" true (C.driver c a = C.Primary_input);
  Alcotest.(check bool) "y driven by gate 0" true (C.driver c y = C.Driven_by 0);
  Alcotest.(check int) "fanout of y" 1 (C.fanout_count c y);
  Alcotest.(check (list int)) "fanout gates of y" [ 1 ] (C.fanout c y);
  Alcotest.(check bool) "reader of y is gate 1 pin 0" true
    (C.readers c y = [ (1, 0) ])

(* Reconvergent fan-out: s feeds both the nand and (through an
   inverter) the nor; both reconverge on a single output nand-gate
   (a single physical gate, so gate indices stay 1:1 with the sketch).
       s --------> nand2 --\
       s -> inv -> nor2 ----> nand2 -> out *)
let reconvergent () =
  let b = B.create ~name:"reconv" in
  let s = B.input b "s" in
  let t = B.input b "t" in
  let i = B.inv b ~name:"i" s in
  let n1 = B.nand2 b ~name:"n1" s t in
  let n2 = B.nor2 b ~name:"n2" i t in
  let o = B.nand2 b ~name:"o" n1 n2 in
  B.output b o;
  B.finish b

let test_fanout_index () =
  let c = reconvergent () in
  let net n = Option.get (C.net_of_name c n) in
  let gate_of n =
    match C.driver c (net n) with
    | C.Driven_by g -> g
    | C.Primary_input -> Alcotest.fail (n ^ " is a primary input")
  in
  let inv = gate_of "i" and nand = gate_of "n1" in
  Alcotest.(check (list int))
    "s read by inv and nand, deduped ascending"
    (List.sort compare [ inv; nand ])
    (C.fanout c (net "s"));
  Alcotest.(check int) "s drives two pins" 2 (C.fanout_count c (net "s"));
  Alcotest.(check (list int)) "output net unread" [] (C.fanout c (net "o"))

let test_fanout_cone () =
  let c = reconvergent () in
  let net n = Option.get (C.net_of_name c n) in
  let gate_of n =
    match C.driver c (net n) with
    | C.Driven_by g -> g
    | C.Primary_input -> Alcotest.fail (n ^ " is a primary input")
  in
  let marked seeds =
    let cone = C.fanout_cone c (List.map net seeds) in
    List.sort compare
      (Array.to_list
         (Array.of_seq
            (Seq.filter_map
               (fun g -> if cone.(g) then Some g else None)
               (Seq.init (C.gate_count c) Fun.id))))
  in
  (* Editing s dirties everything downstream, through both branches,
     visiting the reconvergent output gate once. *)
  Alcotest.(check (list int))
    "cone of s is all four gates"
    (List.sort compare [ gate_of "i"; gate_of "n1"; gate_of "n2"; gate_of "o" ])
    (marked [ "s" ]);
  (* Editing the inverter output only dirties the nor branch. *)
  Alcotest.(check (list int))
    "cone of i is nor + and"
    (List.sort compare [ gate_of "n2"; gate_of "o" ])
    (marked [ "i" ]);
  (* A union of seeds marks the union of cones. *)
  Alcotest.(check (list int))
    "cone of {n1,n2} is just the output gate"
    [ gate_of "o" ]
    (marked [ "n1"; "n2" ]);
  Alcotest.(check (list int)) "cone of the output is empty" [] (marked [ "o" ]);
  Alcotest.check_raises "unknown net rejected"
    (C.Invalid "fanout_cone: unknown net 99") (fun () ->
      ignore (C.fanout_cone c [ 99 ]))

let test_topological_order () =
  let c = nand_inv () in
  Alcotest.(check (list int)) "nand before inv" [ 0; 1 ] (C.topological_order c)

let test_levels_depth () =
  let c = nand_inv () in
  Alcotest.(check (array int)) "levels" [| 1; 2 |] (C.levels c);
  Alcotest.(check int) "depth" 2 (C.depth c);
  (* Callers get a copy: mutating it leaves the circuit's levels alone. *)
  (C.levels c).(0) <- 7;
  Alcotest.(check (array int)) "levels copied out" [| 1; 2 |] (C.levels c);
  let c2 = C.with_configs c [| 1; 0 |] in
  Alcotest.(check (array int)) "with_configs keeps levels" [| 1; 2 |]
    (C.levels c2);
  Alcotest.(check int) "with_configs keeps depth" 2 (C.depth c2)

let test_transistor_count () =
  let c = nand_inv () in
  Alcotest.(check int) "4 + 2" 6 (C.transistor_count c)

let test_with_configs () =
  let c = nand_inv () in
  let c2 = C.with_configs c [| 1; 0 |] in
  Alcotest.(check int) "nand2 reordered" 1 (C.gate_at c2 0).C.config;
  Alcotest.(check bool) "original untouched" true ((C.gate_at c 0).C.config = 0);
  Alcotest.check_raises "config out of range"
    (C.Invalid "gate 0 (nand2): configuration 7 out of range") (fun () ->
      ignore (C.with_configs c [| 7; 0 |]));
  Alcotest.check_raises "wrong length"
    (C.Invalid "with_configs: 1 entries for 2 gates") (fun () ->
      ignore (C.with_configs c [| 0 |]))

(* The per-net output flag agrees with the output list on every suite
   circuit, and the rewrites that keep the nets carry it over. *)
let test_primary_output_flags () =
  List.iter
    (fun (name, c) ->
      let check what c =
        let mismatches = ref [] in
        for net = C.net_count c - 1 downto 0 do
          if C.is_primary_output c net <> List.mem net (C.primary_outputs c)
          then mismatches := net :: !mismatches
        done;
        Alcotest.(check (list int))
          (Printf.sprintf "%s (%s): flags match the output list" name what)
          [] !mismatches
      in
      check "created" c;
      check "with_name" (C.with_name c "renamed");
      check "with_configs"
        (C.with_configs c
           (Array.map (fun (g : C.gate) -> g.C.config) (C.gates c)));
      check "rename_net" (C.rename_net c 0 "__renamed"))
    (Circuits.Suite.all ())

let test_stats () =
  let c = nand_inv () in
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("inv", 1); ("nand2", 1) ] (C.stats c)

(* --- validation --- *)

let cell n = Cell.Gate.of_name n

let test_rejects_double_driver () =
  Alcotest.check_raises "double driver"
    (C.Invalid "net \"y\" driven by gates 0 and 1") (fun () ->
      ignore
        (C.create ~name:"bad" ~net_names:[| "a"; "y" |] ~primary_inputs:[ 0 ]
           ~primary_outputs:[ 1 ]
           ~gates:
             [
               { C.cell = cell "inv"; config = 0; fanins = [| 0 |]; output = 1 };
               { C.cell = cell "inv"; config = 0; fanins = [| 0 |]; output = 1 };
             ]))

let test_rejects_undriven_net () =
  Alcotest.check_raises "undriven" (C.Invalid "net \"y\" has no driver")
    (fun () ->
      ignore
        (C.create ~name:"bad" ~net_names:[| "a"; "y" |] ~primary_inputs:[ 0 ]
           ~primary_outputs:[ 1 ] ~gates:[]))

let test_rejects_cycle () =
  Alcotest.check_raises "cycle" (C.Invalid "combinational cycle detected")
    (fun () ->
      ignore
        (C.create ~name:"bad" ~net_names:[| "x"; "y" |] ~primary_inputs:[]
           ~primary_outputs:[ 1 ]
           ~gates:
             [
               { C.cell = cell "inv"; config = 0; fanins = [| 1 |]; output = 0 };
               { C.cell = cell "inv"; config = 0; fanins = [| 0 |]; output = 1 };
             ]))

let test_rejects_arity_mismatch () =
  Alcotest.check_raises "arity" (C.Invalid "gate 0 (nand2): 1 fanins, arity 2")
    (fun () ->
      ignore
        (C.create ~name:"bad" ~net_names:[| "a"; "y" |] ~primary_inputs:[ 0 ]
           ~primary_outputs:[ 1 ]
           ~gates:
             [
               { C.cell = cell "nand2"; config = 0; fanins = [| 0 |]; output = 1 };
             ]))

let test_rejects_duplicate_names () =
  Alcotest.check_raises "duplicate names" (C.Invalid "duplicate net name \"a\"")
    (fun () ->
      ignore
        (C.create ~name:"bad" ~net_names:[| "a"; "a" |] ~primary_inputs:[ 0; 1 ]
           ~primary_outputs:[] ~gates:[]))

let test_builder_rejects_arity () =
  let b = B.create ~name:"bad" in
  let a = B.input b "a" in
  Alcotest.(check bool) "builder arity check" true
    (try
       ignore (B.gate b "nand3" [ a ]);
       false
     with Invalid_argument _ -> true)

(* --- cone --- *)

let test_cone_extracts_fanin () =
  (* Two independent halves; the cone of one output drops the other. *)
  let b = B.create ~name:"two" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let x = B.input b "x" in
  let y1 = B.nand2 b ~name:"y1" a bb in
  let y2 = B.inv b ~name:"y2" x in
  B.output b y1;
  B.output b y2;
  let c = B.finish b in
  let cone = C.cone c [ Option.get (C.net_of_name c "y1") ] in
  Alcotest.(check int) "one gate" 1 (C.gate_count cone);
  Alcotest.(check int) "two inputs survive" 2
    (List.length (C.primary_inputs cone));
  Alcotest.(check bool) "x dropped" true (C.net_of_name cone "x" = None);
  Alcotest.(check bool) "names preserved" true (C.net_of_name cone "y1" <> None);
  Alcotest.(check (list int)) "target is the output"
    [ Option.get (C.net_of_name cone "y1") ]
    (C.primary_outputs cone)

let test_cone_preserves_function_and_configs () =
  let c = Circuits.Suite.find "rca4" in
  let c = C.with_configs c (Array.map (fun (g : C.gate) ->
      (Cell.Gate.config_count g.C.cell - 1)) (C.gates c)) in
  let outputs = C.primary_outputs c in
  let target = List.nth outputs (List.length outputs - 1) (* carry-out *) in
  let cone = C.cone c [ target ] in
  (* The carry-out cone of a 4-bit adder keeps every full adder. *)
  Alcotest.(check bool) "smaller than original" true
    (C.gate_count cone < C.gate_count c);
  (* Spot-check: function preserved on random vectors. *)
  let rng = Stoch.Rng.create 4 in
  for _ = 1 to 20 do
    let bits = Hashtbl.create 16 in
    List.iter
      (fun net -> Hashtbl.add bits (C.net_name c net) (Stoch.Rng.bool rng))
      (C.primary_inputs c);
    let env circuit net = Hashtbl.find bits (C.net_name circuit net) in
    let full = Netlist.Eval.nets c ~inputs:(env c) in
    let small = Netlist.Eval.nets cone ~inputs:(env cone) in
    Alcotest.(check bool) "same cout" full.(target)
      small.(Option.get (C.net_of_name cone (C.net_name c target)))
  done;
  (* Configurations carried over. *)
  Array.iter
    (fun (g : C.gate) ->
      Alcotest.(check int) "non-reference config preserved"
        (Cell.Gate.config_count g.C.cell - 1)
        g.C.config)
    (C.gates cone)

let test_cone_validation () =
  let c = Circuits.Suite.find "c17" in
  Alcotest.check_raises "empty targets" (C.Invalid "cone: empty target list")
    (fun () -> ignore (C.cone c []));
  Alcotest.check_raises "unknown net" (C.Invalid "cone: unknown net 999")
    (fun () -> ignore (C.cone c [ 999 ]))

(* --- lint --- *)

let test_lint_clean_circuit () =
  let c = Circuits.Suite.find "c17" in
  Alcotest.(check int) "no warnings" 0 (List.length (Netlist.Lint.check c))

let test_lint_findings () =
  let b = B.create ~name:"smelly" in
  let a = B.input b "a" in
  let unused = B.input b "unused" in
  ignore unused;
  let dangling = B.inv b ~name:"dangling" a in
  ignore dangling;
  let y1 = B.nand2 b a a in
  let y2 = B.nand2 b a a in
  B.output b y1;
  B.output b y2;
  B.output b a;
  let c = B.finish b in
  let warnings = Netlist.Lint.check c in
  let has pred = List.exists pred warnings in
  Alcotest.(check bool) "unused input" true
    (has (function Netlist.Lint.Unused_input _ -> true | _ -> false));
  Alcotest.(check bool) "dangling net" true
    (has (function Netlist.Lint.Dangling_net _ -> true | _ -> false));
  Alcotest.(check bool) "duplicate gates" true
    (has (function Netlist.Lint.Duplicate_gate _ -> true | _ -> false));
  Alcotest.(check bool) "output = input" true
    (has (function Netlist.Lint.Output_is_input _ -> true | _ -> false));
  List.iter
    (fun w ->
      Alcotest.(check bool) "describable" true
        (String.length (Netlist.Lint.describe c w) > 0))
    warnings

let test_lint_high_fanout () =
  let b = B.create ~name:"fan" in
  let a = B.input b "a" in
  let x = B.inv b a in
  for _ = 1 to 9 do
    B.output b (B.inv b x)
  done;
  let c = B.finish b in
  Alcotest.(check bool) "flags fanout 9" true
    (List.exists
       (function Netlist.Lint.High_fanout (_, 9) -> true | _ -> false)
       (Netlist.Lint.check c));
  Alcotest.(check int) "threshold respected" 0
    (List.length
       (List.filter
          (function Netlist.Lint.High_fanout _ -> true | _ -> false)
          (Netlist.Lint.check ~fanout_threshold:9 c)))

(* --- Io native format --- *)

let test_io_roundtrip () =
  let c = nand_inv () in
  let c2 = Io.of_string (Io.to_string c) in
  Alcotest.(check string) "name" (C.name c) (C.name c2);
  Alcotest.(check int) "gates" (C.gate_count c) (C.gate_count c2);
  Alcotest.(check string) "text fixpoint" (Io.to_string c) (Io.to_string c2)

let test_io_forward_reference () =
  (* A gate may use a net that is driven later in the file. *)
  let text =
    "circuit fwd\ninput a\ngate inv z = y\ngate inv y = a\noutput z\n"
  in
  let c = Io.of_string text in
  Alcotest.(check int) "2 gates" 2 (C.gate_count c);
  Alcotest.(check (list int)) "topo order resolves" [ 1; 0 ]
    (C.topological_order c)

let test_io_config_annotation () =
  let text = "circuit k\ninput a b c\ngate nand3 y = a b c [4]\noutput y\n" in
  let c = Io.of_string text in
  Alcotest.(check int) "config parsed" 4 (C.gate_at c 0).C.config

let test_io_comments_and_blanks () =
  let text =
    "# header\ncircuit k\n\ninput a   # trailing\ngate inv y = a\noutput y\n"
  in
  Alcotest.(check int) "parsed" 1 (C.gate_count (Io.of_string text))

let test_io_errors () =
  let expect_error text fragment =
    try
      ignore (Io.of_string text);
      Alcotest.failf "expected parse error (%s)" fragment
    with Io.Parse_error { message; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %s" message fragment)
        true
        (let re = fragment in
         let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         contains message re)
  in
  expect_error "circuit c\ninput a\ngate xor9 y = a\n" "unknown cell";
  expect_error "circuit c\ninput a\ngate inv y a\n" "expected: gate";
  expect_error "circuit c\ninput a\ngate inv y = q\noutput y\n" "undeclared net";
  expect_error "circuit c\nfoo bar\n" "unknown directive";
  expect_error "circuit c\ninput a\ngate inv a = a\n" "declared twice"

(* Hazards the parser must catch itself (with the offending source
   line) rather than leaving them to Circuit.create. *)
let test_io_parse_hazards () =
  let expect_line text expected_line fragment =
    try
      ignore (Io.of_string text);
      Alcotest.failf "expected parse error (%s)" fragment
    with Io.Parse_error { line; message } ->
      Alcotest.(check int)
        (Printf.sprintf "%s reported on line %d" fragment expected_line)
        expected_line line;
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %s" message fragment)
        true
        (let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         contains message fragment)
  in
  (* Duplicate input declaration: the second `input` line is at fault. *)
  expect_line "circuit c\ninput a\ninput a\ngate inv y = a\noutput y\n" 3
    "declared twice";
  (* Gate output clashing with an input: the gate line is at fault. *)
  expect_line "circuit c\ninput a b\ngate inv a = b\noutput a\n" 3
    "declared twice";
  (* Two gates driving the same name. *)
  expect_line "circuit c\ninput a\ngate inv y = a\ngate inv y = a\noutput y\n" 4
    "declared twice";
  (* Fanin-count/arity mismatches are parse errors, not Circuit.Invalid. *)
  expect_line "circuit c\ninput a\ngate nand2 y = a\noutput y\n" 3 "arity";
  expect_line "circuit c\ninput a b c\ngate inv y = a b c\noutput y\n" 3 "arity"

(* The committed malformed netlists (copies of c17, and one cycle): each
   is refused with its message, located at the offending line where a
   line shows the fault. The CLI prints exactly these, one line each. *)
let test_io_malformed_fixtures () =
  let located file line message =
    match Io.load (Filename.concat "malformed" file) with
    | _ -> Alcotest.failf "%s parsed" file
    | exception Io.Parse_error e ->
        Alcotest.(check (pair int string))
          file (line, message) (e.line, e.message)
  in
  located "unknown_cell.net" 9 {|unknown cell "nand9"|};
  located "undeclared_net.net" 10 {|undeclared net "g8"|};
  located "bad_config.net" 11
    "nand2 g22: configuration 7 out of range (nand2 has 2)";
  located "truncated.net" 12 "nand2 g23: 1 fanins, but nand2 has arity 2";
  match Io.load "malformed/cycle.net" with
  | _ -> Alcotest.fail "cycle.net parsed"
  | exception C.Invalid message ->
      Alcotest.(check string) "cycle.net" "combinational cycle detected" message

(* --- Io BLIF subset --- *)

let test_blif_basic () =
  let text =
    ".model test\n.inputs a b\n.outputs z\n.gate nand2 A=a B=b O=y\n.gate inv A=y O=z\n.end\n"
  in
  let c = Io.of_blif text in
  Alcotest.(check string) "model name" "test" (C.name c);
  Alcotest.(check int) "2 gates" 2 (C.gate_count c);
  Alcotest.(check (list (pair string int))) "cells"
    [ ("inv", 1); ("nand2", 1) ] (C.stats c)

let test_blif_continuation () =
  let text =
    ".model t\n.inputs a b \\\nc\n.outputs y\n.gate nand3 A=a B=b C=c O=y\n.end\n"
  in
  let c = Io.of_blif text in
  Alcotest.(check int) "3 inputs across continuation" 3
    (List.length (C.primary_inputs c))

(* Errors after a continuation name their physical line: the unknown
   cell is on line 6, after an [.inputs] that continues onto line 3. *)
let test_blif_continuation_line_numbers () =
  let text =
    ".model t\n.inputs a b \\\nc\n.outputs y\n.gate nand3 A=a B=b C=c O=x\n.gate nand9 A=x O=y\n.end\n"
  in
  match Io.of_blif text with
  | _ -> Alcotest.fail "expected rejection"
  | exception Io.Parse_error { line; message } ->
      Alcotest.(check string) "message" "unknown cell \"nand9\"" message;
      Alcotest.(check int) "physical line" 6 line

let test_blif_rejects_names () =
  try
    ignore (Io.of_blif ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n");
    Alcotest.fail "expected rejection"
  with Io.Parse_error { message; _ } ->
    Alcotest.(check bool) "mentions .names" true
      (String.length message > 0)

let test_blif_rejects_bad_pin () =
  try
    ignore (Io.of_blif ".model t\n.inputs a\n.outputs y\n.gate inv Q=a O=y\n.end\n");
    Alcotest.fail "expected rejection"
  with Io.Parse_error { line; _ } -> Alcotest.(check int) "line 4" 4 line

let test_save_load () =
  let c = nand_inv () in
  let path = Filename.temp_file "treorder" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save c path;
      let c2 = Io.load path in
      Alcotest.(check string) "round-trip via file" (Io.to_string c)
        (Io.to_string c2))

(* --- properties --- *)

(* Random DAG circuits: k primary inputs then n gates with random cells
   whose fanins are drawn from already-defined nets. *)
let random_circuit_gen =
  let open QCheck.Gen in
  int_range 0 1_000_000 >>= fun seed ->
  int_range 1 4 >>= fun n_inputs ->
  int_range 1 25 >>= fun n_gates ->
  return (seed, n_inputs, n_gates)

let build_random (seed, n_inputs, n_gates) =
  let rng = Stoch.Rng.create seed in
  let b = B.create ~name:"random" in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := B.input b (Printf.sprintf "pi%d" i) :: !nets
  done;
  let cells = Array.of_list Cell.Gate.library in
  for _ = 1 to n_gates do
    let cell = cells.(Stoch.Rng.int rng (Array.length cells)) in
    let pool = Array.of_list !nets in
    let fanins =
      List.init (Cell.Gate.arity cell) (fun _ ->
          pool.(Stoch.Rng.int rng (Array.length pool)))
    in
    let config = Stoch.Rng.int rng (Cell.Gate.config_count cell) in
    nets := B.gate b ~config (Cell.Gate.name cell) fanins :: !nets
  done;
  (match !nets with n :: _ -> B.output b n | [] -> ());
  B.finish b

let arbitrary_random_circuit =
  QCheck.make
    ~print:(fun (s, i, g) -> Printf.sprintf "seed=%d inputs=%d gates=%d" s i g)
    random_circuit_gen

let prop_topo_respects_dependencies =
  QCheck.Test.make ~name:"topological order places drivers first" ~count:100
    arbitrary_random_circuit (fun params ->
      let c = build_random params in
      let position = Array.make (C.gate_count c) (-1) in
      List.iteri (fun i g -> position.(g) <- i) (C.topological_order c);
      Array.for_all (fun p -> p >= 0) position
      && Array.to_list (C.gates c)
         |> List.mapi (fun g gate -> (g, gate))
         |> List.for_all (fun (g, (gate : C.gate)) ->
                Array.for_all
                  (fun net ->
                    match C.driver c net with
                    | C.Driven_by d -> position.(d) < position.(g)
                    | C.Primary_input -> true)
                  gate.C.fanins))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"native format round-trips" ~count:100
    arbitrary_random_circuit (fun params ->
      let c = build_random params in
      Io.to_string (Io.of_string (Io.to_string c)) = Io.to_string c)

let prop_levels_bounded =
  QCheck.Test.make ~name:"1 <= level <= depth" ~count:100
    arbitrary_random_circuit (fun params ->
      let c = build_random params in
      let lv = C.levels c in
      Array.for_all (fun l -> l >= 1 && l <= C.depth c) lv)


(* Fuzzing: mutated netlist text must never crash the parser — only
   Parse_error or Circuit.Invalid are acceptable outcomes. *)
let prop_parser_robust =
  let base =
    "circuit fuzz\ninput a b c\ngate nand2 t = a b\ngate aoi21 y = t b c [3]\noutput y\n"
  in
  QCheck.Test.make ~name:"parser never crashes on mutated input" ~count:300
    QCheck.(pair (int_range 0 (String.length base - 1)) (int_range 0 255))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos (Char.chr byte);
      match Io.of_string (Bytes.to_string mutated) with
      | _ -> true
      | exception Io.Parse_error _ -> true
      | exception C.Invalid _ -> true)

let prop_blif_robust =
  let base =
    ".model t\n.inputs a b\n.outputs z\n.gate nand2 A=a B=b O=y\n.gate inv A=y O=z\n.end\n"
  in
  QCheck.Test.make ~name:"blif parser never crashes on mutated input" ~count:300
    QCheck.(pair (int_range 0 (String.length base - 1)) (int_range 0 255))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos (Char.chr byte);
      match Io.of_blif (Bytes.to_string mutated) with
      | _ -> true
      | exception Io.Parse_error _ -> true
      | exception C.Invalid _ -> true)

let () =
  Alcotest.run "netlist"
    [
      ( "circuit",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "driver and readers" `Quick test_driver_and_readers;
          Alcotest.test_case "fanout index" `Quick test_fanout_index;
          Alcotest.test_case "fanout cone" `Quick test_fanout_cone;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "levels and depth" `Quick test_levels_depth;
          Alcotest.test_case "transistor count" `Quick test_transistor_count;
          Alcotest.test_case "with_configs" `Quick test_with_configs;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "primary-output flags" `Quick
            test_primary_output_flags;
        ] );
      ( "validation",
        [
          Alcotest.test_case "double driver" `Quick test_rejects_double_driver;
          Alcotest.test_case "undriven net" `Quick test_rejects_undriven_net;
          Alcotest.test_case "cycle" `Quick test_rejects_cycle;
          Alcotest.test_case "arity mismatch" `Quick test_rejects_arity_mismatch;
          Alcotest.test_case "duplicate names" `Quick test_rejects_duplicate_names;
          Alcotest.test_case "builder arity" `Quick test_builder_rejects_arity;
        ] );
      ( "cone",
        [
          Alcotest.test_case "extracts fanin" `Quick test_cone_extracts_fanin;
          Alcotest.test_case "preserves function and configs" `Quick
            test_cone_preserves_function_and_configs;
          Alcotest.test_case "validation" `Quick test_cone_validation;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean circuit" `Quick test_lint_clean_circuit;
          Alcotest.test_case "findings" `Quick test_lint_findings;
          Alcotest.test_case "high fanout" `Quick test_lint_high_fanout;
        ] );
      ( "io",
        [
          Alcotest.test_case "round-trip" `Quick test_io_roundtrip;
          Alcotest.test_case "forward reference" `Quick test_io_forward_reference;
          Alcotest.test_case "config annotation" `Quick test_io_config_annotation;
          Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "parse hazards with line numbers" `Quick
            test_io_parse_hazards;
          Alcotest.test_case "malformed fixtures" `Quick
            test_io_malformed_fixtures;
          Alcotest.test_case "blif basic" `Quick test_blif_basic;
          Alcotest.test_case "blif continuation" `Quick test_blif_continuation;
          Alcotest.test_case "blif continuation line numbers" `Quick
            test_blif_continuation_line_numbers;
          Alcotest.test_case "blif rejects .names" `Quick test_blif_rejects_names;
          Alcotest.test_case "blif rejects bad pin" `Quick
            test_blif_rejects_bad_pin;
          Alcotest.test_case "save/load" `Quick test_save_load;
        ] );
      ( "properties",
        [
          Property.to_alcotest prop_topo_respects_dependencies;
          Property.to_alcotest prop_parser_robust;
          Property.to_alcotest prop_blif_robust;
          Property.to_alcotest prop_io_roundtrip;
          Property.to_alcotest prop_levels_bounded;
        ] );
    ]
