(* Tests for the logic front end: expression algebra, equation parsing,
   and functional correctness + structural quality of the technology
   mapper. *)

module E = Logic.Expr
module Q = Logic.Eqn
module M = Logic.Mapper
module C = Netlist.Circuit

let v = E.var

let expr = Alcotest.testable E.pp E.equal

(* --- Expr --- *)

let test_smart_constructors () =
  Alcotest.check expr "and flattens"
    (E.and_ [ v "a"; v "b"; v "c" ])
    (E.and_ [ E.and_ [ v "a"; v "b" ]; v "c" ]);
  Alcotest.check expr "or drops false"
    (E.or_ [ v "a"; v "b" ])
    (E.or_ [ v "a"; E.const false; v "b" ]);
  Alcotest.check expr "and absorbs false" (E.const false)
    (E.and_ [ v "a"; E.const false ]);
  Alcotest.check expr "duplicates collapse" (v "a") (E.and_ [ v "a"; v "a" ]);
  Alcotest.check expr "complement annihilates" (E.const false)
    (E.and_ [ v "a"; E.not_ (v "a") ]);
  Alcotest.check expr "double negation" (v "a") (E.not_ (E.not_ (v "a")));
  Alcotest.check expr "xor self" (E.const false) (E.xor (v "a") (v "a"));
  Alcotest.check expr "xor with 1" (E.not_ (v "a")) (E.xor (v "a") (E.const true));
  Alcotest.check expr "commutative canonical"
    (E.and_ [ v "a"; v "b" ])
    (E.and_ [ v "b"; v "a" ])

let test_variables () =
  let e = E.or_ [ E.and_ [ v "b"; v "a" ]; E.xor (v "c") (v "a") ] in
  Alcotest.(check (list string)) "sorted distinct" [ "a"; "b"; "c" ]
    (E.variables e)

let test_eval () =
  let e = E.or_ [ E.and_ [ v "a"; v "b" ]; E.not_ (v "c") ] in
  let env values name = List.assoc name values in
  Alcotest.(check bool) "11 1" true
    (E.eval (env [ ("a", true); ("b", true); ("c", true) ]) e);
  Alcotest.(check bool) "00 1" true
    (E.eval (env [ ("a", false); ("b", false); ("c", false) ]) e);
  Alcotest.(check bool) "01 1" false
    (E.eval (env [ ("a", false); ("b", true); ("c", true) ]) e)

(* random expressions over 4 variables *)
let names = [| "a"; "b"; "c"; "d" |]

let expr_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> v names.(i)) (int_bound 3);
               map E.const bool;
             ]
         else
           frequency
             [
               (3, map (fun i -> v names.(i)) (int_bound 3));
               (2, map E.not_ (self (n - 1)));
               ( 3,
                 int_range 2 4 >>= fun k ->
                 map E.and_ (list_repeat k (self (n / k))) );
               ( 3,
                 int_range 2 4 >>= fun k ->
                 map E.or_ (list_repeat k (self (n / k))) );
               (2, map2 E.xor (self (n / 2)) (self (n / 2)));
             ])

let arbitrary_expr = QCheck.make ~print:E.to_string expr_gen

let all_envs =
  List.init 16 (fun bits name ->
      let idx = ref 0 in
      Array.iteri (fun i n -> if n = name then idx := i) names;
      bits land (1 lsl !idx) <> 0)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"to_string/parse round-trip" ~count:300 arbitrary_expr
    (fun e ->
      let text = "y = " ^ E.to_string e ^ "\noutput y\n" in
      let parsed = Q.of_string text in
      match parsed.Q.equations with
      | [ ("y", e') ] -> List.for_all (fun env -> E.eval env e = E.eval env e') all_envs
      | _ -> false)

let prop_constructors_preserve_semantics =
  QCheck.Test.make ~name:"smart constructors preserve the function" ~count:300
    arbitrary_expr (fun e ->
      (* Rebuild through the constructors and compare truth tables. *)
      let rec rebuild = function
        | E.Var n -> v n
        | E.Const b -> E.const b
        | E.Not x -> E.not_ (rebuild x)
        | E.And xs -> E.and_ (List.map rebuild xs)
        | E.Or xs -> E.or_ (List.map rebuild xs)
        | E.Xor (a, b) -> E.xor (rebuild a) (rebuild b)
      in
      let e' = rebuild e in
      List.for_all (fun env -> E.eval env e = E.eval env e') all_envs)

(* --- Eqn --- *)

let test_eqn_full_adder () =
  let text =
    "# full adder\n\
     input a b cin\n\
     sum  = a ^ b ^ cin\n\
     cout = (a & b) | (cin & (a ^ b))\n\
     output sum cout\n"
  in
  let q = Q.of_string text in
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "cin" ] q.Q.inputs;
  Alcotest.(check (list string)) "outputs" [ "sum"; "cout" ] q.Q.outputs;
  Alcotest.(check int) "two equations" 2 (List.length q.Q.equations)

let test_eqn_inferred_inputs_and_outputs () =
  let q = Q.of_string "t = a & b\ny = t | c\n" in
  Alcotest.(check (list string)) "inferred inputs" [ "a"; "b"; "c" ] q.Q.inputs;
  (* t is consumed by y, so only y defaults to an output. *)
  Alcotest.(check (list string)) "default outputs" [ "y" ] q.Q.outputs

let test_eqn_precedence () =
  let q = Q.of_string "y = a | b & c ^ d\noutput y\n" in
  match q.Q.equations with
  | [ (_, e) ] ->
      Alcotest.check expr "| < ^ < &"
        (E.or_ [ v "a"; E.xor (E.and_ [ v "b"; v "c" ]) (v "d") ])
        e
  | _ -> Alcotest.fail "one equation expected"

let test_eqn_errors () =
  let fails ?(frag = "") text =
    try
      ignore (Q.of_string text);
      Alcotest.failf "expected parse error for %S" text
    with Q.Parse_error { message; _ } ->
      if frag <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" message frag)
          true
          (let n = String.length message and m = String.length frag in
           let rec go i = i + m <= n && (String.sub message i m = frag || go (i + 1)) in
           go 0)
  in
  fails ~frag:"defined twice" "y = a\ny = b\noutput y\n";
  fails ~frag:"used before" "y = t\nt = a\noutput y t\n";
  fails ~frag:"undefined name" "input a\ny = q\noutput y\n";
  fails ~frag:"unexpected character" "y = a $ b\n";
  fails ~frag:"closing parenthesis" "y = (a & b\n";
  fails ~frag:"trailing" "y = a b\n";
  fails ~frag:"operand" "y = a &\n";
  fails ~frag:"never defined" "y = a\noutput z\n";
  fails ~frag:"declared as an input" "input a\na = a\noutput a\n"

let test_eqn_roundtrip () =
  let text = "input a b c\nt = a & b\ny = t ^ ~c\noutput y\n" in
  let q = Q.of_string text in
  let q2 = Q.of_string (Q.to_string q) in
  Alcotest.(check (list string)) "inputs" q.Q.inputs q2.Q.inputs;
  Alcotest.(check int) "equations" (List.length q.Q.equations)
    (List.length q2.Q.equations)

(* --- Mapper --- *)

let map_text text = M.map (Q.of_string text)

let check_equivalent text =
  let q = Q.of_string text in
  let circuit = M.map q in
  (* Compare output functions symbolically against the expressions with
     intermediate names substituted. *)
  let m = Bdd.manager () in
  let var_index name =
    let rec go i = function
      | [] -> Alcotest.failf "input %s missing" name
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 q.Q.inputs
  in
  let resolved = Hashtbl.create 8 in
  List.iter
    (fun (lhs, rhs) ->
      let rec subst e =
        match (e : E.t) with
        | E.Var x -> (
            match Hashtbl.find_opt resolved x with Some r -> r | None -> e)
        | E.Const _ -> e
        | E.Not x -> E.not_ (subst x)
        | E.And xs -> E.and_ (List.map subst xs)
        | E.Or xs -> E.or_ (List.map subst xs)
        | E.Xor (a, b) -> E.xor (subst a) (subst b)
      in
      Hashtbl.replace resolved lhs (subst rhs))
    q.Q.equations;
  let bdds = Netlist.Eval.output_bdds m circuit in
  List.iteri
    (fun i out ->
      let expected =
        E.to_bdd m ~var_index (Hashtbl.find resolved out)
      in
      let _, actual = List.nth bdds i in
      Alcotest.(check bool)
        (Printf.sprintf "output %s equivalent" out)
        true (Bdd.equal expected actual))
    q.Q.outputs;
  circuit

let test_map_simple_forms () =
  ignore (check_equivalent "y = a & b\noutput y\n");
  ignore (check_equivalent "y = ~(a | b | c)\noutput y\n");
  ignore (check_equivalent "y = a ^ b\noutput y\n");
  ignore (check_equivalent "y = ~a & ~b\noutput y\n");
  ignore (check_equivalent "y = a & b & c & d & e & f\noutput y\n")

let test_map_full_adder () =
  let c =
    check_equivalent
      "input a b cin\nsum = a ^ b ^ cin\ncout = (a & b) | (cin & (a ^ b))\noutput sum cout\n"
  in
  Alcotest.(check bool) "named nets survive" true
    (C.net_of_name c "sum" <> None && C.net_of_name c "cout" <> None)

let test_map_aoi_match () =
  (* ~((a&b) | c) is exactly one aoi21. *)
  let c = map_text "y = ~((a & b) | c)\noutput y\n" in
  Alcotest.(check (list (pair string int))) "single complex gate"
    [ ("aoi21", 1) ] (C.stats c);
  (* The positive polarity costs one more inverter. *)
  let c2 = map_text "y = (a & b) | c\noutput y\n" in
  Alcotest.(check (list (pair string int))) "aoi21 + inv"
    [ ("aoi21", 1); ("inv", 1) ] (C.stats c2);
  ignore (check_equivalent "y = ~((a & b) | c)\noutput y\n");
  ignore (check_equivalent "y = (a & b) | (c & d) | e\noutput y\n")

let test_map_oai_match () =
  let c = map_text "y = ~((a | b) & c)\noutput y\n" in
  Alcotest.(check (list (pair string int))) "single oai21" [ ("oai21", 1) ]
    (C.stats c);
  ignore (check_equivalent "y = ~((a | b) & (c | d) & e)\noutput y\n")

let test_map_demorgan_avoids_inverters () =
  (* ~a & ~b = nor2(a,b): no inverters at all. *)
  let c = map_text "y = ~a & ~b\noutput y\n" in
  Alcotest.(check (list (pair string int))) "single nor" [ ("nor2", 1) ]
    (C.stats c)

let test_map_shares_subexpressions () =
  (* a^b is used twice but built once: a full adder has 8 xor-nands
     shared, not 12. *)
  let c =
    map_text
      "input a b cin\nsum = (a ^ b) ^ cin\ncout = (a & b) | (cin & (a ^ b))\noutput sum cout\n"
  in
  let nand2 = try List.assoc "nand2" (C.stats c) with Not_found -> 0 in
  Alcotest.(check bool)
    (Printf.sprintf "xor pair shared (%d nand2)" nand2)
    true (nand2 <= 9)

let test_map_shares_inverters () =
  (* Both equations need the positive literal ~a; the inverter realizing
     it must be built once. The output polarities need no inverter (the
     final NANDs are absorbed by the outer negations). *)
  let c = map_text "y = ~(~a & b)\nz = ~(~a & c)\noutput y z\n" in
  Alcotest.(check (list (pair string int))) "one shared inverter"
    [ ("inv", 1); ("nand2", 2) ]
    (C.stats c)

let test_map_output_is_input () =
  let c = map_text "input a b\ny = a\nz = a & b\noutput y z\n" in
  Alcotest.(check bool) "input net is the output" true
    (List.mem
       (Option.get (C.net_of_name c "a"))
       (C.primary_outputs c))

let test_map_constant_rejected () =
  Alcotest.(check bool) "constant output rejected" true
    (try
       ignore (map_text "y = a & ~a\noutput y\n");
       false
     with M.Unmappable _ -> true)

let prop_mapper_equivalence =
  QCheck.Test.make ~name:"mapped circuit computes the expression" ~count:200
    arbitrary_expr (fun e ->
      match e with
      | E.Const _ -> true (* no tie cells: skip *)
      | _ ->
          let inputs = Array.to_list names in
          let circuit =
            M.map_bindings ~name:"prop" ~inputs
              ~equations:[ ("y", e) ]
              ~outputs:[ "y" ]
          in
          List.for_all
            (fun env ->
              let inputs_fn net = env (C.net_name circuit net) in
              match Netlist.Eval.outputs circuit ~inputs:inputs_fn with
              | [ y ] -> y = E.eval env e
              | _ -> false)
            all_envs)

let prop_mapper_reorderable =
  QCheck.Test.make ~name:"mapped circuits optimize cleanly" ~count:30
    arbitrary_expr (fun e ->
      match e with
      | E.Const _ -> true
      | _ ->
          let circuit =
            M.map_bindings ~name:"prop" ~inputs:(Array.to_list names)
              ~equations:[ ("y", e) ]
              ~outputs:[ "y" ]
          in
          let pt = Power.Model.table Cell.Process.default in
          let dt = Delay.Elmore.table Cell.Process.default in
          let inputs _ = Stoch.Signal_stats.make ~prob:0.4 ~density:1e5 in
          let r = Reorder.Optimizer.optimize pt ~delay:dt circuit ~inputs in
          r.Reorder.Optimizer.power_after
          <= r.Reorder.Optimizer.power_before +. 1e-18)


(* Fuzzing: mutated equation text must never crash the front end. *)
let prop_eqn_robust =
  let base = "input a b cin\nsum = a ^ b ^ cin\ncout = (a & b) | (cin & (a ^ b))\noutput sum cout\n" in
  QCheck.Test.make ~name:"eqn parser never crashes on mutated input" ~count:300
    QCheck.(pair (int_range 0 (String.length base - 1)) (int_range 0 255))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos (Char.chr byte);
      match Q.of_string (Bytes.to_string mutated) with
      | _ -> true
      | exception Q.Parse_error _ -> true)

let () =
  Alcotest.run "logic"
    [
      ( "expr",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "eval" `Quick test_eval;
          Property.to_alcotest prop_parse_print_roundtrip;
          Property.to_alcotest prop_constructors_preserve_semantics;
        ] );
      ( "eqn",
        [
          Alcotest.test_case "full adder" `Quick test_eqn_full_adder;
          Alcotest.test_case "inferred inputs/outputs" `Quick
            test_eqn_inferred_inputs_and_outputs;
          Alcotest.test_case "precedence" `Quick test_eqn_precedence;
          Alcotest.test_case "errors" `Quick test_eqn_errors;
          Alcotest.test_case "round-trip" `Quick test_eqn_roundtrip;
          Property.to_alcotest prop_eqn_robust;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "simple forms" `Quick test_map_simple_forms;
          Alcotest.test_case "full adder" `Quick test_map_full_adder;
          Alcotest.test_case "aoi match" `Quick test_map_aoi_match;
          Alcotest.test_case "oai match" `Quick test_map_oai_match;
          Alcotest.test_case "De Morgan polarity" `Quick
            test_map_demorgan_avoids_inverters;
          Alcotest.test_case "subexpression sharing" `Quick
            test_map_shares_subexpressions;
          Alcotest.test_case "inverter sharing" `Quick test_map_shares_inverters;
          Alcotest.test_case "output = input" `Quick test_map_output_is_input;
          Alcotest.test_case "constant rejected" `Quick
            test_map_constant_rejected;
          Property.to_alcotest prop_mapper_equivalence;
          Property.to_alcotest prop_mapper_reorderable;
        ] );
    ]
