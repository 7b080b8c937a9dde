let nets circuit ~inputs =
  let values = Array.make (Circuit.net_count circuit) false in
  List.iter
    (fun net -> values.(net) <- inputs net)
    (Circuit.primary_inputs circuit);
  List.iter
    (fun g ->
      let gate = Circuit.gate_at circuit g in
      let env pin = values.(gate.Circuit.fanins.(pin)) in
      values.(gate.Circuit.output) <-
        not
          (Sp.Sp_tree.conducts Sp.Sp_tree.Nmos env
             (Cell.Gate.pull_down gate.Circuit.cell)))
    (Circuit.topological_order circuit);
  values

let outputs circuit ~inputs =
  let values = nets circuit ~inputs in
  List.map (fun net -> values.(net)) (Circuit.primary_outputs circuit)

(* Substitute the fanin functions for the pin variables 0..arity-1 in
   two phases, through temporaries far above every variable in use, so
   no substitution can capture a pin variable that is still to come. *)
let gate_function m (gate : Circuit.gate) funcs =
  let f = Cell.Gate.function_bdd m gate.Circuit.cell in
  let arity = Cell.Gate.arity gate.Circuit.cell in
  let shift = 1_000_000 in
  let lifted = ref f in
  for pin = 0 to arity - 1 do
    lifted := Bdd.compose !lifted pin (Bdd.var m (shift + pin))
  done;
  let result = ref !lifted in
  for pin = 0 to arity - 1 do
    result := Bdd.compose !result (shift + pin) funcs.(gate.Circuit.fanins.(pin))
  done;
  !result

let output_bdds m circuit =
  let funcs = Array.make (Circuit.net_count circuit) (Bdd.zero m) in
  List.iteri
    (fun i net -> funcs.(net) <- Bdd.var m i)
    (Circuit.primary_inputs circuit);
  List.iter
    (fun g ->
      let gate = Circuit.gate_at circuit g in
      funcs.(gate.Circuit.output) <- gate_function m gate funcs)
    (Circuit.topological_order circuit);
  List.map (fun net -> (net, funcs.(net))) (Circuit.primary_outputs circuit)
