(* Tests for the power-attribution ledger: conservation of the
   per-node / per-input breakdown, consistency with the optimizer
   report, ranking queries, and the --explain / JSON renderings. *)

let power_table = Power.Model.table Cell.Process.default
let delay_table = Delay.Elmore.table Cell.Process.default

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let ledger_of name =
  let circuit = Circuits.Suite.find name in
  let inputs _net = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let report =
    Reorder.Optimizer.optimize power_table ~delay:delay_table circuit ~inputs
  in
  (circuit, report, Attrib.of_report power_table ~before:circuit ~inputs report)

let test_conservation () =
  let _, report, ledger = ledger_of "rca4" in
  Alcotest.(check bool) "worst relative gap tiny" true
    (Attrib.conservation_error ledger < 1e-12);
  Array.iter
    (fun (e : Attrib.gate_entry) ->
      let close a b =
        Float.abs (a -. b) <= 1e-9 *. Float.max 1e-30 (Float.abs b)
      in
      Alcotest.(check bool)
        (Printf.sprintf "gate %d nodes sum to total" e.Attrib.index)
        true
        (close (Attrib.node_sum e) e.Attrib.after_total);
      List.iter
        (fun (ns : Attrib.node_share) ->
          let s =
            Array.fold_left (fun acc (_, w) -> acc +. w) 0. ns.Attrib.per_input
          in
          Alcotest.(check bool)
            (Printf.sprintf "gate %d per-input watts sum to node power"
               e.Attrib.index)
            true (close s ns.Attrib.power))
        e.Attrib.nodes)
    ledger.Attrib.gates;
  (* Ledger totals agree with the optimizer report. *)
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b in
  Alcotest.(check bool) "total_after matches report" true
    (close ledger.Attrib.total_after report.Reorder.Optimizer.power_after);
  Alcotest.(check bool) "total_before matches report" true
    (close ledger.Attrib.total_before report.Reorder.Optimizer.power_before)

let test_structure () =
  let circuit, report, ledger = ledger_of "rca4" in
  Alcotest.(check int) "one entry per gate"
    (Netlist.Circuit.gate_count circuit)
    (Array.length ledger.Attrib.gates);
  Array.iteri
    (fun i (e : Attrib.gate_entry) ->
      Alcotest.(check int) "entries indexed by gate" i e.Attrib.index;
      Alcotest.(check int) "config_after matches the report"
        report.Reorder.Optimizer.configs.(i)
        e.Attrib.config_after;
      Alcotest.(check bool) "candidate count = cell configurations" true
        (Array.length e.Attrib.candidates
        = Cell.Gate.config_count
            (Cell.Gate.of_name e.Attrib.cell));
      (* The chosen configuration's candidate power is the gate total. *)
      let chosen =
        Array.to_list e.Attrib.candidates
        |> List.assoc_opt e.Attrib.config_after
      in
      match chosen with
      | None -> Alcotest.fail "chosen config missing from candidates"
      | Some w ->
          Alcotest.(check bool) "candidate power matches after_total" true
            (Float.abs (w -. e.Attrib.after_total)
            <= 1e-9 *. Float.abs e.Attrib.after_total))
    ledger.Attrib.gates;
  Alcotest.(check int) "changed = gates_changed"
    report.Reorder.Optimizer.gates_changed
    (List.length (Attrib.changed ledger))

let test_top_consumers () =
  let _, _, ledger = ledger_of "rca4" in
  let top = Attrib.top_consumers ledger 3 in
  Alcotest.(check int) "asked for 3" 3 (List.length top);
  let rec descending = function
    | (a : Attrib.gate_entry) :: (b :: _ as rest) ->
        a.Attrib.after_total >= b.Attrib.after_total && descending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "descending power" true (descending top);
  let all = Attrib.top_consumers ledger 1000 in
  Alcotest.(check int) "k larger than circuit is clamped"
    (Array.length ledger.Attrib.gates)
    (List.length all);
  let worst = (List.hd top).Attrib.after_total in
  Array.iter
    (fun (e : Attrib.gate_entry) ->
      Alcotest.(check bool) "head dominates every gate" true
        (e.Attrib.after_total <= worst +. 1e-30))
    ledger.Attrib.gates

(* A gate that ties one net to several pins lists that net once in each
   node's shares, in order of first pin, and the shares sum exactly to
   the model's pin-by-pin terms (the other tied pins carry 0). The
   JSON's per-input objects then have unique keys. *)
let test_tied_pins () =
  let module C = Netlist.Circuit in
  let module M = Power.Model in
  let circuit, _, ledger = ledger_of "rnd_a" in
  let inputs _net = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let analysis = Power.Analysis.run power_table circuit ~inputs in
  let vdd = Cell.Process.default.Cell.Process.vdd in
  let tied = ref 0 in
  Array.iter
    (fun (e : Attrib.gate_entry) ->
      let g = e.Attrib.index in
      let gate = C.gate_at circuit g in
      let nets =
        Array.to_list gate.C.fanins
        |> List.filteri (fun pin net ->
               Array.find_index (( = ) net) gate.C.fanins = Some pin)
        |> List.map (C.net_name circuit)
      in
      if List.length nets < Array.length gate.C.fanins then incr tied;
      let gp =
        M.gate_power power_table gate.C.cell ~config:e.Attrib.config_after
          ~input_stats:(Power.Analysis.gate_input_stats analysis circuit g)
          ~groups:(M.groups_of_nets gate.C.fanins)
          ~load:(Netlist.Load.output Cell.Process.default circuit g)
          ()
      in
      List.iter2
        (fun (ns : Attrib.node_share) (np : M.node_power) ->
          let what = Printf.sprintf "gate %d %s" g e.Attrib.out_net in
          Alcotest.(check (list string))
            (what ^ ": one share per fanin net")
            nets
            (List.map fst (Array.to_list ns.Attrib.per_input));
          let scale = 0.5 *. np.M.capacitance *. vdd *. vdd in
          let model =
            Array.fold_left (fun acc t -> acc +. (scale *. t)) 0. np.M.by_input
          in
          let shares =
            Array.fold_left (fun acc (_, w) -> acc +. w) 0. ns.Attrib.per_input
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: shares sum %h = %h" what shares model)
            true (Float.equal shares model))
        e.Attrib.nodes gp.M.nodes)
    ledger.Attrib.gates;
  Alcotest.(check bool) "the circuit ties pins" true (!tied > 0);
  let rec unique_keys = function
    | Trace.Json.Obj fields ->
        let keys = List.map fst fields in
        List.length (List.sort_uniq compare keys) = List.length keys
        && List.for_all (fun (_, v) -> unique_keys v) fields
    | Trace.Json.Arr items -> List.for_all unique_keys items
    | _ -> true
  in
  match Trace.Json.parse (Attrib.to_json ledger) with
  | Error msg -> Alcotest.failf "ledger JSON does not parse: %s" msg
  | Ok doc -> Alcotest.(check bool) "JSON keys unique" true (unique_keys doc)

let test_render_explain () =
  let _, _, ledger = ledger_of "rca4" in
  let s = Attrib.render_explain ~top:2 ledger in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [
      "top power consumers (after reordering)";
      "why this ordering won (changed gates)";
      "node breakdown:";
      "rca4";
    ];
  Alcotest.(check string) "deterministic" s (Attrib.render_explain ~top:2 ledger)

let test_json () =
  let _, _, ledger = ledger_of "rca4" in
  match Trace.Json.parse (Attrib.to_json ledger) with
  | Error msg -> Alcotest.failf "ledger JSON does not parse: %s" msg
  | Ok doc ->
      let num key =
        Option.bind (Trace.Json.member key doc) Trace.Json.to_float
      in
      Alcotest.(check (option (float 1e-24))) "total_after serialized"
        (Some ledger.Attrib.total_after)
        (num "total_after");
      (match Trace.Json.member "gates" doc with
      | Some (Trace.Json.Arr gates) ->
          Alcotest.(check int) "every gate serialized"
            (Array.length ledger.Attrib.gates)
            (List.length gates)
      | _ -> Alcotest.fail "no gates array");
      Alcotest.(check (option string)) "circuit name" (Some "rca4")
        (Option.bind (Trace.Json.member "circuit" doc) Trace.Json.to_string)

let test_mismatched_report () =
  let circuit = Circuits.Suite.find "rca4" in
  let other = Circuits.Suite.find "c17" in
  let inputs _net = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let report =
    Reorder.Optimizer.optimize power_table ~delay:delay_table other ~inputs
  in
  match
    Attrib.of_report power_table ~before:circuit ~inputs report
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched circuit/report accepted"

let () =
  Alcotest.run "attrib"
    [
      ( "conservation",
        [
          Alcotest.test_case "nodes sum to gates, inputs to nodes" `Quick
            test_conservation;
          Alcotest.test_case "tied pins share one entry" `Quick test_tied_pins;
        ] );
      ( "structure",
        [
          Alcotest.test_case "entries mirror the report" `Quick test_structure;
          Alcotest.test_case "top consumers ranking" `Quick test_top_consumers;
          Alcotest.test_case "mismatched report rejected" `Quick
            test_mismatched_report;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "--explain tables" `Quick test_render_explain;
          Alcotest.test_case "JSON parses and round-trips totals" `Quick
            test_json;
        ] );
    ]
