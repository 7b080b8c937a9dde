(* Tests for the incremental (ECO-style) re-optimization engine: the
   session's bit-identity contract against cold full runs, dirty-cone
   narrowness, the §4.2 cut-off, warm-memo reuse across applies, the
   ledger built when read and the NDJSON edit-script language. *)

module C = Netlist.Circuit
module B = Netlist.Builder
module O = Reorder.Optimizer
module I = Incremental
module S = Stoch.Signal_stats

let power_table () = Power.Model.table Cell.Process.default
let delay_table () = Delay.Elmore.table Cell.Process.default

let scenario_inputs seed scenario circuit =
  Power.Scenario.input_stats ~rng:(Stoch.Rng.create seed) scenario circuit

(* Mutable input-stats model the tests edit through. *)
let stats_table circuit ~seed =
  let base = scenario_inputs seed Power.Scenario.A circuit in
  let tbl = Hashtbl.create 16 in
  List.iter (fun net -> Hashtbl.add tbl net (base net)) (C.primary_inputs circuit);
  tbl

let inputs_of tbl net = Hashtbl.find tbl net

let check_float name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g = %.17g" name a b)
    true (Float.equal a b)

(* Rebuild a circuit with one gate replaced — the edited circuit as it
   enters an apply, for cold-run comparison. *)
let replace_in circuit g gate =
  let gates = C.gates circuit in
  gates.(g) <- gate;
  C.create ~name:(C.name circuit)
    ~net_names:(Array.init (C.net_count circuit) (C.net_name circuit))
    ~primary_inputs:(C.primary_inputs circuit)
    ~primary_outputs:(C.primary_outputs circuit)
    ~gates:(Array.to_list gates)

(* Session apply must be bit-identical to a cold optimize of the same
   edited circuit (the one *entering* the apply) under the same input
   model. *)
let check_equivalent name (sess : I.t) cold_circuit tbl =
  let pt = power_table () and dt = delay_table () in
  let rep = I.report sess in
  let cold =
    O.optimize pt ~delay:dt ~external_load:(I.external_load sess)
      ~objective:(I.objective sess) cold_circuit ~inputs:(inputs_of tbl)
  in
  check_float (name ^ ": power_before") cold.O.power_before rep.O.power_before;
  check_float (name ^ ": power_after") cold.O.power_after rep.O.power_after;
  Alcotest.(check (array int)) (name ^ ": configs") cold.O.configs rep.O.configs;
  let patched = I.ledger sess in
  let cold_ledger =
    Attrib.of_report pt ~external_load:(I.external_load sess)
      ~before:cold_circuit ~inputs:(inputs_of tbl) cold
  in
  check_float
    (name ^ ": ledger total_before")
    cold_ledger.Attrib.total_before patched.Attrib.total_before;
  check_float
    (name ^ ": ledger total_after")
    cold_ledger.Attrib.total_after patched.Attrib.total_after;
  Array.iteri
    (fun g (e : Attrib.gate_entry) ->
      let p = patched.Attrib.gates.(g) in
      Alcotest.(check int)
        (Printf.sprintf "%s: gate %d config_after" name g)
        e.Attrib.config_after p.Attrib.config_after;
      Alcotest.(check int)
        (Printf.sprintf "%s: gate %d config_before" name g)
        e.Attrib.config_before p.Attrib.config_before;
      check_float
        (Printf.sprintf "%s: gate %d after_total" name g)
        e.Attrib.after_total p.Attrib.after_total;
      check_float
        (Printf.sprintf "%s: gate %d before_total" name g)
        e.Attrib.before_total p.Attrib.before_total)
    cold_ledger.Attrib.gates

let test_stats_edit_equivalence () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let tbl = stats_table circuit ~seed:7 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let cold_explored = (I.report sess).O.configurations_explored in
  (* Nudge one input's density: only its fan-out cone may re-sweep. *)
  let pi = List.hd (C.primary_inputs circuit) in
  let edited = S.make ~prob:0.3 ~density:4.2e7 in
  Hashtbl.replace tbl pi edited;
  let entering = I.circuit sess in
  I.apply sess [ I.Set_input_stats (pi, edited) ];
  let rep = I.report sess in
  Alcotest.(check bool)
    "incremental path explores a strict subset" true
    (rep.O.configurations_explored < cold_explored);
  check_equivalent "stats edit" sess entering tbl;
  (* The settled circuit is a fixed point: applying an empty batch
     changes nothing and re-sweeps nothing. *)
  I.apply sess [];
  let rep2 = I.report sess in
  Alcotest.(check int) "empty batch: no gates changed" 0 rep2.O.gates_changed;
  Alcotest.(check int)
    "empty batch: nothing explored" 0 rep2.O.configurations_explored

let test_dirty_cone_is_narrow () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let tbl = stats_table circuit ~seed:11 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let n = C.gate_count circuit in
  (* A config-only gate edit must dirty exactly that gate (§4.2: the
     reordering does not move any net's statistics). *)
  let g = n / 2 in
  let gate = C.gate_at (I.circuit sess) g in
  let other_config = (gate.C.config + 1) mod Cell.Gate.config_count gate.C.cell in
  let replacement = { gate with C.config = other_config } in
  let entering = replace_in (I.circuit sess) g replacement in
  I.apply sess [ I.Replace_gate (g, replacement) ];
  let dirty = Option.get (O.session_dirty (I.session sess)) in
  let dirty_count =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty
  in
  Alcotest.(check int) "config-only edit re-sweeps exactly one gate" 1
    dirty_count;
  Alcotest.(check bool) "and it is the edited gate" true dirty.(g);
  check_equivalent "config edit" sess entering tbl;
  (* An input-stats edit re-sweeps at most the input's fan-out cone
     (plus nothing else). *)
  let pi = List.nth (C.primary_inputs circuit) 2 in
  let edited = S.make ~prob:0.9 ~density:9.9e6 in
  Hashtbl.replace tbl pi edited;
  let entering = I.circuit sess in
  I.apply sess [ I.Set_input_stats (pi, edited) ];
  let cone = C.fanout_cone circuit [ pi ] in
  let dirty = Option.get (O.session_dirty (I.session sess)) in
  Array.iteri
    (fun g d ->
      if d then
        Alcotest.(check bool)
          (Printf.sprintf "dirty gate %d lies in the edited cone" g)
          true cone.(g))
    dirty;
  check_equivalent "stats edit after config edit" sess entering tbl

(* Rewiring edits: one gate re-pinned onto primary inputs (no cycle can
   form) and another's cell swapped, in one batch. The re-pinned gate's
   output statistics move, and so do the loads of the nets it left and
   joined. *)
let test_rewiring_equivalence () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let tbl = stats_table circuit ~seed:31 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let settled = I.circuit sess in
  let pis = Array.of_list (C.primary_inputs circuit) in
  let nand2 g = Cell.Gate.name (C.gate_at settled g).C.cell = "nand2" in
  let nand2s = List.filter nand2 (List.init (C.gate_count settled) Fun.id) in
  let g = List.nth nand2s 20 and h = List.nth nand2s 40 in
  let gate_g = C.gate_at settled g and gate_h = C.gate_at settled h in
  let repinned = { gate_g with C.fanins = [| pis.(3); pis.(11) |] } in
  let swapped = { gate_h with C.cell = Cell.Gate.of_name "nor2"; config = 1 } in
  let entering = replace_in (replace_in settled g repinned) h swapped in
  I.apply sess [ I.Replace_gate (g, repinned); I.Replace_gate (h, swapped) ];
  check_equivalent "rewiring" sess entering tbl;
  let dirty = Option.get (O.session_dirty (I.session sess)) in
  Alcotest.(check bool) "both rewired gates re-swept" true
    (dirty.(g) && dirty.(h));
  (* A configuration edit on the rewired circuit stays narrow. *)
  let k = (h + 1) mod C.gate_count settled in
  let gate_k = C.gate_at (I.circuit sess) k in
  let flipped =
    {
      gate_k with
      C.config = (gate_k.C.config + 1) mod Cell.Gate.config_count gate_k.C.cell;
    }
  in
  let entering = replace_in (I.circuit sess) k flipped in
  I.apply sess [ I.Replace_gate (k, flipped) ];
  check_equivalent "config edit after rewiring" sess entering tbl;
  Alcotest.(check int) "one gate re-swept" 1
    (List.length (O.session_swept (I.session sess)))

let test_external_load_and_objective () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let tbl = stats_table circuit ~seed:3 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let entering = I.circuit sess in
  I.apply sess [ I.Set_external_load 35e-15 ];
  (* Only primary-output drivers may re-sweep. *)
  let dirty = Option.get (O.session_dirty (I.session sess)) in
  let po_drivers =
    List.filter_map
      (fun po ->
        match C.driver circuit po with
        | C.Driven_by d -> Some d
        | C.Primary_input -> None)
      (C.primary_outputs circuit)
  in
  Array.iteri
    (fun g d ->
      if d then
        Alcotest.(check bool)
          (Printf.sprintf "load edit: dirty gate %d drives a PO" g)
          true (List.mem g po_drivers))
    dirty;
  check_equivalent "external load edit" sess entering tbl;
  (* Objective flip re-decides everything but skips propagation. *)
  let before_nets = Obs.value (Obs.counter "incremental.dirty_nets") in
  let entering = I.circuit sess in
  I.apply sess [ I.Set_objective O.Max_power ];
  Alcotest.(check int)
    "objective flip dirties no nets" before_nets
    (Obs.value (Obs.counter "incremental.dirty_nets"));
  check_equivalent "objective flip" sess entering tbl

let test_memo_warm_across_applies () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let tbl = stats_table circuit ~seed:13 in
  let sess =
    I.create pt ~delay:dt ~memoize:true circuit ~inputs:(inputs_of tbl)
  in
  let memo = Option.get (O.session_memo (I.session sess)) in
  let size_after_cold = Reorder.Memo.size memo in
  Alcotest.(check bool) "cold run seeded the memo" true (size_after_cold > 0);
  let hits = Obs.counter "optimizer.memo_hits" in
  let pi = List.hd (C.primary_inputs circuit) in
  (* Toggle the same input between two values: after the first apply,
     every key the replays need is already stored, so the hit counter
     must rise on each subsequent apply. *)
  let a = S.make ~prob:0.4 ~density:5e6
  and b = S.make ~prob:0.6 ~density:7e6 in
  let apply_with s =
    Hashtbl.replace tbl pi s;
    I.apply sess [ I.Set_input_stats (pi, s) ]
  in
  apply_with a;
  apply_with b;
  let h0 = Obs.value hits in
  apply_with a;
  let h1 = Obs.value hits in
  Alcotest.(check bool) "replaying a seen edit hits warm verdicts" true
    (h1 > h0);
  Alcotest.(check int) "no new entries were needed" (Reorder.Memo.size memo)
    (let _ = apply_with b in
     Reorder.Memo.size memo);
  (* Memoized incremental must equal a memoized cold run (verdict
     purity: warm == fresh). *)
  let cold_memo = Reorder.Memo.create () in
  let cold =
    O.optimize pt ~delay:dt ~memo:cold_memo (I.circuit sess)
      ~inputs:(inputs_of tbl)
  in
  check_float "memoized: settled power is a fixed point" cold.O.power_after
    (I.report sess).O.power_after

let test_parallel_and_memo_equivalence () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let tbl = stats_table circuit ~seed:29 in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun memoize ->
      let tbl_seq = Hashtbl.copy tbl and tbl_par = Hashtbl.copy tbl in
      let seq =
        I.create pt ~delay:dt ~memoize circuit ~inputs:(inputs_of tbl_seq)
      in
      let par =
        I.create pt ~delay:dt ~memoize ~pool circuit
          ~inputs:(inputs_of tbl_par)
      in
      let edit tbl net = Hashtbl.replace tbl net (S.make ~prob:0.25 ~density:3e7) in
      let pi = List.nth (C.primary_inputs circuit) 1 in
      edit tbl_seq pi;
      edit tbl_par pi;
      let s = S.make ~prob:0.25 ~density:3e7 in
      I.apply seq [ I.Set_input_stats (pi, s) ];
      I.apply ~pool par [ I.Set_input_stats (pi, s) ];
      let r_seq = I.report seq and r_par = I.report par in
      check_float
        (Printf.sprintf "memoize=%b: jobs 1 = jobs 4 (after)" memoize)
        r_seq.O.power_after r_par.O.power_after;
      Alcotest.(check (array int))
        (Printf.sprintf "memoize=%b: same configs" memoize)
        r_seq.O.configs r_par.O.configs)
    [ false; true ]

(* What a reader of the session sees: configs, report, circuit and
   ledger, rendered exactly (floats in hex, the ledger's JSON at %.17g). *)
let observed sess =
  let rep = I.report sess in
  ( Array.copy rep.O.configs,
    Printf.sprintf "%h %h %d %d" rep.O.power_before rep.O.power_after
      rep.O.gates_changed rep.O.configurations_explored,
    Netlist.Io.to_string (I.circuit sess),
    Attrib.to_json (I.ledger sess) )

let check_observed name expected actual =
  let configs, report, circuit, ledger = expected
  and configs', report', circuit', ledger' = actual in
  Alcotest.(check (array int)) (name ^ ": configs") configs configs';
  Alcotest.(check string) (name ^ ": report") report report';
  Alcotest.(check string) (name ^ ": circuit") circuit circuit';
  Alcotest.(check string) (name ^ ": ledger") ledger ledger'

let test_edit_validation () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let tbl = stats_table circuit ~seed:5 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let before = observed sess in
  let pi = List.hd (C.primary_inputs circuit) in
  let pi_stats = I.input_stats sess pi in
  let gate0 = C.gate_at (I.circuit sess) 0
  and gate1 = C.gate_at (I.circuit sess) 1 in
  let valid =
    [
      I.Set_input_stats (pi, S.make ~prob:0.3 ~density:5e6);
      I.Replace_gate
        ( 1,
          {
            gate1 with
            C.config =
              (gate1.C.config + 1) mod Cell.Gate.config_count gate1.C.cell;
          } );
      I.Set_external_load 30e-15;
      I.Set_objective O.Max_power;
    ]
  in
  let invalid =
    [
      ( "stats edit on a gate-driven net",
        I.Set_input_stats (gate0.C.output, S.make ~prob:0.5 ~density:1e6) );
      ("bad gate index", I.Replace_gate (9999, gate0));
      ("negative load", I.Set_external_load (-1.));
      ( "configuration out of range",
        I.Replace_gate
          (0, { gate0 with C.config = Cell.Gate.config_count gate0.C.cell }) );
      ( "rewiring onto a driven net",
        I.Replace_gate (0, { gate0 with C.output = gate1.C.output }) );
    ]
  in
  (* A batch whose valid edits come before an invalid one is refused
     whole: configs, report, circuit and ledger stay bit-identical. *)
  List.iter
    (fun (what, bad) ->
      List.iter
        (fun good ->
          Alcotest.(check bool)
            (what ^ " is refused")
            true
            (match I.apply sess [ good; bad ] with
            | () -> false
            | exception I.Edit_error _ -> true);
          check_observed (what ^ " after a valid edit") before (observed sess))
        valid)
    invalid;
  Alcotest.(check bool) "input stats untouched" true
    (I.input_stats sess pi == pi_stats);
  check_float "external load untouched" 20e-15 (I.external_load sess);
  Alcotest.(check bool) "objective untouched" true
    (I.objective sess = O.Min_power);
  (* And the session still settles correctly. *)
  let entering = replace_in (I.circuit sess) 1 { gate1 with C.config = 0 } in
  I.apply sess [ I.Replace_gate (1, { gate1 with C.config = 0 }) ];
  check_equivalent "valid batch after refused ones" sess entering tbl

(* Snapshots are values: what a reader holds never changes under it, and
   every read between two applies returns the same snapshot. *)
let test_snapshots_survive_applies () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let tbl = stats_table circuit ~seed:19 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let rep = I.report sess and settled = I.circuit sess in
  let ledger = I.ledger sess in
  Alcotest.(check bool) "a second read shares the report" true
    (I.report sess == rep);
  Alcotest.(check bool) "and the ledger" true
    (I.ledger sess == ledger);
  let held () =
    ( Array.copy rep.O.configs,
      Printf.sprintf "%h %h %d %d" rep.O.power_before rep.O.power_after
        rep.O.gates_changed rep.O.configurations_explored,
      Netlist.Io.to_string settled,
      Attrib.to_json ledger )
  in
  let expected = held () in
  Alcotest.(check bool) "held values are the session's" true
    (expected = observed sess);
  let pi = List.nth (C.primary_inputs circuit) 3 in
  let flips =
    List.map
      (fun g ->
        let gate = C.gate_at settled g in
        I.Replace_gate
          ( g,
            {
              gate with
              C.config =
                (gate.C.config + 1) mod Cell.Gate.config_count gate.C.cell;
            } ))
      [ 0; 5; C.gate_count settled - 1 ]
  in
  List.iter
    (fun batch ->
      I.apply sess batch;
      ignore (observed sess);
      check_observed "first snapshot after an apply" expected (held ()))
    ([ List.hd flips ]
    :: [ I.Set_input_stats (pi, S.make ~prob:0.8 ~density:6e7) ]
    :: List.tl flips
    :: [ [ I.Set_external_load 40e-15 ]; [ I.Set_objective O.Max_power ]; [] ])

(* The ledger is built when it is read, not kept up to date by applies:
   a session costs exactly the power evaluations of the optimizer
   session it wraps, and its first ledger read builds one ledger, the
   one a cold run on the settled circuit attributes. Each side gets a
   fresh power table, so both build the same models. *)
let test_ledger_built_when_read () =
  let dt = delay_table () in
  let circuit = Circuits.Suite.find "rca8" in
  let inputs = scenario_inputs 37 Power.Scenario.A circuit in
  let pi = List.nth (C.primary_inputs circuit) 4 in
  let stats = S.make ~prob:0.7 ~density:3e7 in
  let counters =
    List.map Obs.counter
      [
        "attrib.ledgers_built"; "power.gate_powers"; "power.model_hit";
        "power.node_evals";
      ]
  in
  let counted f =
    let before = List.map Obs.value counters in
    let r = f () in
    (r, List.map2 (fun c v -> Obs.value c - v) counters before)
  in
  let g = 9 in
  let (sess, flipped), session_counts =
    counted (fun () ->
        let sess = I.create (power_table ()) ~delay:dt circuit ~inputs in
        I.apply sess [ I.Set_input_stats (pi, stats) ];
        let gate = C.gate_at (I.circuit sess) g in
        let k = Cell.Gate.config_count gate.C.cell in
        let flipped = { gate with C.config = (gate.C.config + 1) mod k } in
        I.apply sess [ I.Replace_gate (g, flipped) ];
        I.apply sess [];
        (sess, flipped))
  in
  let (), bare_counts =
    counted (fun () ->
        let s = O.start (power_table ()) ~delay:dt circuit ~inputs in
        let edits ?(inputs = []) ?(configs = []) () =
          {
            O.inputs;
            configs;
            rewired = None;
            external_load = I.external_load sess;
            objective = O.Min_power;
          }
        in
        O.resettle s (edits ~inputs:[ (pi, stats) ] ());
        O.resettle s (edits ~configs:[ (g, flipped.C.config) ] ());
        O.resettle s (edits ()))
  in
  Alcotest.(check (list int))
    "create and applies: no ledger, the bare session's evaluations"
    bare_counts session_counts;
  let ledger, read_counts = counted (fun () -> I.ledger sess) in
  Alcotest.(check int) "the first read builds one ledger" 1
    (List.hd read_counts);
  let pt = power_table () and settled = I.circuit sess in
  let cold = O.optimize pt ~delay:dt settled ~inputs:(I.input_stats sess) in
  Alcotest.(check string) "and it is the cold run's"
    (Attrib.to_json
       (Attrib.of_report pt ~before:settled ~inputs:(I.input_stats sess) cold))
    (Attrib.to_json ledger)

(* A configuration edit costs the same whatever the circuit's size:
   words allocated per apply (minor + major, mean over the same script of
   flips) on an 8k-gate circuit stay within 2x of a 1k-gate one. The
   minor words come from [Gc.minor_words]: [Gc.quick_stat]'s count only
   moves at a minor collection, which 100 applies need not reach. *)
let test_apply_allocation_is_flat () =
  let pt = power_table () and dt = delay_table () in
  let words_per_apply gates =
    let circuit =
      Circuits.Generators.random_logic ~seed:11 ~inputs:64 ~gates
    in
    let inputs = scenario_inputs 5 Power.Scenario.A circuit in
    let sess = I.create pt ~delay:dt circuit ~inputs in
    let settled = I.circuit sess in
    let rng = Stoch.Rng.create 23 in
    let batches =
      List.init 100 (fun _ ->
          let g = Stoch.Rng.int rng (C.gate_count settled) in
          let gate = C.gate_at settled g in
          let k = Cell.Gate.config_count gate.C.cell in
          [ I.Replace_gate (g, { gate with C.config = Stoch.Rng.int rng k }) ])
    in
    let words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
    let w0 = words () in
    List.iter (I.apply sess) batches;
    (words () -. w0) /. float_of_int (List.length batches)
  in
  let small = words_per_apply 1_000 and large = words_per_apply 8_000 in
  Alcotest.(check bool)
    (Printf.sprintf "8k gates: %.0f words per apply, 1k gates: %.0f" large
       small)
    true
    (large <= 2. *. small)

let test_script_parsing () =
  let circuit = Circuits.Suite.find "rca4" in
  let a_name = C.net_name circuit (List.hd (C.primary_inputs circuit)) in
  let text =
    Printf.sprintf
      {|# a comment
{"op":"set_input_stats","net":"%s","prob":0.5,"density":2.0e8}

[{"op":"set_external_load","farads":2.5e-14},{"op":"set_objective","objective":"max_power"}]
{"op":"replace_gate","gate":0,"config":1}
|}
      a_name
  in
  let batches = I.Script.parse ~circuit text in
  Alcotest.(check int) "three batches" 3 (List.length batches);
  (match batches with
  | [ [ I.Set_input_stats (net, s) ];
      [ I.Set_external_load l; I.Set_objective O.Max_power ];
      [ I.Replace_gate (0, gate) ] ] ->
      Alcotest.(check string)
        "net resolved" a_name (C.net_name circuit net);
      Alcotest.(check (float 0.)) "prob" 0.5 (Stoch.Signal_stats.prob s);
      Alcotest.(check (float 0.)) "load" 2.5e-14 l;
      Alcotest.(check int) "config" 1 gate.C.config;
      Alcotest.(check string) "cell kept" (Cell.Gate.name (C.gate_at circuit 0).C.cell)
        (Cell.Gate.name gate.C.cell)
  | _ -> Alcotest.fail "unexpected batch structure");
  (* Every malformed edit is a line-numbered [Edit_error], never an
     escaping exception or a number silently wrapped onto a valid index. *)
  let rejected what edit =
    match I.Script.parse ~circuit ("# header\n" ^ edit) with
    | _ -> Alcotest.failf "%s accepted" what
    | exception I.Edit_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s located (%s)" what msg)
          true
          (String.starts_with ~prefix:"line 2: " msg)
  in
  rejected "bad op" {|{"op":"frobnicate"}|};
  rejected "unknown net"
    {|{"op":"set_input_stats","net":"nope","prob":0.5,"density":1}|};
  rejected "prob above 1"
    (Printf.sprintf
       {|{"op":"set_input_stats","net":"%s","prob":1.5,"density":1}|} a_name);
  rejected "negative density"
    (Printf.sprintf
       {|{"op":"set_input_stats","net":"%s","prob":0.5,"density":-1}|} a_name);
  rejected "huge gate" {|{"op":"replace_gate","gate":1e300}|};
  rejected "fractional gate" {|{"op":"replace_gate","gate":0.9}|};
  rejected "negative gate" {|{"op":"replace_gate","gate":-1}|};
  rejected "gate past the end"
    (Printf.sprintf {|{"op":"replace_gate","gate":%d}|} (C.gate_count circuit));
  rejected "fractional config" {|{"op":"replace_gate","gate":0,"config":1.7}|};
  rejected "stats on a gate-driven net"
    (Printf.sprintf
       {|{"op":"set_input_stats","net":"%s","prob":0.5,"density":1}|}
       (C.net_name circuit (C.gate_at circuit 0).C.output));
  rejected "negative load" {|{"op":"set_external_load","farads":-1e-15}|};
  rejected "config out of range"
    (Printf.sprintf {|{"op":"replace_gate","gate":0,"config":%d}|}
       (Cell.Gate.config_count (C.gate_at circuit 0).C.cell))

(* A script file that cannot be opened, or opened but not read, is an
   [Edit_error] naming the file, never an escaping [Sys_error]; so is a
   malformed line, which also gives the line. *)
let test_script_unreadable () =
  let circuit = Circuits.Suite.find "rca4" in
  let malformed = Filename.temp_file "script" ".ndjson" in
  Out_channel.with_open_bin malformed (fun oc ->
      output_string oc "# header\n{\"op\":\"frobnicate\"}\n");
  let rejected ?(line = "") path =
    match I.Script.load ~circuit path with
    | _ -> Alcotest.failf "%s loaded" path
    | exception I.Edit_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the file" msg)
          true
          (String.starts_with ~prefix:(path ^ ": " ^ line) msg)
  in
  rejected "no_such_script.ndjson";
  rejected Filename.current_dir_name;
  rejected ~line:"line 2: " malformed;
  Sys.remove malformed

let test_replay_and_percentiles () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let tbl = stats_table circuit ~seed:17 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let pi = List.hd (C.primary_inputs circuit) in
  let name = C.net_name circuit pi in
  let text =
    String.concat "\n"
      (List.map
         (fun d ->
           Printf.sprintf
             {|{"op":"set_input_stats","net":"%s","prob":0.5,"density":%g}|}
             name d)
         [ 1e6; 2e6; 3e6; 4e6 ])
  in
  let script = I.Script.parse ~circuit text in
  let timings = I.replay sess script in
  Alcotest.(check int) "one timing per batch" 4 (List.length timings);
  List.iter
    (fun (tm : I.timing) ->
      Alcotest.(check bool) "positive latency" true (tm.I.seconds >= 0.);
      Alcotest.(check int) "single-edit batches" 1 tm.I.edits)
    timings;
  let p50, p90, p99 = I.latency_percentiles timings in
  Alcotest.(check bool) "percentiles ordered" true (p50 <= p90 && p90 <= p99);
  (* The session's input model now ends at the last scripted value; the
     settled state is a fixed point, checkable with an empty batch. *)
  Hashtbl.replace tbl pi (S.make ~prob:0.5 ~density:4e6);
  let entering = I.circuit sess in
  I.apply sess [];
  check_equivalent "after replay" sess entering tbl

let test_cold_fallback_on_non_power_objective () =
  let pt = power_table () and dt = delay_table () in
  let circuit = Circuits.Suite.find "rca4" in
  let tbl = stats_table circuit ~seed:23 in
  let sess = I.create pt ~delay:dt circuit ~inputs:(inputs_of tbl) in
  let cold_runs = Obs.counter "incremental.cold_runs" in
  let before = Obs.value cold_runs in
  let entering = I.circuit sess in
  I.apply sess [ I.Set_objective O.Min_delay ];
  Alcotest.(check bool) "a delay objective re-decides every gate" true
    (Obs.value cold_runs > before);
  check_equivalent "min delay" sess entering tbl;
  (* Under the delay bound too, and with an input edit in the batch: its
     statistics still re-propagate incrementally. *)
  let pi = List.hd (C.primary_inputs circuit) in
  let edited = S.make ~prob:0.35 ~density:8e7 in
  Hashtbl.replace tbl pi edited;
  let entering = I.circuit sess in
  I.apply sess
    [
      I.Set_objective O.Min_power_delay_bounded; I.Set_input_stats (pi, edited);
    ];
  check_equivalent "delay bounded" sess entering tbl;
  (* A later power-objective apply re-decides every gate once, then the
     session settles incrementally again. *)
  let entering = I.circuit sess in
  I.apply sess [ I.Set_objective O.Min_power ];
  check_equivalent "back to min power" sess entering tbl;
  let applies = Obs.counter "incremental.applies" in
  let a0 = Obs.value applies in
  let entering = I.circuit sess in
  I.apply sess [];
  Alcotest.(check bool) "back on the incremental path" true
    (Obs.value applies > a0);
  check_equivalent "recovered" sess entering tbl

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "stats edit" `Quick test_stats_edit_equivalence;
          Alcotest.test_case "dirty cone is narrow" `Quick
            test_dirty_cone_is_narrow;
          Alcotest.test_case "external load and objective" `Quick
            test_external_load_and_objective;
          Alcotest.test_case "rewiring" `Quick test_rewiring_equivalence;
          Alcotest.test_case "parallel and memo" `Quick
            test_parallel_and_memo_equivalence;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm across applies" `Quick
            test_memo_warm_across_applies;
        ] );
      ( "edits",
        [
          Alcotest.test_case "validation" `Quick test_edit_validation;
          Alcotest.test_case "snapshots survive applies" `Quick
            test_snapshots_survive_applies;
          Alcotest.test_case "ledger built when read" `Quick
            test_ledger_built_when_read;
          Alcotest.test_case "apply allocation is flat in circuit size" `Quick
            test_apply_allocation_is_flat;
          Alcotest.test_case "script parsing" `Quick test_script_parsing;
          Alcotest.test_case "replay and percentiles" `Quick
            test_replay_and_percentiles;
          Alcotest.test_case "cold fallback" `Quick
            test_cold_fallback_on_non_power_objective;
          Alcotest.test_case "unreadable script" `Quick test_script_unreadable;
        ] );
    ]
