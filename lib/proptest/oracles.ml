module C = Netlist.Circuit
open Runner

(* One shared model context (same defaults as Experiments.Common, which
   this library deliberately does not depend on). *)
let proc = Cell.Process.default
let power_table = lazy (Power.Model.table proc)
let power () = Lazy.force power_table
let delay () = Delay.Elmore.table proc

let fail fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Chain checks, stopping at the first failure. *)
let ( let* ) r f = match r with Pass -> f () | Fail _ -> r

let rec all_nets c ~f net =
  if net >= C.net_count c then Pass
  else
    let* () = f net in
    all_nets c ~f (net + 1)

(* --- 1. exactness: local propagation vs global BDDs (read-once) --- *)

let close ?(rtol = 1e-6) a b = Float.abs (a -. b) <= 1e-9 +. (rtol *. Float.abs b)

let check_exactness ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let analysis = Power.Analysis.run (power ()) c ~inputs in
  match Power.Exact.run c ~inputs with
  | exception Power.Exact.Blowup _ -> Pass (* no reference to compare to *)
  | exact ->
      all_nets c 0 ~f:(fun net ->
          let local = Power.Analysis.stats analysis net in
          let global = Power.Exact.stats exact net in
          let module S = Stoch.Signal_stats in
          if not (close (S.prob local) (S.prob global)) then
            fail "net %s: local P=%.12g, exact P=%.12g (read-once circuit)"
              (C.net_name c net) (S.prob local) (S.prob global)
          else if not (close (S.density local) (S.density global)) then
            fail "net %s: local D=%.12g, exact D=%.12g (read-once circuit)"
              (C.net_name c net) (S.density local) (S.density global)
          else Pass)

(* --- 2. model power vs switch-level power --- *)

(* Run on read-once trees: under reconvergent fanout the gate-local
   model legitimately diverges from the simulator by large factors
   (correlation), which would force a vacuous tolerance. On trees the
   gap is only glitching + sampling noise. *)
let sim_horizon = 500.
let sim_tolerance_factor = 3.0

let check_sim_power ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let analysis = Power.Analysis.run (power ()) c ~inputs in
  let model = Power.Estimate.total (power ()) c analysis in
  let sim = Switchsim.Sim.build proc c in
  let r =
    Switchsim.Sim.run_stats sim
      ~rng:(Stoch.Rng.create (seed + 0x517c05))
      ~stats:inputs ~horizon:sim_horizon ~warmup:(0.1 *. sim_horizon) ()
  in
  let simulated = r.Switchsim.Sim.power in
  let lo = Float.min model simulated and hi = Float.max model simulated in
  if hi -. lo <= 3e-15 then Pass (* both below the noise floor *)
  else if lo > 0. && hi /. lo <= sim_tolerance_factor then Pass
  else
    fail "model %.4g W vs simulated %.4g W (factor %.2f > %.1f)" model
      simulated
      (if lo > 0. then hi /. lo else Float.infinity)
      sim_tolerance_factor

(* --- 2b. VCD round-trip: dump a simulation, re-read it, recount --- *)

(* A dump of a warm-up-free run must reproduce the run's accounting
   exactly: the initial settle is X→value (never 0↔1), and afterwards
   both the simulator and the reader count precisely the strict 0↔1
   transitions. *)
let vcd_horizon = 50.

let check_vcd_roundtrip ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let sim = Switchsim.Sim.build proc c in
  let buf = Buffer.create 4096 in
  let observer, finish =
    Switchsim.Vcd_dump.make sim ~probe_internals:(seed land 1 = 0)
      ~emit:(Buffer.add_string buf) ()
  in
  let r =
    Switchsim.Sim.run_stats sim
      ~rng:(Stoch.Rng.create (seed + 0x5cd))
      ~stats:inputs ~horizon:vcd_horizon ~observer ()
  in
  finish ~time:vcd_horizon;
  match Vcd.parse (Buffer.contents buf) with
  | Error e -> fail "dump does not parse: %s" e
  | Ok doc ->
      let toggles = Vcd.toggle_counts doc in
      let finals = Vcd.final_values doc in
      let key net =
        Switchsim.Vcd_dump.sanitize (C.name c)
        ^ "."
        ^ Switchsim.Vcd_dump.sanitize (C.net_name c net)
      in
      let vcd_value = function
        | Switchsim.Sim.V0 -> Vcd.V0
        | Switchsim.Sim.V1 -> Vcd.V1
        | Switchsim.Sim.VX -> Vcd.VX
      in
      all_nets c 0 ~f:(fun net ->
          let k = key net in
          match (List.assoc_opt k toggles, List.assoc_opt k finals) with
          | None, _ | _, None -> fail "net %s missing from the dump" k
          | Some n, Some v ->
              if n <> r.Switchsim.Sim.net_toggles.(net) then
                fail "net %s: %d toggles in the dump, %d in the simulation" k n
                  r.Switchsim.Sim.net_toggles.(net)
              else if v <> vcd_value r.Switchsim.Sim.final_values.(net) then
                fail "net %s: final value differs from the simulator's state" k
              else Pass)

(* --- 3. reordering preserves logical function --- *)

let function_vectors = 5
let max_configs_checked = 24

let check_function ~seed c =
  (* (a) the simulator, which honours each gate's configured transistor
     network, must settle to the functional evaluation. *)
  let sim = Switchsim.Sim.build proc c in
  let rec vectors k =
    if k >= function_vectors then Pass
    else
      let bit net = Gen.vector ~seed k c net in
      let r =
        Switchsim.Sim.run sim
          ~inputs:(fun net -> Stoch.Waveform.constant (bit net) ~horizon:1.0)
          ()
      in
      let expected = Netlist.Eval.nets c ~inputs:bit in
      let mismatch =
        List.find_opt
          (fun net ->
            let settled = r.Switchsim.Sim.net_high_time.(net) > 0.5 in
            settled <> expected.(net))
          (C.primary_outputs c)
      in
      match mismatch with
      | Some net ->
          fail "vector %d: simulator settles %s to %b, eval says %b" k
            (C.net_name c net)
            (r.Switchsim.Sim.net_high_time.(net) > 0.5)
            expected.(net)
      | None -> vectors (k + 1)
  in
  let* () = vectors 0 in
  (* (b) every (sampled) configuration of every cell used by the circuit
     computes the cell's function. *)
  let m = Bdd.manager () in
  let seen = Hashtbl.create 8 in
  let rec gates g =
    if g >= C.gate_count c then Pass
    else
      let cell = (C.gate_at c g).C.cell in
      let name = Cell.Gate.name cell in
      if Hashtbl.mem seen name then gates (g + 1)
      else begin
        Hashtbl.add seen name ();
        let reference = Cell.Gate.function_bdd m cell in
        let n = Cell.Gate.config_count cell in
        let stride = if n <= max_configs_checked then 1 else n / max_configs_checked in
        let rec check i =
          if i >= n then gates (g + 1)
          else if i mod stride <> 0 then check (i + 1)
          else
            let f =
              Sp.Network.output_function m (Cell.Config.nth_network cell i)
            in
            if not (Bdd.equal f reference) then
              fail "%s configuration %d computes a different function" name i
            else check (i + 1)
        in
        check 0
      end
  in
  gates 0

(* --- 4. optimizer monotonicity and report consistency --- *)

(* The paper's Fig. 3 as a plain loop over [C.topological_order], for the
   two objectives the optimizer visits level by level instead: each
   gate's candidates in index order, replacing the incumbent only on a
   strictly lower cost. [Min_delay] costs a candidate's worst pin delay;
   [Min_power_delay_bounded] costs its power and admits it only if a
   full static timing of the circuit with it in place stays within the
   input's critical delay. *)
let reference_configs objective c ~inputs =
  let analysis = Power.Analysis.run (power ()) c ~inputs in
  let configs = Array.init (C.gate_count c) (fun g -> (C.gate_at c g).C.config) in
  let critical () =
    Delay.Sta.critical_delay (Delay.Sta.run (delay ()) (C.with_configs c configs))
  in
  let budget = critical () +. 1e-18 in
  List.iter
    (fun g ->
      let gate = C.gate_at c g in
      let load = Netlist.Load.output proc c g in
      let cost config =
        match objective with
        | Reorder.Optimizer.Min_delay ->
            Delay.Elmore.worst_delay (delay ()) gate.C.cell ~config ~load
        | _ -> (Power.Estimate.gate (power ()) c analysis g ~config).Power.Model.total
      in
      let admissible config =
        objective <> Reorder.Optimizer.Min_power_delay_bounded
        ||
        let incumbent = configs.(g) in
        configs.(g) <- config;
        let ok = critical () <= budget in
        configs.(g) <- incumbent;
        ok
      in
      let best = ref gate.C.config and best_cost = ref (cost gate.C.config) in
      for config = 0 to Cell.Gate.config_count gate.C.cell - 1 do
        if admissible config then begin
          let k = cost config in
          if k < !best_cost then begin
            best := config;
            best_cost := k
          end
        end
      done;
      configs.(g) <- !best)
    (C.topological_order c);
  configs

let check_against_reference ~inputs c ~name objective =
  let report =
    Reorder.Optimizer.optimize (power ()) ~delay:(delay ()) ~objective c ~inputs
  in
  let expected = reference_configs objective c ~inputs in
  let rec first g =
    if g >= C.gate_count c then Pass
    else if report.Reorder.Optimizer.configs.(g) <> expected.(g) then
      fail "%s: gate %d chose configuration %d, the Fig. 3 reference %d" name g
        report.Reorder.Optimizer.configs.(g) expected.(g)
    else first (g + 1)
  in
  first 0

let check_optimizer ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let best, worst =
    Reorder.Optimizer.best_and_worst (power ()) ~delay:(delay ()) c ~inputs
  in
  let le a b = a <= b +. (1e-9 *. (Float.abs a +. Float.abs b)) +. 1e-21 in
  let* () =
    if le best.Reorder.Optimizer.power_after best.Reorder.Optimizer.power_before
    then Pass
    else
      fail "Min_power increased power: %.12g -> %.12g W"
        best.Reorder.Optimizer.power_before best.Reorder.Optimizer.power_after
  in
  let* () =
    if le worst.Reorder.Optimizer.power_before worst.Reorder.Optimizer.power_after
    then Pass
    else
      fail "Max_power decreased power: %.12g -> %.12g W"
        worst.Reorder.Optimizer.power_before worst.Reorder.Optimizer.power_after
  in
  let* () =
    if le best.Reorder.Optimizer.power_after worst.Reorder.Optimizer.power_after
    then Pass
    else
      fail "best %.12g W above worst %.12g W"
        best.Reorder.Optimizer.power_after worst.Reorder.Optimizer.power_after
  in
  (* The chosen configuration must re-evaluate to the reported power. *)
  let rewritten = best.Reorder.Optimizer.circuit in
  let* () =
    let mismatch = ref None in
    Array.iteri
      (fun g chosen ->
        if (C.gate_at rewritten g).C.config <> chosen then mismatch := Some g)
      best.Reorder.Optimizer.configs;
    match !mismatch with
    | Some g -> fail "gate %d: rewritten config differs from report" g
    | None -> Pass
  in
  let* () =
    let analysis = Power.Analysis.run (power ()) rewritten ~inputs in
    let again = Power.Estimate.total (power ()) rewritten analysis in
    if close ~rtol:1e-9 again best.Reorder.Optimizer.power_after then Pass
    else
      fail "re-evaluated power %.12g W, report says %.12g W" again
        best.Reorder.Optimizer.power_after
  in
  let* () =
    check_against_reference ~inputs c ~name:"Min_delay"
      Reorder.Optimizer.Min_delay
  in
  let* () =
    check_against_reference ~inputs c ~name:"Min_power_delay_bounded"
      Reorder.Optimizer.Min_power_delay_bounded
  in
  let r =
    Reorder.Optimizer.reduction_percent
      ~best:best.Reorder.Optimizer.power_after
      ~worst:worst.Reorder.Optimizer.power_after
  in
  if r >= 0. && r <= 100. then Pass
  else fail "reduction_percent %.6g outside [0, 100]" r

(* --- 5. Netlist.Io round-trip --- *)

let check_roundtrip ~seed:_ c =
  let text = Netlist.Io.to_string c in
  match Netlist.Io.of_string text with
  | exception Netlist.Io.Parse_error { line; message } ->
      fail "printed netlist does not parse (line %d: %s)" line message
  | exception C.Invalid message ->
      fail "printed netlist does not validate: %s" message
  | c2 ->
      let* () =
        if Netlist.Io.to_string c2 = text then Pass
        else fail "print ∘ parse ∘ print is not a fixpoint"
      in
      let* () =
        if C.gate_count c2 = C.gate_count c && C.net_count c2 = C.net_count c
        then Pass
        else fail "gate/net counts changed across the round-trip"
      in
      let names c = List.init (C.net_count c) (C.net_name c) in
      let* () =
        if names c2 = names c then Pass
        else fail "net names changed across the round-trip"
      in
      let configs c =
        Array.to_list (Array.map (fun (g : C.gate) -> g.C.config) (C.gates c))
      in
      let* () =
        if configs c2 = configs c then Pass
        else fail "configurations changed across the round-trip"
      in
      let by_name c l = List.map (C.net_name c) l in
      if
        by_name c2 (C.primary_inputs c2) = by_name c (C.primary_inputs c)
        && by_name c2 (C.primary_outputs c2) = by_name c (C.primary_outputs c)
      then Pass
      else fail "primary input/output lists changed across the round-trip"

(* --- 6. density-propagation invariants --- *)

let c_densities = Obs.counter "power.densities_propagated"

let check_densities ~seed c =
  let before = Obs.value c_densities in
  let analysis = Power.Analysis.run (power ()) c ~inputs:(Gen.input_stats ~seed c) in
  let propagated = Obs.value c_densities - before in
  let* () =
    if propagated = C.gate_count c then Pass
    else
      fail "densities propagated %d times for %d gates (must be once per net)"
        propagated (C.gate_count c)
  in
  all_nets c 0 ~f:(fun net ->
      let s = Power.Analysis.stats analysis net in
      let module S = Stoch.Signal_stats in
      let p = S.prob s and d = S.density s in
      if not (Float.is_finite p && p >= 0. && p <= 1.) then
        fail "net %s: probability %.12g outside [0, 1]" (C.net_name c net) p
      else if not (Float.is_finite d && d >= 0.) then
        fail "net %s: negative or non-finite density %.12g" (C.net_name c net) d
      else Pass)

(* --- 7. series-parallel reordering equivalence --- *)

let check_sp_orderings ~seed:_ t =
  let orderings = Sp.Sp_tree.orderings t in
  let* () =
    let counted = Sp.Sp_tree.count_orderings t in
    if counted = List.length orderings then Pass
    else
      fail "count_orderings says %d, enumeration finds %d" counted
        (List.length orderings)
  in
  let m = Bdd.manager () in
  let reference = Sp.Sp_tree.conduction m Sp.Sp_tree.Nmos t in
  let* () =
    let rec check i = function
      | [] -> Pass
      | o :: rest ->
          if Bdd.equal (Sp.Sp_tree.conduction m Sp.Sp_tree.Nmos o) reference
          then check (i + 1) rest
          else fail "ordering %d conducts differently" i
    in
    check 0 orderings
  in
  let canon l =
    List.sort Sp.Sp_tree.compare (List.map Sp.Sp_tree.canonical l)
  in
  let pivoted = Sp.Sp_tree.pivot_orderings t in
  if canon pivoted = canon orderings then Pass
  else
    fail "pivot exploration visits %d configurations, enumeration %d"
      (List.length pivoted) (List.length orderings)

(* --- 8. attribution-ledger conservation --- *)

let check_attribution ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let report = Reorder.Optimizer.optimize (power ()) ~delay:(delay ()) c ~inputs in
  let ledger = Attrib.of_report (power ()) ~before:c ~inputs report in
  let rec gates = function
    | [] ->
        let* () =
          if close ~rtol:1e-9 ledger.Attrib.total_after
               report.Reorder.Optimizer.power_after
          then Pass
          else
            fail "ledger after-total %.12g W, report says %.12g W"
              ledger.Attrib.total_after report.Reorder.Optimizer.power_after
        in
        let* () =
          if close ~rtol:1e-9 ledger.Attrib.total_before
               report.Reorder.Optimizer.power_before
          then Pass
          else
            fail "ledger before-total %.12g W, report says %.12g W"
              ledger.Attrib.total_before report.Reorder.Optimizer.power_before
        in
        let e = Attrib.conservation_error ledger in
        if e <= 1e-9 then Pass
        else fail "worst per-gate conservation error %.3g > 1e-9" e
    | (g : Attrib.gate_entry) :: rest -> (
        let* () =
          if close ~rtol:1e-9 (Attrib.node_sum g) g.Attrib.after_total then Pass
          else
            fail "gate %d (%s): node powers sum to %.12g W, gate total %.12g W"
              g.Attrib.index g.Attrib.out_net (Attrib.node_sum g)
              g.Attrib.after_total
        in
        let input_sum (n : Attrib.node_share) =
          Array.fold_left (fun acc (_, w) -> acc +. w) 0. n.Attrib.per_input
        in
        match
          List.find_opt
            (fun (n : Attrib.node_share) ->
              not (close ~rtol:1e-9 (input_sum n) n.Attrib.power))
            g.Attrib.nodes
        with
        | Some n ->
            fail
              "gate %d (%s): per-input contributions sum to %.12g W, node \
               power %.12g W"
              g.Attrib.index g.Attrib.out_net (input_sum n) n.Attrib.power
        | None -> gates rest)
  in
  gates (Array.to_list ledger.Attrib.gates)

(* --- 9. parallel determinism --- *)

(* One shared 4-domain pool, like the model tables: created on first
   use, torn down at exit. *)
let det_pool =
  lazy
    (let p = Par.Pool.create ~jobs:4 () in
     at_exit (fun () -> Par.Pool.shutdown p);
     p)

let check_parallel_determinism ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let pool = Lazy.force det_pool in
  let module O = Reorder.Optimizer in
  let run ?pool ?memo () =
    O.optimize (power ()) ~delay:(delay ()) ?pool ?memo c ~inputs
  in
  let seq = run () in
  let par = run ~pool () in
  (* Bit-identical, not close: the parallel driver folds worker results
     in submission order, so every float must match exactly. *)
  let* () =
    if par.O.power_before = seq.O.power_before then Pass
    else
      fail "power_before: parallel %.17g W, sequential %.17g W"
        par.O.power_before seq.O.power_before
  in
  let* () =
    if par.O.power_after = seq.O.power_after then Pass
    else
      fail "power_after: parallel %.17g W, sequential %.17g W"
        par.O.power_after seq.O.power_after
  in
  let* () =
    if par.O.configs = seq.O.configs then Pass
    else
      let g = ref 0 in
      Array.iteri
        (fun i s -> if par.O.configs.(i) <> s then g := i)
        seq.O.configs;
      fail "gate %d: parallel chose config %d, sequential %d" !g
        par.O.configs.(!g) seq.O.configs.(!g)
  in
  let* () =
    if par.O.configurations_explored = seq.O.configurations_explored then Pass
    else
      fail "configurations_explored: parallel %d, sequential %d"
        par.O.configurations_explored seq.O.configurations_explored
  in
  let ledger r = Attrib.of_report (power ()) ~before:c ~inputs r in
  let ls = ledger seq and lp = ledger par in
  let* () =
    if
      lp.Attrib.total_before = ls.Attrib.total_before
      && lp.Attrib.total_after = ls.Attrib.total_after
    then Pass
    else
      fail "ledger totals: parallel %.17g/%.17g W, sequential %.17g/%.17g W"
        lp.Attrib.total_before lp.Attrib.total_after ls.Attrib.total_before
        ls.Attrib.total_after
  in
  (* Memoized runs too: the memo's winners are pure functions of the
     key, so domain count must not change them either. *)
  let mseq = run ~memo:(Reorder.Memo.create ()) () in
  let mpar = run ~pool ~memo:(Reorder.Memo.create ()) () in
  if mpar.O.power_after = mseq.O.power_after && mpar.O.configs = mseq.O.configs
  then Pass
  else
    fail "memoized runs diverge: parallel %.17g W, sequential %.17g W"
      mpar.O.power_after mseq.O.power_after

(* --- 11. archive round-trip --- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let check_archive_roundtrip ~seed c =
  let inputs = Gen.input_stats ~seed c in
  let report =
    Reorder.Optimizer.optimize (power ()) ~delay:(delay ()) c ~inputs
  in
  let ledger = Attrib.of_report (power ()) ~before:c ~inputs report in
  let dir = Filename.temp_dir "treorder_oracle" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p =
    Runlog.start ~subcommand:"proptest" ~argv:[ "archive-roundtrip" ] ()
  in
  Runlog.set_param p "seed" (string_of_int seed);
  Runlog.set_param p "circuit" (C.name c);
  Runlog.attach p ~name:"ledger" ~json:(Attrib.to_json ledger);
  let snapshot_json = Json.print (Obs.json_of_snapshot (Obs.snapshot ())) in
  match Runlog.write ~id:"case" ~dir ~snapshot_json p with
  | Error e -> fail "archive write failed: %s" e
  | Ok run_dir -> (
      match Runlog.load_run run_dir with
      | Error e -> fail "archive does not load back: %s" e
      | Ok run -> (
          let m = run.Runlog.manifest in
          let* () =
            if m.Runlog.subcommand = "proptest" then Pass
            else fail "subcommand %S after round-trip" m.Runlog.subcommand
          in
          let* () =
            if List.assoc_opt "seed" m.Runlog.params = Some (string_of_int seed)
            then Pass
            else fail "seed parameter lost across the round-trip"
          in
          let* () =
            if m.Runlog.attachments = [ "ledger" ] then Pass
            else
              fail "attachment list [%s] after round-trip"
                (String.concat "; " m.Runlog.attachments)
          in
          match
            Result.bind (Runlog.read_attachment run "ledger")
              Runlog.ledger_of_json
          with
          | Error e -> fail "ledger does not decode: %s" e
          | Ok l ->
              (* %.17g rendering: every float must survive bit-exactly. *)
              let* () =
                if
                  l.Runlog.l_total_before = ledger.Attrib.total_before
                  && l.Runlog.l_total_after = ledger.Attrib.total_after
                then Pass
                else
                  fail
                    "ledger totals drift across the JSON round-trip: \
                     %.17g/%.17g vs %.17g/%.17g"
                    l.Runlog.l_total_before l.Runlog.l_total_after
                    ledger.Attrib.total_before ledger.Attrib.total_after
              in
              let* () =
                if
                  Array.length l.Runlog.l_gates
                  = Array.length ledger.Attrib.gates
                then Pass
                else
                  fail "gate count %d after round-trip, %d before"
                    (Array.length l.Runlog.l_gates)
                    (Array.length ledger.Attrib.gates)
              in
              let rec gates i =
                if i >= Array.length l.Runlog.l_gates then Pass
                else
                  let g = l.Runlog.l_gates.(i)
                  and e = ledger.Attrib.gates.(i) in
                  if
                    g.Runlog.g_index = e.Attrib.index
                    && g.Runlog.g_out = e.Attrib.out_net
                    && g.Runlog.g_cell = e.Attrib.cell
                    && g.Runlog.g_config_before = e.Attrib.config_before
                    && g.Runlog.g_config_after = e.Attrib.config_after
                    && g.Runlog.g_power_before = e.Attrib.before_total
                    && g.Runlog.g_power_after = e.Attrib.after_total
                  then gates (i + 1)
                  else
                    fail "gate %d (%s) drifts across the JSON round-trip" i
                      e.Attrib.out_net
              in
              let* () = gates 0 in
              let d = Runlog.diff run run in
              if Runlog.is_clean d then Pass
              else fail "self-diff is not clean:\n%s" (Runlog.render_diff d)))

(* --- 12. mc convergence: bit-parallel Monte-Carlo vs the others --- *)

(* Two halves. (a) Function preservation, exact: every lane of the
   word-parallel evaluator equals the scalar evaluator on that lane's
   vector. (b) Statistical convergence: MC per-net densities at a fixed
   seed agree with a switch-level simulation of the same input model
   within a few standard errors of BOTH estimators (each side carries
   its own sampling noise; the relative term covers MC's time
   discretization, which sees at most one transition per net per step). *)

let mc_sim_horizon = 500.
let mc_samples = 65536

let check_mc_convergence ~seed c =
  (* (a) exact per-lane agreement with Netlist.Eval *)
  let rng = Stoch.Rng.create (seed + 0x6dc0) in
  let words =
    List.map (fun net -> (net, Stoch.Rng.bits64 rng)) (C.primary_inputs c)
  in
  let values = Mc.eval_nets c ~inputs:(fun net -> List.assoc net words) in
  let rec lanes = function
    | [] -> Pass
    | lane :: rest -> (
        let bit net = (Mc.unpack (List.assoc net words)).(lane) in
        let expected = Netlist.Eval.nets c ~inputs:bit in
        let mismatch =
          List.find_opt
            (fun net -> (Mc.unpack values.(net)).(lane) <> expected.(net))
            (List.init (C.net_count c) Fun.id)
        in
        match mismatch with
        | Some net ->
            fail "lane %d: word eval says %b on %s, scalar eval %b" lane
              (Mc.unpack values.(net)).(lane)
              (C.net_name c net) expected.(net)
        | None -> lanes rest)
  in
  let* () = lanes [ 0; 31; 63 ] in
  (* (b) density convergence against the simulator *)
  let inputs = Gen.input_stats ~seed c in
  let r =
    Mc.estimate (power ()) ~samples:mc_samples ~seed:(seed + 0x3c) ~inputs c
  in
  let sim = Switchsim.Sim.build proc c in
  let sr =
    Switchsim.Sim.run_stats sim
      ~rng:(Stoch.Rng.create (seed + 0x51a))
      ~stats:inputs ~horizon:mc_sim_horizon ~warmup:(0.1 *. mc_sim_horizon) ()
  in
  let window = sr.Switchsim.Sim.horizon in
  (* The simulator's single finite realization carries two kinds of
     noise: Poisson noise on each net's toggle count, and a correlated
     component from slow inputs — a telegraph input with correlation
     time tau = 1/(r01 + r10) = 2 P (1-P) / D whose realized duty cycle
     drifts over the window drags every downstream density with it.
     Bound both, taking the slowest input's tau as the circuit-wide
     correlation scale. *)
  let tau_max =
    List.fold_left
      (fun acc net ->
        let s = inputs net in
        let p = Stoch.Signal_stats.prob s
        and d = Stoch.Signal_stats.density s in
        if d <= 0. then acc
        else Float.max acc (2. *. p *. (1. -. p) /. d))
      0. (C.primary_inputs c)
  in
  let corr = sqrt (2. *. tau_max /. window) in
  all_nets c 0 ~f:(fun net ->
      let toggles = sr.Switchsim.Sim.net_toggles.(net) in
      if toggles < 16 then Pass (* below the simulator's own resolution *)
      else
        let d_sim = float_of_int toggles /. window in
        let d_mc = r.Mc.density.(net) in
        let d_ref = Float.max d_sim d_mc in
        let se_sim = sqrt (float_of_int toggles) /. window in
        let bound =
          (4. *. (r.Mc.density_se.(net) +. se_sim +. (d_ref *. corr)))
          +. (0.06 *. d_ref)
        in
        let* () =
          if Float.abs (d_mc -. d_sim) <= bound then Pass
          else
            fail "net %s: mc density %.4g vs simulated %.4g (bound %.4g)"
              (C.net_name c net) d_mc d_sim bound
        in
        let p_sim =
          Stoch.Signal_stats.prob (Switchsim.Sim.measured_stats sr net)
        in
        let se_p_sim = sqrt (p_sim *. (1. -. p_sim)) *. corr in
        let p_bound = (4. *. (r.Mc.prob_se.(net) +. se_p_sim)) +. 0.02 in
        if Float.abs (r.Mc.prob.(net) -. p_sim) <= p_bound then Pass
        else
          fail "net %s: mc probability %.4g vs simulated %.4g (bound %.4g)"
            (C.net_name c net) r.Mc.prob.(net) p_sim p_bound)

(* --- 13. telemetry consistency --- *)

(* The sampler is a read-only observer: its ring must agree with the
   registry it watches. A manual-interval session (no background
   domain) makes the sample count deterministic. Skipped when a user
   session already owns the sampler (fuzz under --telemetry) — stopping
   it here would tear down their run's telemetry. *)

let check_telemetry_consistency ~seed c =
  if Telemetry.running () then Pass
  else begin
    let inputs = Gen.input_stats ~seed c in
    (* Heartbeats go to the trace sink; only install (and later remove)
       a scratch one when the harness didn't provide its own. *)
    let own_sink = not (Obs.tracing ()) in
    let trace_file =
      if own_sink then begin
        let path = Filename.temp_file "treorder_oracle" ".ndjson" in
        Obs.set_sink (Obs.file_sink path);
        Some path
      end
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.stop ();
        if own_sink then begin
          Obs.close_sink ();
          Option.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            trace_file
        end)
    @@ fun () ->
    Telemetry.start ~interval:0. ~capacity:8 ();
    ignore (Telemetry.sample_now ());
    ignore (Reorder.Optimizer.optimize (power ()) ~delay:(delay ()) c ~inputs);
    ignore (Telemetry.sample_now ());
    ignore (Reorder.Optimizer.optimize (power ()) ~delay:(delay ()) c ~inputs);
    Telemetry.stop ();
    let series = Telemetry.series () in
    let* () =
      if List.length series >= 3 then Pass
      else fail "expected >= 3 ring samples, got %d" (List.length series)
    in
    (* (a) every counter is monotone non-decreasing across the series *)
    let rec monotone = function
      | a :: (b :: _ as rest) ->
          let drop =
            Array.to_list a.Telemetry.s_counters
            |> List.find_opt (fun (name, va) ->
                   match
                     Array.to_list b.Telemetry.s_counters
                     |> List.assoc_opt name
                   with
                   | Some vb -> vb < va
                   | None -> true)
          in
          let* () =
            match drop with
            | None -> Pass
            | Some (name, va) ->
                fail "counter %s drops below %d between samples" name va
          in
          monotone rest
      | _ -> Pass
    in
    let* () = monotone series in
    (* (b) the final (forced) sample equals the final registry snapshot,
       excluding the sampler's own obs.* cost counters — the last tick's
       cost lands after that tick read the registry. *)
    let not_obs (name, _) =
      not (String.length name >= 4 && String.sub name 0 4 = "obs.")
    in
    let final_sample =
      match Telemetry.last () with
      | Some s -> s
      | None -> assert false (* series is non-empty *)
    in
    let sample_counters =
      List.filter not_obs (Array.to_list final_sample.Telemetry.s_counters)
    in
    let snap_counters =
      List.filter not_obs (Obs.snapshot ()).Obs.counters
    in
    let* () =
      if sample_counters = snap_counters then Pass
      else fail "final telemetry sample disagrees with the Obs snapshot"
    in
    (* (c) the OpenMetrics rendering round-trips through the strict
       parser with every counter value intact *)
    let* () =
      match
        Telemetry.parse_openmetrics (Telemetry.to_openmetrics final_sample)
      with
      | Error e -> fail "OpenMetrics rendering rejected by parser: %s" e
      | Ok metrics ->
          let bad =
            List.find_opt
              (fun (name, v) ->
                let family, labels = Telemetry.metric_of_counter name in
                Telemetry.metric_value metrics ~labels (family ^ "_total")
                <> Some (float_of_int v))
              sample_counters
          in
          (match bad with
          | None -> Pass
          | Some (name, v) ->
              fail "counter %s = %d lost in the OpenMetrics round-trip" name v)
    in
    (* (d) heartbeats in the trace: percent in [0, 100], monotone within
       each phase *)
    match trace_file with
    | None -> Pass
    | Some path -> (
        match Trace.load path with
        | Error e -> fail "trace with heartbeats does not parse: %s" e
        | Ok events ->
            let tbl = Hashtbl.create 7 in
            let rec walk = function
              | [] -> Pass
              | Trace.Heartbeat { phase; percent; _ } :: rest ->
                  let* () =
                    if percent < 0. || percent > 100. then
                      fail "heartbeat percent %g outside [0, 100]" percent
                    else
                      match Hashtbl.find_opt tbl phase with
                      | Some prev when percent < prev ->
                          fail
                            "heartbeat percent drops %g -> %g within phase %S"
                            prev percent phase
                      | _ ->
                          Hashtbl.replace tbl phase percent;
                          Pass
                  in
                  walk rest
              | _ :: rest -> walk rest
            in
            walk events)
  end

(* --- 14. history consistency --- *)

(* Fleet analytics must be a pure function of the archived bytes:
   synthesize K run records with pinned timestamps and gnarly %.17g
   counter values plus one piecewise-constant step, write them in two
   different filesystem orders, and demand (a) extraction returns the
   source values bit-for-bit, (b) the full report (trends, shifts,
   JSON) is byte-identical regardless of scan order, (c) the injected
   step is attributed to exactly the first shifted run, and (d) the
   HTML dashboard round-trips through its own strict validator with
   every rendered series accounted for. *)

let check_history_consistency ~seed c =
  let name = C.name c in
  let k = 5 + (abs seed mod 4) in
  let split = 2 + (abs seed mod (k - 3)) in
  (* bit-exactness fodder: non-terminating binary expansions *)
  let value i = (float_of_int (i + 1) /. 3.) +. (float_of_int seed /. 7.) in
  let step i = if i >= split then 7500. else 5000. in
  let write_text path text =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text)
  in
  let write_record dir i =
    let run_dir = Filename.concat dir (Printf.sprintf "r%02d" i) in
    Unix.mkdir run_dir 0o755;
    let write file fields =
      write_text (Filename.concat run_dir file) (Json.print (Json.Obj fields))
    in
    write "snapshot.json"
      [
        ( "counters",
          Json.Obj
            [
              ("oracle.step", Json.Num (step i));
              ("oracle.value", Json.Num (value i));
            ] );
        ("distributions", Json.Obj []);
        ("spans", Json.Obj []);
        ("gc", Json.Obj []);
      ];
    let started = float_of_int (1700000000 + i) in
    write "manifest.json"
      [
        ("runlog_version", Json.int 1);
        ("tool", Json.Str "treorder");
        ("tool_version", Json.Str "oracle");
        ("subcommand", Json.Str "optimize");
        ("argv", Json.Arr [ Json.Str "optimize"; Json.Str name ]);
        ("inputs", Json.Arr []);
        ( "params",
          Json.Obj [ ("circuit", Json.Str name); ("seed", Json.Str "42") ] );
        ("started", Json.Num started);
        ("finished", Json.Num (started +. 0.25));
        ("attachments", Json.Arr []);
      ]
  in
  let with_archive order f =
    let dir = Filename.temp_dir "treorder_oracle" "" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    List.iter (write_record dir) order;
    f dir
  in
  let metrics = [ "oracle.step"; "oracle.value"; "wall_s" ] in
  let report_of dir =
    match History.load_archive dir with
    | Error e -> Error e
    | Ok records -> Ok (records, History.build ~metrics records)
  in
  with_archive (List.init k Fun.id) @@ fun dir_fwd ->
  with_archive (List.rev (List.init k Fun.id)) @@ fun dir_rev ->
  match (report_of dir_fwd, report_of dir_rev) with
  | Error e, _ | _, Error e -> fail "archive does not load: %s" e
  | Ok (records, report), Ok (_, report_rev) -> (
      let* () =
        if List.length records = k then Pass
        else fail "extracted %d records, wrote %d" (List.length records) k
      in
      (* (a) source values survive extraction bit-for-bit *)
      let* () =
        let rec check i = function
          | [] -> Pass
          | r :: rest -> (
              match
                ( List.assoc_opt "oracle.value" r.History.r_metrics,
                  List.assoc_opt "oracle.step" r.History.r_metrics )
              with
              | Some v, Some s when v = value i && s = step i ->
                  check (i + 1) rest
              | Some v, _ when v <> value i ->
                  fail "run %d: oracle.value %.17g, wrote %.17g" i v (value i)
              | _ -> fail "run %d: extracted metrics incomplete" i)
        in
        check 0 records
      in
      (* (b) scan order cannot leak into the report; the two archives
         live in different scratch dirs, so normalize the roots out of
         the [source] fields before comparing bytes *)
      let* () =
        let strip root s =
          let b = Buffer.create (String.length s) in
          let rl = String.length root and n = String.length s in
          let i = ref 0 in
          while !i < n do
            if !i + rl <= n && String.sub s !i rl = root then (
              Buffer.add_string b "$ROOT";
              i := !i + rl)
            else (
              Buffer.add_char b s.[!i];
              incr i)
          done;
          Buffer.contents b
        in
        if
          strip dir_fwd (History.to_json report)
          = strip dir_rev (History.to_json report_rev)
        then Pass
        else fail "report differs across filesystem write orders"
      in
      (* (c) the injected step is attributed exactly *)
      let* () =
        match
          List.concat_map
            (fun (g : History.group) ->
              List.concat_map
                (fun (s : History.series) ->
                  if s.History.se_metric = "oracle.step" then
                    s.History.se_shifts
                  else [])
                g.History.g_series)
            report.History.groups
        with
        | [ sh ] ->
            if sh.History.sh_index <> split then
              fail "step flagged at index %d, injected at %d"
                sh.History.sh_index split
            else if sh.History.sh_direction <> History.Up then
              fail "step direction not Up"
            else Pass
        | shifts ->
            fail "expected exactly 1 shift on oracle.step, got %d"
              (List.length shifts)
      in
      (* (d) the dashboard validates, inventories every series, and is
         itself deterministic *)
      let html = Html.render report in
      let* () =
        if html = Html.render report then Pass
        else fail "dashboard render is not deterministic"
      in
      match Html.parse_report html with
      | Error e -> fail "dashboard fails its own validator: %s" e
      | Ok parsed ->
          let rendered =
            List.fold_left
              (fun acc (g : History.group) ->
                acc + List.length g.History.g_series)
              0 report.History.groups
          in
          if List.length parsed.Html.pr_series = rendered then Pass
          else
            fail "dashboard inventories %d series, report has %d"
              (List.length parsed.Html.pr_series)
              rendered)

(* --- 15. incremental equivalence --- *)

(* A session apply must be bit-identical to a cold full optimization of
   the edited circuit under the edited input model — report, winning
   configurations and attribution ledger alike — and stay so across
   domain counts and with a session memo. *)
let check_incremental_equivalence ~seed c =
  let module O = Reorder.Optimizer in
  let module I = Incremental in
  let base = Gen.input_stats ~seed c in
  (* One mutable input model shared by the sessions (which snapshot it
     at creation and then see edits only through the edit language) and
     the cold reference (which reads it after the mirror mutation). *)
  let stats = Hashtbl.create 16 in
  List.iter (fun pi -> Hashtbl.replace stats pi (base pi)) (C.primary_inputs c);
  let inputs n = Hashtbl.find stats n in
  let rng = Stoch.Rng.create ((seed * 2) + 1) in
  let pis = Array.of_list (C.primary_inputs c) in
  let stat_edit () =
    let pi = pis.(Stoch.Rng.int rng (Array.length pis)) in
    let s =
      Stoch.Signal_stats.make
        ~prob:(Stoch.Rng.float_range rng 0.05 0.95)
        ~density:(Stoch.Rng.float_range rng 1e5 2e8)
    in
    I.Set_input_stats (pi, s)
  in
  let config_edit circuit =
    let g = Stoch.Rng.int rng (C.gate_count circuit) in
    let gate = C.gate_at circuit g in
    let k = Cell.Gate.config_count gate.C.cell in
    I.Replace_gate (g, { gate with C.config = Stoch.Rng.int rng k })
  in
  (* Mirror the session's edit semantics onto a cold-reference circuit
     and the shared input model. *)
  let apply_cold circuit edits =
    let gates = C.gates circuit in
    List.iter
      (function
        | I.Set_input_stats (n, s) -> Hashtbl.replace stats n s
        | I.Replace_gate (g, gate) -> gates.(g) <- gate
        | I.Set_external_load _ | I.Set_objective _ -> ())
      edits;
    C.create ~name:(C.name circuit)
      ~net_names:(Array.init (C.net_count circuit) (C.net_name circuit))
      ~primary_inputs:(C.primary_inputs circuit)
      ~primary_outputs:(C.primary_outputs circuit)
      ~gates:(Array.to_list gates)
  in
  let compare_cold ?(memoized = false) label sess edited =
    let rep = I.report sess in
    let el = I.external_load sess in
    (* A memoized session decides from the memo's quantized
       representatives, so its cold reference must be memoized too (a
       fresh memo: misses are pure functions of the key, so warm hits
       in the session return exactly what the fresh miss computes). *)
    let memo = if memoized then Some (Reorder.Memo.create ()) else None in
    let cold =
      O.optimize (power ()) ~delay:(delay ()) ~external_load:el ?memo edited
        ~inputs
    in
    let* () =
      if rep.O.power_before = cold.O.power_before then Pass
      else
        fail "%s: power_before: session %.17g W, cold %.17g W" label
          rep.O.power_before cold.O.power_before
    in
    let* () =
      if rep.O.power_after = cold.O.power_after then Pass
      else
        fail "%s: power_after: session %.17g W, cold %.17g W" label
          rep.O.power_after cold.O.power_after
    in
    let* () =
      if rep.O.configs = cold.O.configs then Pass
      else
        let g = ref 0 in
        Array.iteri
          (fun i s -> if rep.O.configs.(i) <> s then g := i)
          cold.O.configs;
        fail "%s: gate %d: session chose config %d, cold %d" label !g
          rep.O.configs.(!g) cold.O.configs.(!g)
    in
    let l = I.ledger sess in
    let lc =
      Attrib.of_report (power ()) ~external_load:el ~before:edited ~inputs
        cold
    in
    let* () =
      if
        l.Attrib.total_before = lc.Attrib.total_before
        && l.Attrib.total_after = lc.Attrib.total_after
      then Pass
      else
        fail "%s: ledger totals: session %.17g/%.17g W, cold %.17g/%.17g W"
          label l.Attrib.total_before l.Attrib.total_after
          lc.Attrib.total_before lc.Attrib.total_after
    in
    let rec per_gate i =
      if i >= Array.length l.Attrib.gates then Pass
      else
        let a = l.Attrib.gates.(i) and b = lc.Attrib.gates.(i) in
        if
          a.Attrib.config_before = b.Attrib.config_before
          && a.Attrib.config_after = b.Attrib.config_after
          && a.Attrib.before_total = b.Attrib.before_total
          && a.Attrib.after_total = b.Attrib.after_total
        then per_gate (i + 1)
        else
          fail
            "%s: ledger gate %d: session %d->%d %.17g/%.17g W, cold \
             %d->%d %.17g/%.17g W"
            label i a.Attrib.config_before a.Attrib.config_after
            a.Attrib.before_total a.Attrib.after_total
            b.Attrib.config_before b.Attrib.config_after
            b.Attrib.before_total b.Attrib.after_total
    in
    per_gate 0
  in
  let pool = Lazy.force det_pool in
  let make ?memoize ?pool () =
    I.create ?memoize ?pool (power ()) ~delay:(delay ()) c ~inputs
  in
  let sess = make () in
  let sess_pool = make ~pool () in
  let sess_memo = make ~memoize:true () in
  (* First batch: statistics edits plus a configuration flip (the §4.2
     split of the edit space), built against the settled circuit the
     three sessions share bit-identically. *)
  let settled = I.circuit sess in
  (* The memoized session may settle at different (quantization-tied)
     winners than the unmemoized ones, so its cold reference is built
     from its own settled circuit. *)
  let settled_memo = I.circuit sess_memo in
  let batch =
    [ stat_edit (); stat_edit () ]
    @ (if C.gate_count settled > 0 then [ config_edit settled ] else [])
  in
  let edited = apply_cold settled batch in
  let edited_memo = apply_cold settled_memo batch in
  I.apply sess batch;
  I.apply ~pool sess_pool batch;
  I.apply sess_memo batch;
  let* () = compare_cold "sequential" sess edited in
  let* () = compare_cold "jobs=4" sess_pool edited in
  let* () = compare_cold ~memoized:true "memoized" sess_memo edited_memo in
  (* Second apply on the same session: a stats-only batch over the
     re-settled state, so cutoffs and reconvergent cones get exercised
     from a warm cache rather than a fresh one. *)
  let batch2 = [ stat_edit () ] in
  let edited2 = apply_cold (I.circuit sess) batch2 in
  I.apply sess batch2;
  compare_cold "second apply" sess edited2

(* --- registry --- *)

let circuit_prop name generate check =
  Prop
    {
      name;
      generate;
      shrink = Shrink.circuit;
      print = Netlist.Io.to_string;
      check;
    }

let all () =
  [
    circuit_prop "exactness" Gen.tree_circuit check_exactness;
    circuit_prop "sim-power" Gen.tree_circuit check_sim_power;
    circuit_prop "vcd-roundtrip" Gen.circuit check_vcd_roundtrip;
    circuit_prop "function" Gen.circuit check_function;
    circuit_prop "optimizer" Gen.circuit check_optimizer;
    circuit_prop "io-roundtrip" Gen.circuit check_roundtrip;
    circuit_prop "densities" Gen.circuit check_densities;
    circuit_prop "attribution" Gen.circuit check_attribution;
    circuit_prop "parallel-determinism" Gen.circuit check_parallel_determinism;
    Prop
      {
        name = "sp-orderings";
        generate = Gen.sp_network;
        shrink = Shrink.sp;
        print = (fun t -> Sp.Sp_tree.to_string t);
        check = check_sp_orderings;
      };
    circuit_prop "archive-roundtrip" Gen.circuit check_archive_roundtrip;
    circuit_prop "mc-convergence" Gen.circuit check_mc_convergence;
    circuit_prop "telemetry-consistency" Gen.circuit
      check_telemetry_consistency;
    circuit_prop "history-consistency" Gen.circuit check_history_consistency;
    circuit_prop "incremental-equivalence" Gen.circuit
      check_incremental_equivalence;
  ]

let names () = List.map Runner.name (all ())
let find name = List.find_opt (fun p -> Runner.name p = name) (all ())
