(* The property-based testing subsystem itself: deterministic smoke tier
   over every oracle, generator well-formedness, shrinking behaviour,
   and counterexample reproducibility on a synthetic forced bug. *)

module C = Netlist.Circuit
module R = Proptest.Runner

(* --- smoke tier: every oracle, fixed seed, 200 cases --- *)

let smoke_cases = 200

let smoke_tests =
  List.map
    (fun p ->
      Alcotest.test_case (R.name p) `Quick (fun () ->
          let r = R.run ~seed:42 ~count:smoke_cases ~size:10 p in
          match r.R.counterexample with
          | None ->
              Alcotest.(check int)
                (R.name p ^ " ran every case")
                smoke_cases r.R.cases_run
          | Some cex ->
              Alcotest.failf "%s failed (seed %d): %s\n%s" (R.name p)
                cex.R.case_seed cex.R.message cex.R.printed))
    (Proptest.Oracles.all ())

(* The optimizer oracle on larger circuits, where the delay-bounded
   objective's admissibility check meets more boundary cases. *)
let test_optimizer_deep () =
  match Proptest.Oracles.find "optimizer" with
  | None -> Alcotest.fail "no optimizer oracle"
  | Some p -> (
      let r = R.run ~seed:42 ~count:30 ~size:60 p in
      match r.R.counterexample with
      | None -> Alcotest.(check int) "ran every case" 30 r.R.cases_run
      | Some cex ->
          Alcotest.failf "optimizer failed (seed %d): %s\n%s" cex.R.case_seed
            cex.R.message cex.R.printed)

(* --- generators --- *)

let test_gen_circuit_valid () =
  for seed = 0 to 60 do
    let c = Proptest.Gen.circuit (Stoch.Rng.create seed) ~size:12 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: 1..12 gates" seed)
      true
      (C.gate_count c >= 1 && C.gate_count c <= 12);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: has outputs" seed)
      true
      (C.primary_outputs c <> [])
  done

let test_gen_circuit_deterministic () =
  let text seed =
    Netlist.Io.to_string (Proptest.Gen.circuit (Stoch.Rng.create seed) ~size:12)
  in
  Alcotest.(check string) "same seed, same circuit" (text 7) (text 7);
  Alcotest.(check bool) "different seed, different circuit" true
    (text 7 <> text 8)

(* tree_circuit must be read-once: every net feeds at most one fanin
   pin, so the gate-local power propagation is exact on it. *)
let test_gen_tree_read_once () =
  for seed = 0 to 60 do
    let c = Proptest.Gen.tree_circuit (Stoch.Rng.create seed) ~size:12 in
    let reads = Array.make (C.net_count c) 0 in
    Array.iter
      (fun (g : C.gate) ->
        Array.iter (fun n -> reads.(n) <- reads.(n) + 1) g.C.fanins)
      (C.gates c);
    Array.iteri
      (fun net k ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: net %s read %d time(s)" seed
             (C.net_name c net) k)
          true (k <= 1))
      reads
  done

let test_gen_stimulus_well_formed () =
  let c = Proptest.Gen.circuit (Stoch.Rng.create 3) ~size:12 in
  let stats = Proptest.Gen.input_stats ~seed:9 c in
  List.iter
    (fun net ->
      let s = stats net in
      let p = Stoch.Signal_stats.prob s and d = Stoch.Signal_stats.density s in
      Alcotest.(check bool) "P in [0.05, 0.95]" true (p >= 0.05 && p <= 0.95);
      Alcotest.(check bool) "D in (0, 2]" true (d > 0. && d <= 2.))
    (C.primary_inputs c);
  (* keyed by name: independent of net numbering, stable across shrinks *)
  let s = stats (List.hd (C.primary_inputs c)) in
  let s' = Proptest.Gen.input_stats ~seed:9 c (List.hd (C.primary_inputs c)) in
  Alcotest.(check (float 0.)) "stimulus deterministic"
    (Stoch.Signal_stats.prob s) (Stoch.Signal_stats.prob s')

let test_gen_sp_network () =
  for seed = 0 to 60 do
    let t = Proptest.Gen.sp_network (Stoch.Rng.create seed) ~size:12 in
    let leaves = Sp.Sp_tree.inputs t in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: 2..6 distinct leaves" seed)
      true
      (List.length leaves >= 2
      && List.length leaves <= 6
      && List.length (List.sort_uniq compare leaves) = List.length leaves)
  done

(* --- shrinking --- *)

let test_shrink_candidates_smaller () =
  let c = Proptest.Gen.circuit (Stoch.Rng.create 11) ~size:12 in
  let candidates = Proptest.Shrink.circuit c in
  Alcotest.(check bool) "has candidates" true (candidates <> []);
  List.iter
    (fun c' ->
      Alcotest.(check bool) "candidate not larger" true
        (C.gate_count c' <= C.gate_count c))
    candidates

let test_shrink_sp_candidates () =
  let t = Proptest.Gen.sp_network (Stoch.Rng.create 11) ~size:12 in
  List.iter
    (fun t' ->
      Alcotest.(check bool) "candidate loses a leaf or a level" true
        (List.length (Sp.Sp_tree.inputs t') < List.length (Sp.Sp_tree.inputs t)
        || Sp.Sp_tree.internal_node_count t' < Sp.Sp_tree.internal_node_count t))
    (Proptest.Shrink.sp t)

(* --- forced bug: the runner must find, shrink, and reproduce it --- *)

(* "No circuit has more than 2 gates" is false; the minimal witness the
   shrinker should reach has 3 gates (well under the 6-gate bound the
   subsystem promises). *)
let gate_bound_prop =
  R.Prop
    {
      R.name = "synthetic: gate count <= 2";
      generate = Proptest.Gen.circuit;
      shrink = Proptest.Shrink.circuit;
      print = Netlist.Io.to_string;
      check =
        (fun ~seed:_ c ->
          if C.gate_count c <= 2 then R.Pass
          else R.Fail (Printf.sprintf "%d gates" (C.gate_count c)));
    }

let test_forced_bug_shrinks () =
  let r = R.run ~seed:42 ~count:100 ~size:12 gate_bound_prop in
  match r.R.counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex ->
      (* the printed witness is a parseable netlist ... *)
      let witness = Netlist.Io.of_string cex.R.printed in
      (* ... shrunk to the minimal failing size *)
      Alcotest.(check int) "shrunk to 3 gates" 3 (C.gate_count witness);
      Alcotest.(check bool) "shrinking did some work" true
        (cex.R.shrink_steps > 0);
      (* and the reported seed reproduces the identical report. *)
      let r' = R.run ~seed:cex.R.case_seed ~count:1 ~size:12 gate_bound_prop in
      match r'.R.counterexample with
      | None -> Alcotest.fail "reported seed did not reproduce the failure"
      | Some cex' ->
          Alcotest.(check string) "identical shrunk witness" cex.R.printed
            cex'.R.printed

let test_runner_counters () =
  let before = Obs.value (Obs.counter "proptest.cases_run") in
  let cexs = Obs.value (Obs.counter "proptest.counterexamples") in
  ignore (R.run ~seed:1 ~count:10 ~size:6 (List.hd (Proptest.Oracles.all ())));
  ignore (R.run ~seed:42 ~count:100 ~size:12 gate_bound_prop);
  Alcotest.(check bool) "cases_run advanced" true
    (Obs.value (Obs.counter "proptest.cases_run") >= before + 10);
  Alcotest.(check bool) "counterexamples advanced" true
    (Obs.value (Obs.counter "proptest.counterexamples") > cexs)

let test_oracle_registry () =
  Alcotest.(check int) "fifteen oracles" 15
    (List.length (Proptest.Oracles.all ()));
  Alcotest.(check bool) "find mc oracle" true
    (Proptest.Oracles.find "mc-convergence" <> None);
  Alcotest.(check bool) "find incremental oracle" true
    (Proptest.Oracles.find "incremental-equivalence" <> None);
  Alcotest.(check bool) "find telemetry oracle" true
    (Proptest.Oracles.find "telemetry-consistency" <> None);
  Alcotest.(check bool) "find history oracle" true
    (Proptest.Oracles.find "history-consistency" <> None);
  Alcotest.(check bool) "find known" true
    (Proptest.Oracles.find "io-roundtrip" <> None);
  Alcotest.(check bool) "find archive oracle" true
    (Proptest.Oracles.find "archive-roundtrip" <> None);
  Alcotest.(check bool) "find parallel oracle" true
    (Proptest.Oracles.find "parallel-determinism" <> None);
  Alcotest.(check bool) "find unknown" true (Proptest.Oracles.find "nope" = None)

let () =
  Alcotest.run "proptest"
    [
      ("oracle smoke (200 cases each)", smoke_tests);
      ( "oracle depth",
        [ Alcotest.test_case "optimizer at size 60" `Quick test_optimizer_deep ] );
      ( "generators",
        [
          Alcotest.test_case "random circuits valid" `Quick
            test_gen_circuit_valid;
          Alcotest.test_case "deterministic per seed" `Quick
            test_gen_circuit_deterministic;
          Alcotest.test_case "tree circuits read-once" `Quick
            test_gen_tree_read_once;
          Alcotest.test_case "stimulus well-formed" `Quick
            test_gen_stimulus_well_formed;
          Alcotest.test_case "sp networks" `Quick test_gen_sp_network;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "circuit candidates not larger" `Quick
            test_shrink_candidates_smaller;
          Alcotest.test_case "sp candidates smaller" `Quick
            test_shrink_sp_candidates;
          Alcotest.test_case "forced bug found, shrunk, reproduced" `Quick
            test_forced_bug_shrinks;
        ] );
      ( "runner",
        [
          Alcotest.test_case "obs counters" `Quick test_runner_counters;
          Alcotest.test_case "oracle registry" `Quick test_oracle_registry;
        ] );
    ]
