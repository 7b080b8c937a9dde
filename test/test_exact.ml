(* Tests for the exact (global-BDD) statistics engine and the E11
   exactness experiment. *)

module C = Netlist.Circuit
module B = Netlist.Builder
module S = Stoch.Signal_stats

let stats p d = S.make ~prob:p ~density:d

let table () = Power.Model.table Cell.Process.default

let test_exact_matches_local_on_tree () =
  (* No reconvergent fan-out: local propagation is exact, so the two
     engines must agree on every net. *)
  let circuit = Circuits.Suite.find "tree16" in
  let inputs _ = stats 0.4 3. in
  let local = Power.Analysis.run (table ()) circuit ~inputs in
  let exact = Power.Exact.run circuit ~inputs in
  for net = 0 to C.net_count circuit - 1 do
    let l = Power.Analysis.stats local net in
    let e = Power.Exact.stats exact net in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "P net %d" net)
      (S.prob e) (S.prob l);
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "D net %d" net)
      (S.density e) (S.density l)
  done

let test_exact_fixes_reconvergence () =
  (* y = (a & b) | (a & c): local sees the two AND outputs as
     independent; exactly, P(y) = P(a(b|c)) = 0.5 * 0.75. *)
  let b = B.create ~name:"reconv" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let cc = B.input b "c" in
  let t1 = B.and2 b a bb in
  let t2 = B.and2 b a cc in
  let y = B.or2 b ~name:"y" t1 t2 in
  B.output b y;
  let circuit = B.finish b in
  let inputs _ = stats 0.5 1. in
  let exact = Power.Exact.run circuit ~inputs in
  let y_net = Option.get (C.net_of_name circuit "y") in
  Alcotest.(check (float 1e-12)) "exact P(y)" 0.375
    (S.prob (Power.Exact.stats exact y_net));
  let local = Power.Analysis.run (table ()) circuit ~inputs in
  Alcotest.(check bool) "local differs" true
    (Float.abs (S.prob (Power.Analysis.stats local y_net) -. 0.375) > 1e-6)

let test_exact_pi_stats_pass_through () =
  let circuit = Circuits.Suite.find "c17" in
  let inputs net = stats 0.3 (float_of_int (net + 1)) in
  let exact = Power.Exact.run circuit ~inputs in
  List.iter
    (fun net ->
      let e = Power.Exact.stats exact net in
      Alcotest.(check (float 1e-12)) "PI prob" 0.3 (S.prob e);
      Alcotest.(check (float 1e-9)) "PI density" (float_of_int (net + 1))
        (S.density e))
    (C.primary_inputs circuit)

let test_exact_blowup_guard () =
  let circuit = Circuits.Suite.find "rca8" in
  let inputs _ = stats 0.5 1. in
  Alcotest.(check bool) "raises Blowup" true
    (try
       ignore (Power.Exact.run ~max_nodes:3 circuit ~inputs);
       false
     with Power.Exact.Blowup _ -> true)

let test_exact_constant_input () =
  (* A constant input must zero out downstream densities exactly. *)
  let b = B.create ~name:"gated" in
  let a = B.input b "a" in
  let en = B.input b "en" in
  let y = B.nand2 b ~name:"y" a en in
  B.output b y;
  let circuit = B.finish b in
  let inputs net =
    if C.net_name circuit net = "en" then S.constant false else stats 0.5 5.
  in
  let exact = Power.Exact.run circuit ~inputs in
  let y_net = Option.get (C.net_of_name circuit "y") in
  Alcotest.(check (float 1e-12)) "gated off" 0.
    (S.density (Power.Exact.stats exact y_net));
  Alcotest.(check (float 1e-12)) "stuck high" 1.
    (S.prob (Power.Exact.stats exact y_net))

(* Property: on random fanout-free chains the engines agree; on all
   circuits, exact probabilities stay in [0,1] and densities >= 0. *)
let prop_exact_wellformed =
  QCheck.Test.make ~name:"exact stats are well-formed" ~count:30
    QCheck.(pair (int_range 0 100000) (int_range 1 10))
    (fun (seed, idx) ->
      let name = List.nth (Circuits.Suite.names ()) idx in
      let circuit = Circuits.Suite.find name in
      QCheck.assume (List.length (C.primary_inputs circuit) <= 18);
      let rng = Stoch.Rng.create seed in
      let inputs _ =
        stats (Stoch.Rng.float rng) (Stoch.Rng.float_range rng 0. 10.)
      in
      match Power.Exact.run circuit ~inputs with
      | exception Power.Exact.Blowup _ -> true
      | exact ->
          Array.for_all
            (fun s -> S.prob s >= 0. && S.prob s <= 1. && S.density s >= 0.)
            (Power.Exact.all_stats exact))

let test_exactness_rows () =
  let ctx = Experiments.Common.create () in
  let circuits =
    List.map (fun n -> (n, Circuits.Suite.find n)) [ "dec3"; "rca4" ]
  in
  match Experiments.Exactness.run ctx ~sim_horizon:4e-3 ~circuits () with
  | [ dec; rca ] ->
      Alcotest.(check (float 1e-9)) "decoder: local is exact" 0.
        dec.Experiments.Exactness.local_mean_error;
      Alcotest.(check bool) "adder: reconvergence bias visible" true
        (rca.Experiments.Exactness.local_mean_error > 1.);
      Alcotest.(check bool) "simulator within noise of exact" true
        (rca.Experiments.Exactness.sim_mean_error < 5.)
  | _ -> Alcotest.fail "two rows expected"

let () =
  Alcotest.run "exact"
    [
      ( "engine",
        [
          Alcotest.test_case "matches local on trees" `Quick
            test_exact_matches_local_on_tree;
          Alcotest.test_case "fixes reconvergence" `Quick
            test_exact_fixes_reconvergence;
          Alcotest.test_case "PI pass-through" `Quick
            test_exact_pi_stats_pass_through;
          Alcotest.test_case "blow-up guard" `Quick test_exact_blowup_guard;
          Alcotest.test_case "constant input" `Quick test_exact_constant_input;
          Property.to_alcotest prop_exact_wellformed;
        ] );
      ( "E11",
        [ Alcotest.test_case "experiment rows" `Slow test_exactness_rows ] );
    ]
