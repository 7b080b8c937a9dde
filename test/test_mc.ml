(* The bit-parallel Monte-Carlo engine: word-packing against the scalar
   evaluator, seed reproducibility, parallel bit-identity, standard-error
   convergence, and constant/latched edge cases. *)

module C = Netlist.Circuit
module S = Stoch.Signal_stats

let proc = Cell.Process.default
let table = lazy (Power.Model.table proc)

let scenario_a ~seed circuit =
  Power.Scenario.input_stats ~rng:(Stoch.Rng.create seed) Power.Scenario.A
    circuit

(* --- word packing and evaluation --- *)

let test_pack_unpack_roundtrip () =
  let rng = Stoch.Rng.create 7 in
  for _ = 1 to 50 do
    let w = Stoch.Rng.bits64 rng in
    Alcotest.(check int64) "unpack then pack" w (Mc.pack (Mc.unpack w))
  done;
  let lanes = Array.init 64 (fun i -> i mod 3 = 0) in
  Alcotest.(check bool) "pack then unpack" true
    (Mc.unpack (Mc.pack lanes) = lanes)

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Mc.popcount 0L);
  Alcotest.(check int) "all ones" 64 (Mc.popcount (-1L));
  Alcotest.(check int) "one bit" 1 (Mc.popcount (Int64.shift_left 1L 63));
  let rng = Stoch.Rng.create 9 in
  for _ = 1 to 100 do
    let w = Stoch.Rng.bits64 rng in
    let slow = Array.fold_left (fun a b -> if b then a + 1 else a) 0 (Mc.unpack w) in
    Alcotest.(check int) "matches lane count" slow (Mc.popcount w)
  done

(* Pack 64 random vectors into one word per input, evaluate the whole
   circuit word-parallel, and check every lane of every net against the
   scalar evaluator. *)
let test_eval_matches_scalar_per_lane () =
  List.iter
    (fun (name, circuit) ->
      let rng = Stoch.Rng.create 11 in
      let words =
        List.map (fun net -> (net, Stoch.Rng.bits64 rng)) (C.primary_inputs circuit)
      in
      let values = Mc.eval_nets circuit ~inputs:(fun net -> List.assoc net words) in
      for lane = 0 to 63 do
        let bit net = (Mc.unpack (List.assoc net words)).(lane) in
        let expected = Netlist.Eval.nets circuit ~inputs:bit in
        for net = 0 to C.net_count circuit - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "%s lane %d net %s" name lane
               (C.net_name circuit net))
            expected.(net)
            (Mc.unpack values.(net)).(lane)
        done
      done)
    (* rnd_c has all 21 cells: every AOI/OAI group shape the flat
       program encodes. *)
    [
      ("c17", Circuits.Suite.find "c17");
      ("tree16", Circuits.Suite.find "tree16");
      ("rnd_c", Circuits.Suite.find "rnd_c");
    ]

(* --- biased mask generation --- *)

let test_bernoulli_mask_bias () =
  let rng = Stoch.Rng.create 3 in
  List.iter
    (fun p ->
      let n = 2000 in
      let ones = ref 0 in
      for _ = 1 to n do
        ones := !ones + Mc.popcount (Mc.bernoulli_mask rng p)
      done;
      let total = float_of_int (64 * n) in
      let got = float_of_int !ones /. total in
      (* 5 sigma of a binomial with 128000 draws *)
      let tol = 5. *. sqrt (p *. (1. -. p) /. total) in
      Alcotest.(check bool)
        (Printf.sprintf "p=%.3f measured %.4f" p got)
        true
        (Float.abs (got -. p) <= tol +. 1e-9))
    [ 0.; 1.; 0.5; 0.125; 0.3; 0.05; 0.95; 0.7 ]

(* --- seed reproducibility --- *)

let estimate ?pool ?samples ~seed circuit =
  Mc.estimate (Lazy.force table) ?pool ?samples ~seed
    ~inputs:(scenario_a ~seed:1 circuit)
    circuit

let test_seed_reproducible () =
  let circuit = Circuits.Suite.find "c17" in
  let a = estimate ~samples:16384 ~seed:5 circuit in
  let b = estimate ~samples:16384 ~seed:5 circuit in
  let c = estimate ~samples:16384 ~seed:6 circuit in
  Alcotest.(check bool) "same seed, identical densities" true
    (a.Mc.density = b.Mc.density && a.Mc.density_se = b.Mc.density_se
   && a.Mc.net_toggles = b.Mc.net_toggles && a.Mc.energy = b.Mc.energy);
  Alcotest.(check bool) "different seed, different toggles" true
    (a.Mc.net_toggles <> c.Mc.net_toggles)

(* --- parallel bit-identity --- *)

let test_jobs_bit_identical () =
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun name ->
      let circuit = Circuits.Suite.find name in
      let seq = estimate ~samples:65536 ~seed:42 circuit in
      let par = estimate ~pool ~samples:65536 ~seed:42 circuit in
      (* Bit-identical, not close: block streams are split before the
         fan-out and folded in submission order. *)
      Alcotest.(check bool) (name ^ ": toggles identical") true
        (par.Mc.net_toggles = seq.Mc.net_toggles
        && par.Mc.net_rises = seq.Mc.net_rises
        && par.Mc.net_high = seq.Mc.net_high);
      Alcotest.(check bool) (name ^ ": density floats identical") true
        (par.Mc.density = seq.Mc.density
        && par.Mc.density_se = seq.Mc.density_se);
      Alcotest.(check bool) (name ^ ": prob floats identical") true
        (par.Mc.prob = seq.Mc.prob && par.Mc.prob_se = seq.Mc.prob_se);
      Alcotest.(check bool) (name ^ ": energy identical") true
        (par.Mc.energy = seq.Mc.energy && par.Mc.power = seq.Mc.power
        && par.Mc.per_net_energy = seq.Mc.per_net_energy))
    [ "tree16"; "rnd_c" ]

(* --- allocation --- *)

(* The block loop allocates nothing per gate, net or step: what is left
   is per block (its count arrays and buffers) and per batch of uniform
   draws. Minor words per gate word-evaluation of a sequential estimate
   on rnd_c measured 26.4 when every gate returned a boxed word into an
   [int64 array], and 0.058 since; boxing one word per gate, per net-step
   or per draw would cost more than the bound. A warm-up run first builds
   the cells' configuration tables the energies read. *)
let test_allocation_per_word () =
  let circuit = Circuits.Suite.find "rnd_c" in
  ignore (estimate ~seed:42 circuit);
  Obs.reset ();
  let w0 = Gc.minor_words () in
  ignore (estimate ~seed:42 circuit);
  let words = Gc.minor_words () -. w0 in
  let evals = Obs.counter_value (Obs.snapshot ()) "mc.words_evaluated" in
  let per_eval = words /. float_of_int evals in
  Printf.printf "%.0f minor words over %d word-evaluations: %.3f each\n" words
    evals per_eval;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per word-evaluation <= 0.25" per_eval)
    true (per_eval <= 0.25)

(* --- standard error shrinks like 1/sqrt(N) --- *)

let mean_se r =
  let sum = Array.fold_left ( +. ) 0. r.Mc.density_se in
  sum /. float_of_int (Array.length r.Mc.density_se)

let test_se_shrinks () =
  let circuit = Circuits.Suite.find "tree16" in
  let small = estimate ~samples:32768 ~seed:17 circuit in
  let large = estimate ~samples:(32768 * 16) ~seed:17 circuit in
  Alcotest.(check bool) "16x the blocks" true
    (large.Mc.blocks = 16 * small.Mc.blocks);
  let ratio = mean_se small /. mean_se large in
  (* expected 4 = sqrt(16); accept a generous band around it *)
  Alcotest.(check bool)
    (Printf.sprintf "se ratio %.2f in [2, 8]" ratio)
    true
    (ratio >= 2. && ratio <= 8.)

(* standard errors must actually cover the truth: on a tree the
   analytical density is exact, so the estimate lands within a few se *)
let test_se_covers_analytical () =
  let circuit = Circuits.Suite.find "tree16" in
  let inputs = scenario_a ~seed:1 circuit in
  let r = Mc.estimate (Lazy.force table) ~samples:262144 ~seed:3 ~inputs circuit in
  let analysis = Power.Analysis.run (Lazy.force table) circuit ~inputs in
  let total_time = float_of_int r.Mc.trajectories *. r.Mc.window in
  for net = 0 to C.net_count circuit - 1 do
    let d = S.density (Power.Analysis.stats analysis net) in
    (* the Poisson floor covers nets whose expected toggle count over
       the summed lane-time is O(1) — there the block se is itself 0 *)
    let floor = 5. *. sqrt (Float.max (d *. total_time) 1.) /. total_time in
    let slack = (5. *. r.Mc.density_se.(net)) +. (0.02 *. d) +. floor in
    Alcotest.(check bool)
      (Printf.sprintf "net %s: |%.4g - %.4g| <= %.4g" (C.net_name circuit net)
         r.Mc.density.(net) d slack)
      true
      (Float.abs (r.Mc.density.(net) -. d) <= slack)
  done

(* --- constant and latched inputs --- *)

let test_constant_inputs () =
  let circuit = Circuits.Suite.find "c17" in
  let inputs _ = S.constant true in
  let r = Mc.estimate (Lazy.force table) ~samples:8192 ~seed:1 ~inputs circuit in
  let expected = Netlist.Eval.nets circuit ~inputs:(fun _ -> true) in
  for net = 0 to C.net_count circuit - 1 do
    Alcotest.(check int)
      (Printf.sprintf "net %s never toggles" (C.net_name circuit net))
      0 r.Mc.net_toggles.(net);
    Alcotest.(check (float 0.))
      (Printf.sprintf "net %s pinned" (C.net_name circuit net))
      (if expected.(net) then 1. else 0.)
      r.Mc.prob.(net)
  done;
  Alcotest.(check (float 0.)) "no toggles, no power" 0. r.Mc.power

let test_latched_inputs () =
  let circuit = Circuits.Suite.find "c17" in
  let inputs _ = S.latched in
  let r = Mc.estimate (Lazy.force table) ~samples:262144 ~seed:2 ~inputs circuit in
  List.iter
    (fun net ->
      (* P = 0.5, D = 0.5: the chain realizes both exactly in
         expectation; 6 se of slack keeps the fixed seed safe. *)
      Alcotest.(check bool)
        (Printf.sprintf "input %s prob %.3f" (C.net_name circuit net)
           r.Mc.prob.(net))
        true
        (Float.abs (r.Mc.prob.(net) -. 0.5)
        <= (6. *. r.Mc.prob_se.(net)) +. 0.01);
      Alcotest.(check bool)
        (Printf.sprintf "input %s density %.3f" (C.net_name circuit net)
           r.Mc.density.(net))
        true
        (Float.abs (r.Mc.density.(net) -. 0.5)
        <= (6. *. r.Mc.density_se.(net)) +. 0.01))
    (C.primary_inputs circuit)

(* --- bookkeeping --- *)

let test_result_accounting () =
  let circuit = Circuits.Suite.find "c17" in
  Obs.reset ();
  let r = estimate ~samples:16384 ~seed:4 circuit in
  Alcotest.(check int) "trajectories" (r.Mc.blocks * r.Mc.words_per_block * 64)
    r.Mc.trajectories;
  Alcotest.(check int) "samples" (r.Mc.trajectories * r.Mc.steps) r.Mc.samples;
  Alcotest.(check bool) "window" true (r.Mc.window = float_of_int r.Mc.steps *. r.Mc.dt);
  Alcotest.(check (float 1e-24)) "energy is the net fold"
    (Array.fold_left ( +. ) 0. r.Mc.per_net_energy)
    r.Mc.energy;
  List.iter
    (fun net ->
      Alcotest.(check (float 0.)) "primary inputs book no energy" 0.
        r.Mc.per_net_energy.(net))
    (C.primary_inputs circuit);
  (* rises and falls alternate: they differ by at most one per lane *)
  for net = 0 to C.net_count circuit - 1 do
    let falls = r.Mc.net_toggles.(net) - r.Mc.net_rises.(net) in
    Alcotest.(check bool) "rises within one of falls per trajectory" true
      (abs (falls - r.Mc.net_rises.(net)) <= r.Mc.trajectories)
  done;
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "mc counters land in obs" true
    (Obs.counter_value snap "mc.words_evaluated" > 0
    && Obs.counter_value snap "mc.samples" = r.Mc.samples);
  let s = Mc.measured_stats r (List.hd (C.primary_inputs circuit)) in
  Alcotest.(check bool) "measured_stats is well-formed" true
    (S.prob s >= 0. && S.prob s <= 1. && S.density s >= 0.)

(* A primary output that is also read inside the circuit books its
   rises at the capacitance the power model charges: own + load, not
   (own + fan-out) + external, which rounds differently here. *)
let test_output_capacitance () =
  let b = Netlist.Builder.create ~name:"po_fanout" in
  let x = Netlist.Builder.input b "x" in
  let y = Netlist.Builder.inv b ~name:"y" x in
  let z = Netlist.Builder.inv b ~name:"z" y in
  Netlist.Builder.output b y;
  Netlist.Builder.output b z;
  let circuit = Netlist.Builder.finish b in
  let g =
    match C.driver circuit y with C.Driven_by g -> g | C.Primary_input -> -1
  in
  let model =
    Power.Model.gate_power (Lazy.force table) (C.gate_at circuit g).C.cell
      ~config:0
      ~input_stats:[| S.make ~prob:0.5 ~density:1. |]
      ~load:(Netlist.Load.output proc circuit g) ()
  in
  let cap = (List.hd model.Power.Model.nodes).Power.Model.capacitance in
  let r = estimate ~samples:16384 ~seed:4 circuit in
  let vdd = proc.Cell.Process.vdd in
  Alcotest.(check bool) "y rises" true (r.Mc.net_rises.(y) > 0);
  Alcotest.(check (float 0.)) "rises x C Vdd^2 at the model's C"
    (float_of_int r.Mc.net_rises.(y)
    /. float_of_int r.Mc.trajectories
    *. cap *. (vdd *. vdd))
    r.Mc.per_net_energy.(y)

let () =
  Alcotest.run "mc"
    [
      ( "words",
        [
          Alcotest.test_case "pack/unpack round-trip" `Quick
            test_pack_unpack_roundtrip;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "word eval matches scalar eval per lane" `Quick
            test_eval_matches_scalar_per_lane;
          Alcotest.test_case "bernoulli mask bias" `Quick
            test_bernoulli_mask_bias;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seed reproducible" `Quick test_seed_reproducible;
          Alcotest.test_case "jobs:4 bit-identical to sequential" `Quick
            test_jobs_bit_identical;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per word-evaluation" `Quick
            test_allocation_per_word;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "standard error shrinks ~1/sqrt(N)" `Quick
            test_se_shrinks;
          Alcotest.test_case "se covers the analytical truth on a tree" `Quick
            test_se_covers_analytical;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "constant inputs" `Quick test_constant_inputs;
          Alcotest.test_case "latched inputs" `Quick test_latched_inputs;
          Alcotest.test_case "result accounting" `Quick test_result_accounting;
          Alcotest.test_case "output node at the model's C" `Quick
            test_output_capacitance;
        ] );
    ]
