(* Tests for the stochastic signal substrate: RNG determinism and
   statistical sanity, waveform construction, Markov generation realizing
   the requested statistics. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Stoch.Rng.create 42 and b = Stoch.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stoch.Rng.bits64 a) (Stoch.Rng.bits64 b)
  done

(* A batch fill is the same words as one draw at a time, and leaves the
   stream where the single draws would: 3 words, then 5, then one. *)
let test_rng_fill_bits64 () =
  let a = Stoch.Rng.create 42 and b = Stoch.Rng.create 42 in
  List.iter
    (fun n ->
      let buf = Bytes.create (8 * n) in
      Stoch.Rng.fill_bits64 a buf;
      for i = 0 to n - 1 do
        Alcotest.(check int64) "word in order" (Stoch.Rng.bits64 b)
          (Bytes.get_int64_ne buf (8 * i))
      done)
    [ 3; 5 ];
  Alcotest.(check int64) "stream advanced" (Stoch.Rng.bits64 b)
    (Stoch.Rng.bits64 a)

let test_rng_seed_sensitivity () =
  let a = Stoch.Rng.create 1 and b = Stoch.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Stoch.Rng.bits64 a <> Stoch.Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Stoch.Rng.create 7 in
  let b = Stoch.Rng.copy a in
  let xa = Stoch.Rng.bits64 a in
  let xb = Stoch.Rng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb

let test_rng_split_independent () =
  let a = Stoch.Rng.create 7 in
  let b = Stoch.Rng.split a in
  let xa = Stoch.Rng.bits64 a and xb = Stoch.Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

(* Pearson chi-squared of observed byte counts against uniform. 255
   degrees of freedom: mean 255, sd ~22.6; the bound below is ~8 sd out,
   so a correct generator never trips it at these fixed seeds while a
   broken split (overlapping or correlated streams) blows past it. *)
let chi2_bytes draw ~draws =
  let counts = Array.make 256 0 in
  for _ = 1 to draws do
    let w = draw () in
    for byte = 0 to 7 do
      let v =
        Int64.to_int (Int64.logand (Int64.shift_right_logical w (8 * byte)) 0xFFL)
      in
      counts.(v) <- counts.(v) + 1
    done
  done;
  let expected = float_of_int (8 * draws) /. 256. in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts

let chi2_bound = 437. (* chi2_{0.9999, 255} rounded up *)

(* The per-block stream scheme the MC engine relies on: streams split
   off one master must be marginally uniform AND mutually independent.
   The second chi-squared runs on XORs of lane-aligned draws from
   adjacent split streams — overlap or correlation between streams
   would collapse the XOR distribution far from uniform. *)
let test_rng_split_chi_squared () =
  let master = Stoch.Rng.create 42 in
  let streams = Array.init 8 (fun _ -> Stoch.Rng.split master) in
  (* pooled marginal uniformity over every split stream *)
  let i = ref 0 in
  let pooled () =
    let s = streams.(!i mod 8) in
    incr i;
    Stoch.Rng.bits64 s
  in
  let chi2 = chi2_bytes pooled ~draws:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "pooled split-stream bytes uniform (chi2 %.0f < %.0f)"
       chi2 chi2_bound)
    true (chi2 < chi2_bound);
  (* pairwise independence: XOR of aligned draws is uniform too *)
  let streams = Array.init 8 (fun _ -> Stoch.Rng.split master) in
  let j = ref 0 in
  let xored () =
    let pair = !j mod 7 in
    incr j;
    Int64.logxor
      (Stoch.Rng.bits64 streams.(pair))
      (Stoch.Rng.bits64 streams.(pair + 1))
  in
  let chi2 = chi2_bytes xored ~draws:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "xor of adjacent split streams uniform (chi2 %.0f < %.0f)"
       chi2 chi2_bound)
    true (chi2 < chi2_bound);
  (* and the master keeps its own stream usable after every split *)
  let after = Stoch.Rng.bits64 master in
  Alcotest.(check bool) "master still advances" true (after <> 0L)

let test_float_range () =
  let rng = Stoch.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Stoch.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let rng = Stoch.Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Stoch.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Stoch.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Stoch.Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_bernoulli_rate () =
  let rng = Stoch.Rng.create 13 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Stoch.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_exponential_mean () =
  let rng = Stoch.Rng.create 17 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Stoch.Rng.exponential rng 2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.05)

let test_shuffle_permutation () =
  let rng = Stoch.Rng.create 23 in
  let a = Array.init 20 Fun.id in
  Stoch.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* --- Signal_stats --- *)

let test_stats_make_valid () =
  let s = Stoch.Signal_stats.make ~prob:0.25 ~density:1e5 in
  check_float "prob" 0.25 (Stoch.Signal_stats.prob s);
  check_float "density" 1e5 (Stoch.Signal_stats.density s)

let test_stats_make_invalid () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument f) in
  bad "Signal_stats.make: prob outside [0, 1]" (fun () ->
      ignore (Stoch.Signal_stats.make ~prob:1.5 ~density:0.));
  bad "Signal_stats.make: negative density" (fun () ->
      ignore (Stoch.Signal_stats.make ~prob:0.5 ~density:(-1.)));
  bad "Signal_stats.make: non-finite value" (fun () ->
      ignore (Stoch.Signal_stats.make ~prob:Float.nan ~density:0.))

let test_stats_constant () =
  let s1 = Stoch.Signal_stats.constant true in
  check_float "P(const 1)" 1. (Stoch.Signal_stats.prob s1);
  Alcotest.(check bool) "constant" true (Stoch.Signal_stats.is_constant s1)

let test_holding_times () =
  let s = Stoch.Signal_stats.make ~prob:0.25 ~density:2. in
  let mu0, mu1 = Stoch.Signal_stats.mean_holding_times s in
  check_float "mu0 = 2(1-P)/D" 0.75 mu0;
  check_float "mu1 = 2P/D" 0.25 mu1;
  (* Round trip: the realized process has density 2/(mu0+mu1) and
     probability mu1/(mu0+mu1). *)
  check_float "density round-trip" 2. (2. /. (mu0 +. mu1));
  check_float "prob round-trip" 0.25 (mu1 /. (mu0 +. mu1))

(* --- Waveform --- *)

let test_waveform_value_at () =
  let w =
    Stoch.Waveform.make ~initial:false ~transitions:[| 1.0; 2.5 |] ~horizon:4.0
  in
  Alcotest.(check bool) "before first" false (Stoch.Waveform.value_at w 0.5);
  Alcotest.(check bool) "at first (right-continuous)" true
    (Stoch.Waveform.value_at w 1.0);
  Alcotest.(check bool) "between" true (Stoch.Waveform.value_at w 2.0);
  Alcotest.(check bool) "after second" false (Stoch.Waveform.value_at w 3.0)

let test_waveform_measure () =
  let w =
    Stoch.Waveform.make ~initial:false ~transitions:[| 1.0; 3.0 |] ~horizon:4.0
  in
  let s = Stoch.Waveform.measure w in
  check_float "P = time at 1 / horizon" 0.5 (Stoch.Signal_stats.prob s);
  check_float "D = 2 transitions / 4s" 0.5 (Stoch.Signal_stats.density s)

let test_waveform_rejects_unsorted () =
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Waveform.make: transitions not strictly increasing")
    (fun () ->
      ignore
        (Stoch.Waveform.make ~initial:false ~transitions:[| 2.0; 1.0 |]
           ~horizon:4.0))

let test_waveform_rejects_beyond_horizon () =
  Alcotest.check_raises "beyond horizon rejected"
    (Invalid_argument "Waveform.make: transition outside (0, horizon]")
    (fun () ->
      ignore
        (Stoch.Waveform.make ~initial:false ~transitions:[| 5.0 |] ~horizon:4.0))

let test_waveform_of_bits () =
  let w =
    Stoch.Waveform.of_bits ~bits:[| true; true; false; true |] ~period:2.0
  in
  Alcotest.(check int) "2 transitions" 2 (Stoch.Waveform.transition_count w);
  Alcotest.(check bool) "initial" true (Stoch.Waveform.initial w);
  check_float "horizon" 8.0 (Stoch.Waveform.horizon w);
  Alcotest.(check bool) "bit 2" false (Stoch.Waveform.value_at w 5.0)

let test_waveform_fold_intervals_cover () =
  let w =
    Stoch.Waveform.make ~initial:true ~transitions:[| 0.5; 1.5; 2.0 |]
      ~horizon:3.0
  in
  let total =
    Stoch.Waveform.fold_intervals w ~init:0. ~f:(fun acc ~start ~stop ~value:_ ->
        acc +. (stop -. start))
  in
  check_float "intervals cover the horizon" 3.0 total

let test_generate_realizes_stats () =
  let rng = Stoch.Rng.create 99 in
  let stats = Stoch.Signal_stats.make ~prob:0.3 ~density:2.0 in
  let w = Stoch.Waveform.generate rng stats ~horizon:50_000. in
  let m = Stoch.Waveform.measure w in
  Alcotest.(check bool) "empirical P near 0.3" true
    (Float.abs (Stoch.Signal_stats.prob m -. 0.3) < 0.02);
  Alcotest.(check bool) "empirical D near 2.0" true
    (Float.abs (Stoch.Signal_stats.density m -. 2.0) < 0.05)

let test_generate_constant () =
  let rng = Stoch.Rng.create 1 in
  let w =
    Stoch.Waveform.generate rng (Stoch.Signal_stats.constant true) ~horizon:10.
  in
  Alcotest.(check int) "no transitions" 0 (Stoch.Waveform.transition_count w);
  Alcotest.(check bool) "stuck at 1" true (Stoch.Waveform.value_at w 5.)

(* Property: generated waveforms always satisfy the structural invariants
   and measure back to legal statistics. *)
let prop_generate_wellformed =
  QCheck.Test.make ~name:"generate yields well-formed waveforms" ~count:200
    QCheck.(triple (int_range 0 10_000) (float_range 0.05 0.95) (float_range 0.1 10.))
    (fun (seed, prob, density) ->
      let rng = Stoch.Rng.create seed in
      let stats = Stoch.Signal_stats.make ~prob ~density in
      let w = Stoch.Waveform.generate rng stats ~horizon:100. in
      let ts = Stoch.Waveform.transitions w in
      let sorted = ref true in
      Array.iteri
        (fun i t ->
          if i > 0 && t <= ts.(i - 1) then sorted := false;
          if t <= 0. || t > 100. then sorted := false)
        ts;
      let m = Stoch.Waveform.measure w in
      !sorted
      && Stoch.Signal_stats.prob m >= 0.
      && Stoch.Signal_stats.prob m <= 1.)

let () =
  Alcotest.run "stoch"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "fill_bits64 matches bits64" `Quick
            test_rng_fill_bits64;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split streams chi-squared" `Quick
            test_rng_split_chi_squared;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "signal_stats",
        [
          Alcotest.test_case "make valid" `Quick test_stats_make_valid;
          Alcotest.test_case "make invalid" `Quick test_stats_make_invalid;
          Alcotest.test_case "constant" `Quick test_stats_constant;
          Alcotest.test_case "holding times" `Quick test_holding_times;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "value_at" `Quick test_waveform_value_at;
          Alcotest.test_case "measure" `Quick test_waveform_measure;
          Alcotest.test_case "rejects unsorted" `Quick test_waveform_rejects_unsorted;
          Alcotest.test_case "rejects beyond horizon" `Quick
            test_waveform_rejects_beyond_horizon;
          Alcotest.test_case "of_bits" `Quick test_waveform_of_bits;
          Alcotest.test_case "fold_intervals cover" `Quick
            test_waveform_fold_intervals_cover;
          Alcotest.test_case "generate realizes stats" `Slow
            test_generate_realizes_stats;
          Alcotest.test_case "generate constant" `Quick test_generate_constant;
          Property.to_alcotest prop_generate_wellformed;
        ] );
    ]
