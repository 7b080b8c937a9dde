module C = Netlist.Circuit
module S = Stoch.Signal_stats

let c_words = Obs.counter "mc.words_evaluated"
let c_toggles = Obs.counter "mc.toggles"
let c_samples = Obs.counter "mc.samples"

(* --- word-level primitives --- *)

let popcount x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let pack lanes =
  if Array.length lanes > 64 then invalid_arg "Mc.pack: more than 64 lanes";
  let x = ref 0L in
  Array.iteri
    (fun i b -> if b then x := Int64.logor !x (Int64.shift_left 1L i))
    lanes;
  !x

let unpack w =
  Array.init 64 (fun i ->
      Int64.logand (Int64.shift_right_logical w i) 1L <> 0L)

(* Biased bits: p rounded to [mask_bits] fractional bits m, then a lane
   is accepted iff a uniform [mask_bits]-bit stream compares below m
   lexicographically, MSB first — accepted at the first uniform bit
   under the threshold bit, rejected at the first above it, still
   undecided while they agree. Every draw halves each lane's survival
   probability, so the chain exits after ~log2 64 + 2 uniform words in
   expectation (instead of one word per threshold bit) while the
   per-lane probability stays exactly m / 2^[mask_bits]. *)

let mask_bits = 30
let mask_one = 1 lsl mask_bits

let m_of_prob p =
  if p <= 0. then 0
  else if p >= 1. then mask_one
  else
    let m = int_of_float (Float.round (p *. float_of_int mask_one)) in
    if m < 0 then 0 else if m > mask_one then mask_one else m

let mask_of_m rng m =
  if m <= 0 then 0L
  else if m >= mask_one then -1L
  else begin
    let result = ref 0L and undecided = ref (-1L) in
    let i = ref (mask_bits - 1) in
    while !undecided <> 0L && !i >= 0 do
      let w = Stoch.Rng.bits64 rng in
      if (m lsr !i) land 1 = 1 then begin
        result :=
          Int64.logor !result (Int64.logand !undecided (Int64.lognot w));
        undecided := Int64.logand !undecided w
      end
      else undecided := Int64.logand !undecided (Int64.lognot w);
      decr i
    done;
    !result
  end

let bernoulli_mask rng p = mask_of_m rng (m_of_prob p)

(* Flip mask for one input: probability [ma]/2^K on 0-lanes, [mb]/2^K on
   1-lanes, sharing one comparison chain — each lane compares the same
   uniform stream against the threshold its previous state selects.
   Thresholds saturated at 1.0 (clamped flip probabilities) accept
   before the first draw. *)
let flip_mask rng ~ma ~mb prev =
  if ma <= 0 && mb <= 0 then 0L
  else begin
    let sat =
      Int64.logor
        (if ma >= mask_one then Int64.lognot prev else 0L)
        (if mb >= mask_one then prev else 0L)
    in
    let result = ref sat and undecided = ref (Int64.lognot sat) in
    let i = ref (mask_bits - 1) in
    while !undecided <> 0L && !i >= 0 do
      let w = Stoch.Rng.bits64 rng in
      let mbit =
        match ((ma lsr !i) land 1, (mb lsr !i) land 1) with
        | 1, 1 -> -1L
        | 0, 0 -> 0L
        | 1, 0 -> Int64.lognot prev
        | _ -> prev
      in
      result :=
        Int64.logor !result
          (Int64.logand !undecided (Int64.logand mbit (Int64.lognot w)));
      undecided :=
        Int64.logand !undecided
          (Int64.logor (Int64.logand mbit w)
             (Int64.logand (Int64.lognot mbit) (Int64.lognot w)));
      decr i
    done;
    !result
  end

(* --- the sampling model --- *)

let flip_probs s ~dt =
  let p = S.prob s and d = S.density s in
  if d <= 0. then (0., 0.)
  else
    let half = d *. dt /. 2. in
    let a = if p >= 1. then 1. else Float.min 1. (half /. (1. -. p)) in
    let b = if p <= 0. then 1. else Float.min 1. (half /. p) in
    (a, b)

let default_dt ~inputs circuit =
  let dt =
    List.fold_left
      (fun acc net ->
        let s = inputs net in
        let d = S.density s in
        if d <= 0. then acc
        else
          let m = Float.min (S.prob s) (1. -. S.prob s) in
          (* P at (or near) 0 or 1 with D > 0: the chain leaves the rare
             state immediately (flip probability clamps to 1); a floor
             keeps the step finite. *)
          let m = Float.max m 0.01 in
          Float.min acc (m /. (4. *. d)))
      Float.infinity (C.primary_inputs circuit)
  in
  if Float.is_finite dt then dt else 1.0

(* --- word-parallel gate evaluation --- *)

(* Every configuration of a cell computes the cell function (that is the
   whole point of reordering), so evaluation depends only on the kind.
   Output = NOT (pull-down conducts); pins are numbered left-to-right
   across AOI/OAI groups, matching Cell.Gate.pull_down. *)

let group_segments groups =
  let segs = Array.make (List.length groups) (0, 0) in
  let _ =
    List.fold_left
      (fun (i, start) len ->
        segs.(i) <- (start, len);
        (i + 1, start + len))
      (0, 0) groups
  in
  segs

let compile_gate (gate : C.gate) =
  let f = gate.C.fanins in
  let and_range v start len =
    let acc = ref v.(f.(start)) in
    for i = start + 1 to start + len - 1 do
      acc := Int64.logand !acc v.(f.(i))
    done;
    !acc
  in
  let or_range v start len =
    let acc = ref v.(f.(start)) in
    for i = start + 1 to start + len - 1 do
      acc := Int64.logor !acc v.(f.(i))
    done;
    !acc
  in
  match Cell.Gate.kind gate.C.cell with
  | Cell.Gate.Inv -> fun v -> Int64.lognot v.(f.(0))
  | Cell.Gate.Nand n -> fun v -> Int64.lognot (and_range v 0 n)
  | Cell.Gate.Nor n -> fun v -> Int64.lognot (or_range v 0 n)
  | Cell.Gate.Aoi groups ->
      let segs = group_segments groups in
      fun v ->
        let acc = ref 0L in
        Array.iter (fun (s, l) -> acc := Int64.logor !acc (and_range v s l)) segs;
        Int64.lognot !acc
  | Cell.Gate.Oai groups ->
      let segs = group_segments groups in
      fun v ->
        let acc = ref (-1L) in
        Array.iter (fun (s, l) -> acc := Int64.logand !acc (or_range v s l)) segs;
        Int64.lognot !acc

let compile circuit =
  C.topological_order circuit |> Array.of_list
  |> Array.map (fun g ->
         let gate = C.gate_at circuit g in
         (gate.C.output, compile_gate gate))

let eval_ops ops values =
  Array.iter (fun (out, op) -> values.(out) <- op values) ops

let eval_nets circuit ~inputs =
  let values = Array.make (C.net_count circuit) 0L in
  List.iter (fun net -> values.(net) <- inputs net) (C.primary_inputs circuit);
  eval_ops (compile circuit) values;
  values

(* --- blocks --- *)

type block = {
  b_toggles : int array;
  b_rises : int array;
  b_high : int array;
}

(* One block: [words] independent word-trajectories of [steps] steps,
   all drawn from this block's private RNG stream. Each lane starts in
   its stationary distribution; counts cover the post-transition states
   of steps 1..steps. *)
let run_block ~nets ~pis ~ops ~words ~steps rng =
  let b_toggles = Array.make nets 0 in
  let b_rises = Array.make nets 0 in
  let b_high = Array.make nets 0 in
  let prev = ref (Array.make nets 0L) in
  let cur = ref (Array.make nets 0L) in
  for _w = 1 to words do
    let p = !prev in
    Array.iter (fun (net, _, _, mp) -> p.(net) <- mask_of_m rng mp) pis;
    eval_ops ops p;
    for _s = 1 to steps do
      let p = !prev and c = !cur in
      Array.iter
        (fun (net, ma, mb, _) ->
          let v = p.(net) in
          c.(net) <- Int64.logxor v (flip_mask rng ~ma ~mb v))
        pis;
      eval_ops ops c;
      for net = 0 to nets - 1 do
        let ch = Int64.logxor p.(net) c.(net) in
        if ch <> 0L then begin
          b_toggles.(net) <- b_toggles.(net) + popcount ch;
          b_rises.(net) <- b_rises.(net) + popcount (Int64.logand ch c.(net))
        end;
        b_high.(net) <- b_high.(net) + popcount c.(net)
      done;
      prev := c;
      cur := p
    done
  done;
  { b_toggles; b_rises; b_high }

(* --- the result --- *)

type result = {
  blocks : int;
  words_per_block : int;
  steps : int;
  trajectories : int;
  samples : int;
  dt : float;
  window : float;
  net_toggles : int array;
  net_rises : int array;
  net_high : int array;
  density : float array;
  density_se : float array;
  prob : float array;
  prob_se : float array;
  per_net_energy : float array;
  per_gate_energy : float array;
  energy : float;
  power : float;
}

let measured_stats r net =
  let p = Float.min 1. (Float.max 0. r.prob.(net)) in
  S.make ~prob:p ~density:(Float.max 0. r.density.(net))

(* Output-net capacitance, as Switchsim.Sim.build and Power.Model charge
   it: the configured network's own output-node capacitance plus the
   gate's Netlist.Load.output. Primary-input nets book no energy. *)
let net_caps table ?external_load circuit =
  let proc = Power.Model.process table in
  Array.init (C.net_count circuit) (fun net ->
      match C.driver circuit net with
      | C.Primary_input -> 0.
      | C.Driven_by g ->
          let gate = C.gate_at circuit g in
          let own =
            Cell.Process.node_capacitance proc
              (Cell.Config.nth_network gate.C.cell gate.C.config)
              Sp.Network.Output
          in
          own +. Netlist.Load.output proc ?external_load circuit g)

let estimate table ?external_load ?pool ?dt ?(words = 2) ?(steps = 128)
    ?(samples = 262144) ~seed ~inputs circuit =
  if words < 1 then invalid_arg "Mc.estimate: words must be positive";
  if steps < 1 then invalid_arg "Mc.estimate: steps must be positive";
  if samples < 1 then invalid_arg "Mc.estimate: samples must be positive";
  (match dt with
  | Some d when d <= 0. -> invalid_arg "Mc.estimate: dt must be positive"
  | _ -> ());
  Obs.span "mc.run" @@ fun () ->
  let dt = match dt with Some d -> d | None -> default_dt ~inputs circuit in
  let nets = C.net_count circuit in
  let lanes_per_block = words * 64 in
  let samples_per_block = lanes_per_block * steps in
  let blocks = max 2 ((samples + samples_per_block - 1) / samples_per_block) in
  let pis =
    C.primary_inputs circuit
    |> List.map (fun net ->
           let s = inputs net in
           let a, b = flip_probs s ~dt in
           (net, m_of_prob a, m_of_prob b, m_of_prob (S.prob s)))
    |> Array.of_list
  in
  let ops = compile circuit in
  (* Per-block streams split off the master before any parallelism, so
     the stimulus is a pure function of (seed, block index). *)
  let master = Stoch.Rng.create seed in
  let rngs = Array.init blocks (fun _ -> Stoch.Rng.split master) in
  (* One tick per completed block (ticks are atomic, so worker domains
     feed the same heartbeat the sequential path does). *)
  Telemetry.progress_begin ~phase:"mc.run" ~total:blocks;
  let run rng =
    let r = run_block ~nets ~pis ~ops ~words ~steps rng in
    Telemetry.progress_tick ();
    r
  in
  let results =
    match pool with
    | Some p -> Par.Pool.map p run rngs
    | None -> Array.map run rngs
  in
  (* Submission-order fold: totals and block moments accumulate in block
     order, so the output is bit-identical whatever the job count. *)
  let net_toggles = Array.make nets 0 in
  let net_rises = Array.make nets 0 in
  let net_high = Array.make nets 0 in
  let dsum = Array.make nets 0. in
  let dsq = Array.make nets 0. in
  let psum = Array.make nets 0. in
  let psq = Array.make nets 0. in
  let lane_steps = float_of_int (lanes_per_block * steps) in
  Array.iter
    (fun b ->
      for net = 0 to nets - 1 do
        net_toggles.(net) <- net_toggles.(net) + b.b_toggles.(net);
        net_rises.(net) <- net_rises.(net) + b.b_rises.(net);
        net_high.(net) <- net_high.(net) + b.b_high.(net);
        let d = float_of_int b.b_toggles.(net) /. (lane_steps *. dt) in
        dsum.(net) <- dsum.(net) +. d;
        dsq.(net) <- dsq.(net) +. (d *. d);
        let p = float_of_int b.b_high.(net) /. lane_steps in
        psum.(net) <- psum.(net) +. p;
        psq.(net) <- psq.(net) +. (p *. p)
      done)
    results;
  let fb = float_of_int blocks in
  let mean sum = Array.map (fun s -> s /. fb) sum in
  let se sum sq =
    Array.init nets (fun net ->
        let var =
          Float.max 0.
            ((sq.(net) -. (sum.(net) *. sum.(net) /. fb)) /. (fb *. (fb -. 1.)))
        in
        sqrt var)
  in
  let density = mean dsum and prob = mean psum in
  let density_se = se dsum dsq and prob_se = se psum psq in
  let trajectories = blocks * lanes_per_block in
  let window = float_of_int steps *. dt in
  let caps = net_caps table ?external_load circuit in
  let proc = Power.Model.process table in
  let vdd2 = proc.Cell.Process.vdd *. proc.Cell.Process.vdd in
  let per_net_energy =
    Array.init nets (fun net ->
        float_of_int net_rises.(net)
        /. float_of_int trajectories
        *. caps.(net) *. vdd2)
  in
  let per_gate_energy =
    Array.init (C.gate_count circuit) (fun g ->
        per_net_energy.((C.gate_at circuit g).C.output))
  in
  let energy = Array.fold_left ( +. ) 0. per_net_energy in
  let samples = trajectories * steps in
  Obs.add c_words (blocks * words * (steps + 1) * C.gate_count circuit);
  Obs.add c_toggles (Array.fold_left ( + ) 0 net_toggles);
  Obs.add c_samples samples;
  {
    blocks;
    words_per_block = words;
    steps;
    trajectories;
    samples;
    dt;
    window;
    net_toggles;
    net_rises;
    net_high;
    density;
    density_se;
    prob;
    prob_se;
    per_net_energy;
    per_gate_energy;
    energy;
    power = energy /. window;
  }
