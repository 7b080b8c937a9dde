module C = Netlist.Circuit
module S = Stoch.Signal_stats

let c_words = Obs.counter "mc.words_evaluated"
let c_toggles = Obs.counter "mc.toggles"
let c_samples = Obs.counter "mc.samples"

(* --- word-level primitives --- *)

(* A block's net words live in [Bytes] buffers, eight bytes per net, read
   and written unboxed. The unchecked primitives are safe because every
   offset is [8 * net] for a net of the circuit the buffer was sized
   for. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Inlined, so the hot loops count a word without boxing it. *)
let[@inline] popcount x =
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

(* A stream's uniform words, drawn [Bytes.length buf / 8] at a time:
   Stoch.Rng.fill_bits64 writes the words bits64 would return, in order,
   and [pos] is the next unread one. A block owns its stream, so the
   words still unread when it ends are never wanted. *)
type draws = { rng : Stoch.Rng.t; buf : Bytes.t; mutable pos : int }

let draws ~batch rng = { rng; buf = Bytes.create (8 * batch); pos = batch }

let[@inline] draw d =
  if 8 * d.pos = Bytes.length d.buf then begin
    Stoch.Rng.fill_bits64 d.rng d.buf;
    d.pos <- 0
  end;
  let w = get64 d.buf (8 * d.pos) in
  d.pos <- d.pos + 1;
  w

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

let[@inline] mask_of_m d m =
  if m <= 0 then 0L
  else if m >= mask_one then -1L
  else begin
    let result = ref 0L and undecided = ref (-1L) in
    let i = ref (mask_bits - 1) in
    while !undecided <> 0L && !i >= 0 do
      let w = draw d in
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

(* One word per draw, as Stoch.Rng.bits64 gives them. *)
let bernoulli_mask rng p = mask_of_m (draws ~batch:1 rng) (m_of_prob p)

(* Flip mask for one input: probability [ma]/2^K on 0-lanes, [mb]/2^K on
   1-lanes, sharing one comparison chain — each lane compares the same
   uniform stream against the threshold its previous state selects.
   Thresholds saturated at 1.0 (clamped flip probabilities) accept
   before the first draw. *)
let[@inline] flip_mask d ~ma ~mb prev =
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
      let w = draw d in
      let mbit =
        if (ma lsr !i) land 1 = 1 then
          if (mb lsr !i) land 1 = 1 then -1L else Int64.lognot prev
        else if (mb lsr !i) land 1 = 1 then prev
        else 0L
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
   across AOI/OAI groups, matching Cell.Gate.pull_down.

   The circuit compiles, in topological order, into one flat program:
   per gate an opcode, the output's byte offset, then its operands,
   fanins as byte offsets. Opcodes: 0 NOT-AND and 1 NOT-OR (inv, nand,
   nor) take a fanin count and the fanins; 2 AOI (NOT of an OR of ANDs)
   and 3 OAI (NOT of an AND of ORs) take a group count, then per group
   its length and fanins. *)

let compile circuit =
  let code = ref [] in
  let emit x = code := x :: !code in
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let fanins start len =
        for pin = start to start + len - 1 do
          emit (8 * gate.C.fanins.(pin))
        done
      in
      let head op n =
        emit op;
        emit (8 * gate.C.output);
        emit n
      in
      let flat op n =
        head op n;
        fanins 0 n
      in
      let grouped op lengths =
        head op (List.length lengths);
        ignore
          (List.fold_left
             (fun start len ->
               emit len;
               fanins start len;
               start + len)
             0 lengths)
      in
      match Cell.Gate.kind gate.C.cell with
      | Cell.Gate.Inv -> flat 0 1
      | Cell.Gate.Nand n -> flat 0 n
      | Cell.Gate.Nor n -> flat 1 n
      | Cell.Gate.Aoi lengths -> grouped 2 lengths
      | Cell.Gate.Oai lengths -> grouped 3 lengths)
    (C.topological_order circuit);
  Array.of_list (List.rev !code)

(* The AND (OR) of the words at fanin offsets [code.(first .. last)]. *)
let[@inline] and_words code v first last =
  let acc = ref (get64 v (Array.unsafe_get code first)) in
  for k = first + 1 to last do
    acc := Int64.logand !acc (get64 v (Array.unsafe_get code k))
  done;
  !acc

let[@inline] or_words code v first last =
  let acc = ref (get64 v (Array.unsafe_get code first)) in
  for k = first + 1 to last do
    acc := Int64.logor !acc (get64 v (Array.unsafe_get code k))
  done;
  !acc

(* Runs the program over the net words in [v], every gate in order. *)
let exec code v =
  let pc = ref 0 in
  while !pc < Array.length code do
    let at = !pc in
    let out = Array.unsafe_get code (at + 1) in
    let n = Array.unsafe_get code (at + 2) in
    match Array.unsafe_get code at with
    | 0 ->
        set64 v out (Int64.lognot (and_words code v (at + 3) (at + 2 + n)));
        pc := at + 3 + n
    | 1 ->
        set64 v out (Int64.lognot (or_words code v (at + 3) (at + 2 + n)));
        pc := at + 3 + n
    | 2 ->
        let acc = ref 0L and k = ref (at + 3) in
        for _ = 1 to n do
          let len = Array.unsafe_get code !k in
          acc := Int64.logor !acc (and_words code v (!k + 1) (!k + len));
          k := !k + len + 1
        done;
        set64 v out (Int64.lognot !acc);
        pc := !k
    | _ ->
        let acc = ref (-1L) and k = ref (at + 3) in
        for _ = 1 to n do
          let len = Array.unsafe_get code !k in
          acc := Int64.logand !acc (or_words code v (!k + 1) (!k + len));
          k := !k + len + 1
        done;
        set64 v out (Int64.lognot !acc);
        pc := !k
  done

let eval_nets circuit ~inputs =
  let nets = C.net_count circuit in
  let v = Bytes.make (8 * nets) '\000' in
  List.iter (fun net -> set64 v (8 * net) (inputs net)) (C.primary_inputs circuit);
  exec (compile circuit) v;
  Array.init nets (fun net -> get64 v (8 * net))

(* --- blocks --- *)

type block = {
  b_toggles : int array;
  b_rises : int array;
  b_high : int array;
}

(* The primary inputs' byte offsets and thresholds, in input order:
   flip probabilities 0→1 and 1→0 and the stationary probability, each
   as m / 2^[mask_bits]. *)
type stimulus = { off : int array; ma : int array; mb : int array; mp : int array }

(* Uniform words drawn from a block's stream per refill. *)
let draw_batch = 256

(* One block: [words] independent word-trajectories of [steps] steps,
   all drawn from this block's private RNG stream. Each lane starts in
   its stationary distribution; counts cover the post-transition states
   of steps 1..steps. The loop allocates nothing per step: net words sit
   in two buffers that swap roles, and counts go to int arrays. Rises are
   not counted per step: over one lane's trajectory, rises − falls =
   last − first, so Σ rises = (Σ toggles + Σ last − Σ first) / 2 exactly;
   [rises] holds Σ last − Σ first until the block ends. *)
let run_block ~nets ~pis ~code ~words ~steps rng =
  let toggles = Array.make nets 0 in
  let rises = Array.make nets 0 in
  let high = Array.make nets 0 in
  let d = draws ~batch:draw_batch rng in
  let prev = ref (Bytes.make (8 * nets) '\000') in
  let cur = ref (Bytes.make (8 * nets) '\000') in
  (* Adds [sign] times each net's lanes at 1 in [v] to [rises]. *)
  let add_ones sign v =
    for net = 0 to nets - 1 do
      rises.(net) <- rises.(net) + (sign * popcount (get64 v (8 * net)))
    done
  in
  for _w = 1 to words do
    let p = !prev in
    for k = 0 to Array.length pis.off - 1 do
      set64 p pis.off.(k) (mask_of_m d pis.mp.(k))
    done;
    exec code p;
    add_ones (-1) p;
    for _s = 1 to steps do
      let p = !prev and c = !cur in
      for k = 0 to Array.length pis.off - 1 do
        let o = pis.off.(k) in
        let v = get64 p o in
        set64 c o (Int64.logxor v (flip_mask d ~ma:pis.ma.(k) ~mb:pis.mb.(k) v))
      done;
      exec code c;
      for net = 0 to nets - 1 do
        let cv = get64 c (8 * net) in
        let ch = Int64.logxor (get64 p (8 * net)) cv in
        if ch <> 0L then toggles.(net) <- toggles.(net) + popcount ch;
        high.(net) <- high.(net) + popcount cv
      done;
      prev := c;
      cur := p
    done;
    add_ones 1 !prev
  done;
  for net = 0 to nets - 1 do
    rises.(net) <- (toggles.(net) + rises.(net)) / 2
  done;
  { b_toggles = toggles; b_rises = rises; b_high = high }

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
    let nets = Array.of_list (C.primary_inputs circuit) in
    let stats = Array.map inputs nets in
    let thresholds f = Array.map (fun s -> m_of_prob (f s)) stats in
    {
      off = Array.map (fun net -> 8 * net) nets;
      ma = thresholds (fun s -> fst (flip_probs s ~dt));
      mb = thresholds (fun s -> snd (flip_probs s ~dt));
      mp = thresholds S.prob;
    }
  in
  let code = compile circuit in
  (* Per-block streams split off the master before any parallelism, so
     the stimulus is a pure function of (seed, block index). *)
  let master = Stoch.Rng.create seed in
  let rngs = Array.init blocks (fun _ -> Stoch.Rng.split master) in
  (* One tick per completed block (ticks are atomic, so worker domains
     feed the same heartbeat the sequential path does). *)
  Telemetry.progress_begin ~phase:"mc.run" ~total:blocks;
  let run rng =
    let r = run_block ~nets ~pis ~code ~words ~steps rng in
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
