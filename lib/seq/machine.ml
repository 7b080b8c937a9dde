module C = Netlist.Circuit
module S = Stoch.Signal_stats

type t = {
  circuit : C.t;
  registers : (C.net * C.net) list;  (* (d, q) *)
  free : C.net list;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let create circuit ~registers =
  let resolve what name =
    match C.net_of_name circuit name with
    | Some net -> net
    | None -> invalid "%s %S is not a net of %s" what name (C.name circuit)
  in
  let pis = C.primary_inputs circuit in
  let bound = Hashtbl.create 16 in
  let pairs =
    List.map
      (fun (d_name, q_name) ->
        let d = resolve "register input" d_name in
        let q = resolve "register output" q_name in
        if not (List.mem q pis) then
          invalid "register output %S must be a primary input" q_name;
        if Hashtbl.mem bound q then
          invalid "primary input %S bound to two registers" q_name;
        Hashtbl.add bound q ();
        (d, q))
      registers
  in
  let free = List.filter (fun net -> not (Hashtbl.mem bound net)) pis in
  { circuit; registers = pairs; free }

let circuit t = t.circuit
let registers t = t.registers
let free_inputs t = t.free

(* --- fixpoint --- *)

type fixpoint = {
  analysis : Power.Analysis.t;
  iterations : int;
  converged : bool;
}

(* Register output statistics from its input's settled probability:
   the value changes across an edge iff consecutive samples differ;
   under the lag-one independence approximation that happens with
   probability 2·P·(1-P) per cycle. *)
let register_stats ~cycle_time p_d =
  S.make ~prob:p_d ~density:(2. *. p_d *. (1. -. p_d) /. cycle_time)

let steady_state table t ~inputs ?(cycle_time = Power.Scenario.cycle_time)
    ?(max_iterations = 500) ?(tolerance = 1e-6) ?(damping = 1.0) () =
  let q_stats = Hashtbl.create 16 in
  List.iter
    (fun (_, q) -> Hashtbl.replace q_stats q (register_stats ~cycle_time 0.5))
    t.registers;
  let lookup net =
    match Hashtbl.find_opt q_stats net with
    | Some s -> s
    | None -> inputs net
  in
  let rec iterate i analysis =
    let worst_change = ref 0. in
    List.iter
      (fun (d, q) ->
        let p_d = S.prob (Power.Analysis.stats analysis d) in
        let old = Hashtbl.find q_stats q in
        (* Damped update: undamped iteration oscillates on feedback like
           d = not q (period-2 orbits around the fixed point). *)
        let p_mixed = S.prob old +. (damping *. (p_d -. S.prob old)) in
        let fresh = register_stats ~cycle_time p_mixed in
        let change =
          Float.max
            (Float.abs (S.prob fresh -. S.prob old))
            (Float.abs (S.density fresh -. S.density old) *. cycle_time)
        in
        if change > !worst_change then worst_change := change;
        Hashtbl.replace q_stats q fresh)
      t.registers;
    if !worst_change <= tolerance then
      { analysis; iterations = i; converged = true }
    else if i >= max_iterations then
      { analysis; iterations = i; converged = false }
    else iterate (i + 1) (Power.Analysis.run table t.circuit ~inputs:lookup)
  in
  let first = Power.Analysis.run table t.circuit ~inputs:lookup in
  iterate 1 first

(* --- cycle-accurate reference --- *)

type trace = {
  cycles : int;
  register_stats : (C.net * S.t) list;
  power : float;
}

(* One cycle of the two-state Markov chain realizing (P, D): its flip
   probabilities at the cycle time; a constant input draws nothing. *)
let markov_step rng ~cycle_time stats current =
  match S.flip_probs stats ~dt:cycle_time with
  | None -> current
  | Some (p01, p10) ->
      if current then not (Stoch.Rng.bernoulli rng p10)
      else Stoch.Rng.bernoulli rng p01

let simulate proc t ~rng ~cycles ~inputs
    ?(cycle_time = Power.Scenario.cycle_time) () =
  if cycles < 2 then invalid_arg "Seq.Machine.simulate: cycles < 2";
  let pis = C.primary_inputs t.circuit in
  let streams = Hashtbl.create 16 in
  List.iter (fun net -> Hashtbl.replace streams net (Array.make cycles false)) pis;
  (* Initial values. *)
  let free_state = Hashtbl.create 16 in
  List.iter
    (fun net ->
      Hashtbl.replace free_state net
        (Stoch.Rng.bernoulli rng (S.prob (inputs net))))
    t.free;
  let q_state = Hashtbl.create 16 in
  List.iter (fun (_, q) -> Hashtbl.replace q_state q (Stoch.Rng.bool rng)) t.registers;
  for cycle = 0 to cycles - 1 do
    (* Advance free inputs (cycle 0 keeps the initial draw). *)
    if cycle > 0 then
      List.iter
        (fun net ->
          let current = Hashtbl.find free_state net in
          Hashtbl.replace free_state net
            (markov_step rng ~cycle_time (inputs net) current))
        t.free;
    let pi_value net =
      match Hashtbl.find_opt q_state net with
      | Some v -> v
      | None -> Hashtbl.find free_state net
    in
    List.iter
      (fun net -> (Hashtbl.find streams net).(cycle) <- pi_value net)
      pis;
    (* Next state. *)
    let values = Netlist.Eval.nets t.circuit ~inputs:pi_value in
    List.iter
      (fun (d, q) -> Hashtbl.replace q_state q values.(d))
      t.registers
  done;
  (* One zero-delay switch-level run over the recorded streams. *)
  let sim = Switchsim.Sim.build proc t.circuit in
  let waveform net =
    Stoch.Waveform.of_bits ~bits:(Hashtbl.find streams net) ~period:cycle_time
  in
  let result = Switchsim.Sim.run sim ~inputs:waveform () in
  let register_stats =
    List.map
      (fun (_, q) ->
        (q, Switchsim.Sim.measured_stats result q))
      t.registers
  in
  { cycles; register_stats; power = result.Switchsim.Sim.power }

let optimize table ~delay ?objective t ~inputs =
  let fp = steady_state table t ~inputs () in
  let stats net = Power.Analysis.stats fp.analysis net in
  let report =
    Reorder.Optimizer.optimize table ~delay ?objective t.circuit ~inputs:stats
  in
  (report, fp)
