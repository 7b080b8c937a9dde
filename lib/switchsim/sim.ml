module C = Netlist.Circuit
module W = Stoch.Waveform

let c_events_popped = Obs.counter "switchsim.events_popped"
let c_gate_evals = Obs.counter "switchsim.gate_evals"
let c_net_toggles = Obs.counter "switchsim.net_toggles"
let c_glitches_absorbed = Obs.counter "switchsim.glitches_absorbed"
let c_probe_events = Obs.counter "switchsim.probe_events"

type value = V0 | V1 | VX

type observer = {
  on_net :
    time:float -> net:int -> before:value -> after:value -> in_window:bool -> unit;
  on_internal :
    (time:float ->
    gate:int ->
    node:int ->
    before:value ->
    after:value ->
    in_window:bool ->
    unit)
    option;
  on_energy : (time:float -> gate:int -> node:int -> energy:float -> unit) option;
}

(* One gate instance: its cell configuration's shared switch-level
   model and what the instance adds to it. Powered nodes are numbered as
   in the tables: the output 0, internal node [i] at [i + 1]. *)
type sim_gate = {
  tables : Cell.Config.tables;
  fanins : int array;  (* per pin: the circuit net *)
  caps : float array;  (* per powered node *)
  output_net : int;
}

type t = {
  circ : C.t;
  proc : Cell.Process.t;
  gates : sim_gate array;
  topo : int array;
  readers : int list array;  (* net -> reading gate indices *)
}

let build proc ?external_load circ =
  let build_gate g (gate : C.gate) =
    let network = Cell.Config.nth_network gate.C.cell gate.C.config in
    let caps =
      Array.of_list
        (List.map
           (Cell.Process.node_capacitance proc network)
           (Sp.Network.power_nodes network))
    in
    caps.(0) <- caps.(0) +. Netlist.Load.output proc ?external_load circ g;
    {
      tables = Cell.Config.nth_tables gate.C.cell gate.C.config;
      fanins = gate.C.fanins;
      caps;
      output_net = gate.C.output;
    }
  in
  {
    circ;
    proc;
    gates = Array.mapi build_gate (C.gates circ);
    topo = Array.of_list (C.topological_order circ);
    readers =
      Array.init (C.net_count circ) (fun n ->
          List.map fst (C.readers circ n));
  }

let circuit t = t.circ
let internal_nodes t g = Array.length t.gates.(g).caps - 1

type result = {
  horizon : float;
  events : int;
  energy : float;
  power : float;
  per_gate_energy : float array;
  per_net_energy : float array;
  net_toggles : int array;
  net_high_time : float array;
  final_values : value array;
}

type state = {
  sim : t;
  net_values : value array;
  node_states : value array array;  (* per gate, per powered node *)
  dirty : bool array;  (* per gate *)
  per_gate_energy : float array;
  net_toggles : int array;
  net_high_time : float array;
  net_last_change : float array;
  mutable accounting_from : float;
  observer : observer option;
}

let fresh_state sim warmup observer =
  let n_nets = C.net_count sim.circ in
  {
    sim;
    net_values = Array.make n_nets VX;
    node_states =
      Array.map (fun g -> Array.make (Array.length g.caps) VX) sim.gates;
    dirty = Array.make (Array.length sim.gates) false;
    per_gate_energy = Array.make (Array.length sim.gates) 0.;
    net_toggles = Array.make n_nets 0;
    net_high_time = Array.make n_nets 0.;
    net_last_change = Array.make n_nets 0.;
    accounting_from = warmup;
    observer;
  }

(* Accrue the time the net spent at 1 since its last change, clipped to
   the accounting window. *)
let accrue_high st ~now net =
  if st.net_values.(net) = V1 then begin
    let from = Float.max st.net_last_change.(net) st.accounting_from in
    if now > from then st.net_high_time.(net) <- st.net_high_time.(net) +. (now -. from)
  end

let set_net st ~now ~accounting net v =
  let old = st.net_values.(net) in
  if old <> v then begin
    accrue_high st ~now net;
    if accounting then begin
      match (old, v) with
      | (V0, V1) | (V1, V0) ->
          Obs.incr c_net_toggles;
          st.net_toggles.(net) <- st.net_toggles.(net) + 1
      | (V0 | V1 | VX), (V0 | V1 | VX) -> ()
    end;
    st.net_values.(net) <- v;
    st.net_last_change.(net) <- now;
    (match st.observer with
    | None -> ()
    | Some o ->
        Obs.incr c_probe_events;
        o.on_net ~time:now ~net ~before:old ~after:v ~in_window:accounting);
    List.iter (fun g -> st.dirty.(g) <- true) st.sim.readers.(net)
  end

(* Gate [g]'s input vector: pin [i] is bit [i]. Once [start] has
   settled the circuit every net is 0 or 1. *)
let input_vector st g =
  let fanins = st.sim.gates.(g).fanins in
  let v = ref 0 in
  for i = 0 to Array.length fanins - 1 do
    if st.net_values.(fanins.(i)) = V1 then v := !v lor (1 lsl i)
  done;
  !v

(* Powered node [j] under input vector [v]: high when a conducting path
   joins it to vdd, low when one joins it to vss, and otherwise holding
   its charge. No input vector joins a library cell's rails. *)
let next_value st g v j =
  let { Cell.Config.h; g = low } = st.sim.gates.(g).tables in
  if Cell.Config.at h.(j) v then V1
  else if Cell.Config.at low.(j) v then V0
  else st.node_states.(g).(j)

(* Commit one node's new value, depositing charging energy when it
   rises inside the accounting window. *)
let commit_node st ~now ~accounting g j next =
  let states = st.node_states.(g) in
  let prev = states.(j) in
  if next <> prev then begin
    if accounting && next = V1 then begin
      let vdd = st.sim.proc.Cell.Process.vdd in
      let scale = match prev with V0 -> 1. | VX -> 0.5 | V1 -> 0. in
      let e = scale *. st.sim.gates.(g).caps.(j) *. vdd *. vdd in
      st.per_gate_energy.(g) <- st.per_gate_energy.(g) +. e;
      match st.observer with
      | Some { on_energy = Some f; _ } ->
          Obs.incr c_probe_events;
          f ~time:now ~gate:g ~node:j ~energy:e
      | Some _ | None -> ()
    end;
    states.(j) <- next;
    if j > 0 then
      match st.observer with
      | Some { on_internal = Some f; _ } ->
          Obs.incr c_probe_events;
          f ~time:now ~gate:g ~node:j ~before:prev ~after:next
            ~in_window:accounting
      | Some _ | None -> ()
  end

(* Commit powered nodes [from] onward to input vector [v], in order. *)
let commit_from st ~now ~accounting g v from =
  for j = from to Array.length st.node_states.(g) - 1 do
    commit_node st ~now ~accounting g j (next_value st g v j)
  done

(* Zero-delay evaluation: commit every powered node immediately and
   return the new output value. *)
let evaluate_gate st ~now ~accounting g =
  Obs.incr c_gate_evals;
  commit_from st ~now ~accounting g (input_vector st g) 0;
  st.node_states.(g).(0)

(* Sweep all dirty gates in topological order, propagating output
   changes onward. *)
let settle st ~now ~accounting =
  Array.iter
    (fun g ->
      if st.dirty.(g) then begin
        st.dirty.(g) <- false;
        let out = evaluate_gate st ~now ~accounting g in
        set_net st ~now ~accounting st.sim.gates.(g).output_net out
      end)
    st.sim.topo

(* The start both modes share: check the stimulus, then settle the
   circuit on the inputs' values at t = 0, with no energy accounting.
   Returns the primary inputs, the horizon and the settled state. *)
let start t ~warmup ~observer ~inputs =
  let pis = C.primary_inputs t.circ in
  let horizon =
    match pis with
    | [] -> invalid_arg "Switchsim.run: circuit has no primary inputs"
    | first :: rest ->
        let h = W.horizon (inputs first) in
        List.iter
          (fun net ->
            if W.horizon (inputs net) <> h then
              invalid_arg "Switchsim.run: waveform horizons differ")
          rest;
        h
  in
  if warmup < 0. || warmup >= horizon then
    invalid_arg "Switchsim.run: warmup outside [0, horizon)";
  let st = fresh_state t warmup observer in
  List.iter
    (fun net ->
      set_net st ~now:0. ~accounting:false net
        (if W.initial (inputs net) then V1 else V0))
    pis;
  Array.iter (fun g -> st.dirty.(g) <- true) t.topo;
  settle st ~now:0. ~accounting:false;
  (pis, horizon, st)

(* Flush high-time up to the horizon and read the result out. Per-net
   energy is the driving gate's total (every net has at most one
   driver, so this is a re-indexing of [per_gate_energy], not a
   re-summation); [energy] is defined as its fold in net-id order so
   the per-net decomposition is conserved bit-for-bit. *)
let finish st ~events ~horizon ~warmup =
  Array.iteri (fun net _ -> accrue_high st ~now:horizon net) st.net_values;
  let window = horizon -. warmup in
  let per_net = Array.make (C.net_count st.sim.circ) 0. in
  Array.iteri
    (fun g (sg : sim_gate) -> per_net.(sg.output_net) <- st.per_gate_energy.(g))
    st.sim.gates;
  let energy = Array.fold_left ( +. ) 0. per_net in
  {
    horizon = window;
    events;
    energy;
    power = energy /. window;
    per_gate_energy = st.per_gate_energy;
    per_net_energy = per_net;
    net_toggles = st.net_toggles;
    net_high_time = st.net_high_time;
    final_values = Array.copy st.net_values;
  }

(* One stationary Markov waveform per primary input, each from its own
   stream split off [rng] in input order. *)
let stimulus t ~rng ~stats ~horizon =
  let table = Hashtbl.create 16 in
  List.iter
    (fun net ->
      let stream = Stoch.Rng.split rng in
      Hashtbl.add table net (W.generate stream (stats net) ~horizon))
    (C.primary_inputs t.circ);
  fun net ->
    match Hashtbl.find_opt table net with
    | Some w -> w
    | None -> invalid_arg "Switchsim.run_stats: not a primary input net"

let run t ?(warmup = 0.) ?observer ~inputs () =
  Obs.span "switchsim.run" @@ fun () ->
  let pis, horizon, st = start t ~warmup ~observer ~inputs in
  (* Merge the per-input event streams by time. *)
  let events =
    List.concat_map
      (fun net ->
        Array.to_list (Array.map (fun time -> (time, net)) (W.transitions (inputs net))))
      pis
    |> List.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
  in
  let n_events = List.length events in
  (* Events sharing an instant (clocked stimuli) are applied together
     before settling, otherwise phantom glitches appear between the
     partial input updates. *)
  let flip ~now ~accounting net =
    Obs.incr c_events_popped;
    let flipped =
      match st.net_values.(net) with V1 -> V0 | V0 -> V1 | VX -> V1
    in
    set_net st ~now ~accounting net flipped
  in
  let rec process = function
    | [] -> ()
    | (now, net) :: rest ->
        let accounting = now >= warmup in
        flip ~now ~accounting net;
        let rec simultaneous = function
          | (t, other) :: more when t = now ->
              flip ~now ~accounting other;
              simultaneous more
          | remaining -> remaining
        in
        let rest = simultaneous rest in
        settle st ~now ~accounting;
        process rest
  in
  process events;
  finish st ~events:n_events ~horizon ~warmup

let run_stats t ~rng ~stats ~horizon ?warmup ?observer () =
  run t ?warmup ?observer ~inputs:(stimulus t ~rng ~stats ~horizon) ()

(* --- timed (inertial) mode --- *)

type timed_event =
  | Input_toggle of int  (* net *)
  | Commit of int * int  (* gate, serial; stale when the serial moved on *)

let run_timed t ?(warmup = 0.) ?observer ~gate_delay ~inputs () =
  Obs.span "switchsim.run_timed" @@ fun () ->
  (* The initial values settle with zero delay. *)
  let pis, horizon, st = start t ~warmup ~observer ~inputs in
  let n_gates = Array.length t.gates in
  let delays =
    Array.init n_gates (fun g ->
        let d = gate_delay g in
        if d < 0. || not (Float.is_finite d) then
          invalid_arg "Switchsim.run_timed: negative gate delay";
        d)
  in
  let heap = Event_heap.create () in
  let n_events = ref 0 in
  List.iter
    (fun net ->
      Array.iter
        (fun time ->
          incr n_events;
          Event_heap.push heap ~time (Input_toggle net))
        (W.transitions (inputs net)))
    pis;
  (* Per-gate pending output commit, invalidated by bumping the serial
     (lazy deletion in the heap). *)
  let serial = Array.make n_gates 0 in
  let pending = Array.make n_gates VX in
  let has_pending = Array.make n_gates false in
  let schedule now g v =
    serial.(g) <- serial.(g) + 1;
    pending.(g) <- v;
    has_pending.(g) <- true;
    Event_heap.push heap ~time:(now +. delays.(g)) (Commit (g, serial.(g)))
  in
  let cancel g =
    (* A scheduled output pulse narrower than the gate's inertial delay
       is swallowed before it ever reaches the net: a filtered glitch. *)
    Obs.incr c_glitches_absorbed;
    serial.(g) <- serial.(g) + 1;
    has_pending.(g) <- false
  in
  (* A gate reacts to an input change: internal nodes follow at once
     (their RC is folded into the gate delay), the output transition is
     scheduled after the inertial delay — or absorbed if the inputs
     moved back first. *)
  let react now ~accounting g =
    Obs.incr c_gate_evals;
    let inputs = input_vector st g in
    commit_from st ~now ~accounting g inputs 1;
    let v = next_value st g inputs 0 in
    let gate = t.gates.(g) in
    let current = st.net_values.(gate.output_net) in
    if has_pending.(g) then begin
      if v = pending.(g) then ()
      else if v = current then cancel g
      else schedule now g v
    end
    else if v <> current then schedule now g v
  in
  let rec drain () =
    match Event_heap.pop heap with
    | None -> ()
    | Some (now, event) ->
        Obs.incr c_events_popped;
        let accounting = now >= warmup in
        begin match event with
        | Input_toggle net ->
            let flipped =
              match st.net_values.(net) with V1 -> V0 | V0 -> V1 | VX -> V1
            in
            set_net st ~now ~accounting net flipped;
            List.iter (react now ~accounting) t.readers.(net)
        | Commit (g, s) ->
            if has_pending.(g) && s = serial.(g) then begin
              has_pending.(g) <- false;
              let v = pending.(g) in
              let gate = t.gates.(g) in
              commit_node st ~now ~accounting g 0 v;
              set_net st ~now ~accounting gate.output_net v;
              List.iter (react now ~accounting) t.readers.(gate.output_net)
            end
        end;
        drain ()
  in
  drain ();
  finish st ~events:!n_events ~horizon ~warmup

let run_timed_stats t ~rng ~stats ~gate_delay ~horizon ?warmup ?observer () =
  run_timed t ?warmup ?observer ~gate_delay
    ~inputs:(stimulus t ~rng ~stats ~horizon)
    ()

let measured_stats (r : result) net =
  Stoch.Signal_stats.make
    ~prob:(Float.min 1. (r.net_high_time.(net) /. r.horizon))
    ~density:(float_of_int r.net_toggles.(net) /. r.horizon)
