module C = Netlist.Circuit
module Stats = Stoch.Signal_stats

let c_gates_visited = Obs.counter "optimizer.gates_visited"
let c_configs_explored = Obs.counter "optimizer.configs_explored"
let c_configs_pruned = Obs.counter "optimizer.configs_pruned"
let c_sta_checks = Obs.counter "optimizer.sta_checks"
let c_sta_rejects = Obs.counter "optimizer.sta_rejects"
let c_parallel_levels = Obs.counter "optimizer.parallel_levels"
let d_configs_per_gate = Obs.distribution "optimizer.configs_per_gate"
let d_gate_reduction = Obs.distribution "optimizer.gate_reduction_percent"
let c_inc_applies = Obs.counter "incremental.applies"
let c_inc_cold_runs = Obs.counter "incremental.cold_runs"
let c_inc_dirty_nets = Obs.counter "incremental.dirty_nets"
let c_inc_dirty_gates = Obs.counter "incremental.dirty_gates"
let c_inc_cutoffs = Obs.counter "incremental.cutoffs"

type objective =
  | Min_power
  | Max_power
  | Min_power_delay_bounded
  | Min_delay

type report = {
  circuit : C.t;
  configs : int array;
  power_before : float;
  power_after : float;
  gates_changed : int;
  configurations_explored : int;
}

let reduction_percent ~best ~worst =
  if worst <= 0. then 0.
  else Float.min 100. (Float.max 0. (100. *. (worst -. best) /. worst))

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %.4g -> %.4g W (%.1f%% reduction, %d/%d gates changed, %d \
     configurations explored)"
    (C.name r.circuit) r.power_before r.power_after
    (reduction_percent ~best:r.power_after ~worst:r.power_before)
    r.gates_changed
    (Array.length r.configs) r.configurations_explored

let power_objective = function
  | Min_power | Max_power -> true
  | Min_power_delay_bounded | Min_delay -> false

let candidates_of ~input_only (gate : C.gate) =
  let cell = gate.C.cell in
  if input_only then Cell.Config.input_reorderings cell
  else List.init (Cell.Gate.config_count cell) Fun.id

(* FIND_BEST_REORDERING's fold, the only one: candidates left to right,
   and a candidate replaces the best so far only if it costs strictly
   less. Seeded with the incumbent, a gate already at its optimum keeps
   it, which is what lets an ECO apply skip its clean gates. *)
let argmin cost seed candidates =
  List.fold_left
    (fun ((_, best) as acc) i ->
      let c = cost i in
      if c < best then (i, c) else acc)
    seed candidates

(* The delay bound, under [Min_power_delay_bounded] only: the input's
   timing, each net's required time against its critical delay, and the
   arrivals at the outputs of the gates decided so far. Every settle
   under this objective sweeps every gate, so each gate's fanins'
   arrivals are decided before it is. *)
type timing = {
  sta : Delay.Sta.t;
  required : float array;  (* per net *)
  arrival : float array;  (* per net *)
}

(* --- Sessions: the one sweep driver and the state it settles ---------

   A session keeps everything a settled run computed, in arrays it owns:
   the per-net statistics (§4.2: configuration-independent), each gate's
   configuration, output load, and internal and output power under its
   winning configuration. A settle decides the dirty gates and updates
   only their entries. A cold run is a settle with every gate dirty; an
   edit batch dirties the gates it touches, re-propagates Najm
   statistics only through the fan-out cones of the nets it edits (with
   a bit-identical early cut-off) and settles those gates. The report is
   built on first read: the per-gate powers folded in
   {!Power.Estimate.circuit}'s exact summation order, so it is
   bit-identical to a cold run on the same circuit.

   The bit-identity rests on two fixed points. First, statistics: a
   clean net's value is exactly what [Power.Analysis.run] would
   recompute from clean fanins. Second, decisions: a clean gate's
   incumbent configuration is the previous winner, and [argmin] seeds
   its fold with the incumbent and replaces only on strict [<], so
   re-sweeping it would return the incumbent — skipping the sweep
   changes nothing. Memoized sessions rely on verdict purity instead: a
   warm entry equals what a fresh miss would compute, so the memo is
   fixed when the session starts. *)

type session = {
  table : Power.Model.table;
  delay : Delay.Elmore.table;
  memo : Memo.t option;
  input_only : bool;
  mutable objective : objective;
  mutable external_load : float;
  mutable circuit : C.t;  (* connectivity; [configs] has the configurations *)
  mutable levels : int array;  (* per gate *)
  mutable order : int array;  (* the gates in sweep order *)
  mutable rank : int array;  (* per gate, its position in [order] *)
  stats : Stats.t array;  (* per net *)
  configs : int array;  (* per gate: the winner, the next incumbent *)
  incumbents : int array;  (* per gate: what its last sweep started from *)
  loads : float array;  (* per gate output load, F *)
  internal : float array;  (* per gate, winning configuration, W *)
  output : float array;
  internal_before : float array;  (* per gate, incumbent, W *)
  output_before : float array;
  dirty : bool array;  (* per gate: swept by the last settle *)
  mutable swept : int list;  (* the same gates, ascending after a settle *)
  mutable explored : int;
  mutable changed : int;
  mutable report : report option;  (* built on first read after a settle *)
  reached : bool array;  (* per gate, scratch for the cone walk *)
  moved : bool array;  (* per net, scratch: statistics changed *)
}

(* The order [settle] decides gates in: level by level, each level in
   topological order. *)
let sweep_order circuit levels =
  let depth = C.depth circuit in
  let next = Array.make (depth + 2) 0 in
  Array.iter (fun l -> next.(l + 1) <- next.(l + 1) + 1) levels;
  for l = 1 to depth + 1 do
    next.(l) <- next.(l) + next.(l - 1)
  done;
  let order = Array.make (Array.length levels) 0 in
  List.iter
    (fun g ->
      let l = levels.(g) in
      order.(next.(l)) <- g;
      next.(l) <- next.(l) + 1)
    (C.topological_order circuit);
  order

let rank_of order =
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun i g -> rank.(g) <- i) order;
  rank

let by_rank s a b = Int.compare s.rank.(a) s.rank.(b)
let input_stats_of s (gate : C.gate) =
  Array.map (fun net -> s.stats.(net)) gate.C.fanins

let mark s g =
  if not s.dirty.(g) then begin
    s.dirty.(g) <- true;
    s.swept <- g :: s.swept
  end

(* One gate to decide, resolved on the calling domain: its candidates
   and, under a power-costed objective, the compiled program of every
   configuration [decide] may cost, by configuration. *)
type work = {
  w_gate : int;
  w_candidates : int list;
  w_programs : Power.Model.program array;
}

(* The programs of the incumbent and each candidate, looked up in the
   order an exhaustive [decide] costs them: the incumbent, then the
   candidates left to right. So such a settle builds the keys its sweep
   costs, in the same order, with one lookup per evaluation. The bound
   and the memo may leave some unevaluated. A configuration that is
   neither keeps the incumbent's program, which [decide] never reads.
   Delay costs read no program. *)
let resolve s g candidates =
  match s.objective with
  | Min_delay -> [||]
  | Min_power | Max_power | Min_power_delay_bounded ->
      let gate = C.gate_at s.circuit g in
      let groups = Power.Model.groups_of_nets gate.C.fanins in
      let program config =
        Power.Model.program s.table gate.C.cell ~config ~groups
      in
      let programs =
        Array.make (Cell.Gate.config_count gate.C.cell) (program s.configs.(g))
      in
      List.iter (fun c -> programs.(c) <- program c) candidates;
      programs

(* A gate's verdict; [settle] applies these in level-major order, so
   counters, distributions and [configs] evolve the same whether the
   level was decided inline or across the pool. *)
type decision = {
  d_gate : int;
  d_chosen : int;
  d_candidates : int;
  d_reduction : float option;
}

(* One gate decision under any objective, on the calling domain or a
   pool worker. Returns the chosen configuration and, for the
   power-minimizing objectives, its per-gate reduction over the
   incumbent. Reads the gate's own entry of [configs] only, which no
   decision of its level writes, and evaluates the programs [resolve]
   looked up: it never reads the power table. *)
let decide s timing w =
  Obs.span "optimize.gate" @@ fun () ->
  let g = w.w_gate and candidates = w.w_candidates in
  let gate = C.gate_at s.circuit g in
  let cell = gate.C.cell and incumbent = s.configs.(g) in
  let input_stats = input_stats_of s gate in
  let load = s.loads.(g) in
  let maximize = s.objective = Max_power in
  (* The objective's cost of one configuration: power, negated to
     maximize it, or worst-case pin delay. *)
  let cost ?(input_stats = input_stats) ?(load = load) config =
    match s.objective with
    | Min_delay -> Delay.Elmore.worst_delay s.delay cell ~config ~load
    | Min_power | Max_power | Min_power_delay_bounded ->
        let p = Power.Model.total w.w_programs.(config) ~input_stats ~load in
        if maximize then -.p else p
  in
  (* The delay bound: a candidate is admissible if the circuit, with it
     in place and the decisions so far, stays within the input's
     critical delay. Gates are decided level by level, so the gates
     upstream of this one are decided and those downstream are still at
     their incumbents, as the required times assume; and no path meets
     two gates of one level, so paths avoiding this gate stay within the
     budget. That makes one forward step against the output's required
     time exactly the circuit-level check. *)
  let admissible timing config =
    Obs.incr c_sta_checks;
    let ok =
      Delay.Sta.step timing.sta timing.arrival g ~config
      <= timing.required.(gate.C.output)
    in
    if not ok then Obs.incr c_sta_rejects;
    ok
  in
  let reduction ~current ~best =
    match s.objective with
    | Min_power | Min_power_delay_bounded ->
        Some (reduction_percent ~best ~worst:current)
    | Max_power | Min_delay -> None
  in
  let chosen, reduction =
    match (s.objective, s.memo) with
    | (Min_power | Max_power), Some memo ->
        (* A memo hit, or a miss decided at the key's representative
           statistics and load and seeded with the first candidate, not
           the incumbent: the verdict is a pure function of the key, so
           racing workers store the same value. *)
        let key =
          Memo.key ~cell ~maximize ~input_only:s.input_only
            ~groups:(Power.Model.groups_of_nets gate.C.fanins)
            ~input_stats ~load
        in
        let chosen =
          match Memo.lookup memo key with
          | Some chosen -> chosen
          | None ->
              let cost =
                cost
                  ~input_stats:(Memo.representative_stats input_stats)
                  ~load:(Memo.representative_load load)
              in
              let chosen =
                match candidates with
                | [] -> incumbent
                | first :: rest -> fst (argmin cost (first, cost first) rest)
              in
              Memo.store memo key chosen;
              chosen
        in
        if maximize then (chosen, None)
        else
          let current = cost incumbent in
          let best = if chosen = incumbent then current else cost chosen in
          (chosen, reduction ~current ~best)
    | _ ->
        let candidates =
          match timing with
          | None -> candidates
          | Some timing ->
              let kept = List.filter (admissible timing) candidates in
              Obs.add c_configs_pruned
                (List.length candidates - List.length kept);
              kept
        in
        let current = cost incumbent in
        let chosen, best = argmin cost (incumbent, current) candidates in
        (chosen, reduction ~current ~best)
  in
  {
    d_gate = g;
    d_chosen = chosen;
    d_candidates = List.length candidates;
    d_reduction = reduction;
  }

(* Decide the dirty gates ([s.swept]) and record their powers. Every
   dirty gate's programs are resolved first, on the calling domain; the
   gates are then decided level by level, each level in topological
   order, and each level's decisions applied in that order. A level of
   several gates maps across the pool when it has [jobs > 1] and the
   objective is a power objective; everything else runs inline, because
   [Min_delay] and the bounded check share the Elmore cache, an
   unsynchronized [Hashtbl]. *)
let settle ?pool s ~phase =
  let circuit = s.circuit in
  (* Every gate dirty, as on a cold run: the sweep order as it stands.
     Sorting every gate would cost a cold run a few percent. *)
  let n = Array.length s.order in
  let gates =
    if List.compare_length_with s.swept n = 0 then begin
      s.swept <- List.init n Fun.id;
      s.order
    end
    else begin
      s.swept <- List.sort Int.compare s.swept;
      let gates = Array.of_list s.swept in
      Array.sort (by_rank s) gates;
      gates
    end
  in
  let total = ref 0 in
  let work =
    Obs.span "optimize.resolve" @@ fun () ->
    Array.map
      (fun g ->
        s.loads.(g) <-
          Netlist.Load.output (Power.Model.process s.table)
            ~external_load:s.external_load circuit g;
        s.incumbents.(g) <- s.configs.(g);
        let candidates =
          candidates_of ~input_only:s.input_only (C.gate_at circuit g)
        in
        total := !total + List.length candidates;
        {
          w_gate = g;
          w_candidates = candidates;
          w_programs = resolve s g candidates;
        })
      gates
  in
  let timing =
    match s.objective with
    | Min_power_delay_bounded ->
        let sta =
          Delay.Sta.run s.delay ~external_load:s.external_load
            (C.with_configs circuit s.configs)
        in
        let budget = Delay.Sta.critical_delay sta +. 1e-18 in
        Some
          {
            sta;
            required = Delay.Sta.required sta ~budget;
            arrival = Array.make (C.net_count circuit) 0.;
          }
    | Min_power | Max_power | Min_delay -> None
  in
  (* The sweep's denominator is known before it starts (§4: every
     gate's candidate list is enumerable up-front), so the telemetry
     heartbeat's percent/ETA is exact rather than guessed. *)
  Telemetry.progress_begin ~phase ~total:!total;
  let explored = ref 0 in
  let finish d =
    Obs.incr c_gates_visited;
    Obs.add c_configs_explored d.d_candidates;
    Obs.observe d_configs_per_gate (float_of_int d.d_candidates);
    explored := !explored + d.d_candidates;
    Option.iter (Obs.observe d_gate_reduction) d.d_reduction;
    s.configs.(d.d_gate) <- d.d_chosen;
    (match timing with
    | None -> ()
    | Some t ->
        t.arrival.((C.gate_at circuit d.d_gate).C.output) <-
          Delay.Sta.step t.sta t.arrival d.d_gate ~config:d.d_chosen);
    Telemetry.progress_tick ~n:d.d_candidates ()
  in
  let pool =
    match pool with
    | Some p when Par.Pool.jobs p > 1 && power_objective s.objective -> Some p
    | _ -> None
  in
  let rec sweep i =
    if i < Array.length work then begin
      let level = s.levels.(work.(i).w_gate) in
      let j = ref i in
      while !j < Array.length work && s.levels.(work.(!j).w_gate) = level do
        incr j
      done;
      let batch = Array.sub work i (!j - i) in
      let decisions =
        match pool with
        | Some p when Array.length batch > 1 ->
            Obs.span "optimize.level" @@ fun () ->
            Obs.incr c_parallel_levels;
            Par.Pool.map p (decide s timing) batch
        | _ -> Array.map (decide s timing) batch
      in
      Array.iter finish decisions;
      sweep !j
    end
  in
  sweep 0;
  (* The swept gates' incumbent and winner powers, in gate order. *)
  let changed = ref 0 in
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let incumbent = s.incumbents.(g) and chosen = s.configs.(g) in
      let record config =
        Power.Model.gate_power s.table gate.C.cell ~config
          ~input_stats:(input_stats_of s gate)
          ~groups:(Power.Model.groups_of_nets gate.C.fanins)
          ~load:s.loads.(g) ()
      in
      let before = record incumbent in
      let after =
        if chosen = incumbent then before
        else begin
          incr changed;
          record chosen
        end
      in
      s.internal_before.(g) <- before.Power.Model.internal;
      s.output_before.(g) <- before.Power.Model.output;
      s.internal.(g) <- after.Power.Model.internal;
      s.output.(g) <- after.Power.Model.output)
    s.swept;
  s.explored <- !explored;
  s.changed <- !changed;
  s.report <- None

let start table ~delay ?(external_load = Netlist.Load.default_external)
    ?(objective = Min_power) ?(input_reordering_only = false) ?pool ?memo
    circuit ~inputs =
  Obs.span "optimize.run" @@ fun () ->
  let analysis = Power.Analysis.run table circuit ~inputs in
  let n = C.gate_count circuit in
  let floats () = Array.make n 0. in
  let levels = C.levels circuit in
  let order = sweep_order circuit levels in
  let s =
    {
      table;
      delay;
      memo;
      input_only = input_reordering_only;
      objective;
      external_load;
      circuit;
      levels;
      order;
      rank = rank_of order;
      stats = Power.Analysis.all_stats analysis;
      configs = Array.init n (fun g -> (C.gate_at circuit g).C.config);
      incumbents = Array.make n 0;
      loads = floats ();
      internal = floats ();
      output = floats ();
      internal_before = floats ();
      output_before = floats ();
      dirty = Array.make n true;
      swept = List.init n Fun.id;
      explored = 0;
      changed = 0;
      report = None;
      reached = Array.make n false;
      moved = Array.make (C.net_count circuit) false;
    }
  in
  settle ?pool s ~phase:"optimize.sweep";
  s

let session_report s =
  match s.report with
  | Some r -> r
  | None ->
      (* Estimate.circuit's order: internal and output accumulated
         separately, gate index ascending. A gate the last settle did
         not sweep kept its incumbent, so its before and after agree. *)
      let internal_b = ref 0. and output_b = ref 0. in
      let internal_a = ref 0. and output_a = ref 0. in
      for g = 0 to Array.length s.configs - 1 do
        if s.dirty.(g) then begin
          internal_b := !internal_b +. s.internal_before.(g);
          output_b := !output_b +. s.output_before.(g)
        end
        else begin
          internal_b := !internal_b +. s.internal.(g);
          output_b := !output_b +. s.output.(g)
        end;
        internal_a := !internal_a +. s.internal.(g);
        output_a := !output_a +. s.output.(g)
      done;
      let r =
        {
          circuit = C.with_configs s.circuit s.configs;
          configs = Array.copy s.configs;
          power_before = !internal_b +. !output_b;
          power_after = !internal_a +. !output_a;
          gates_changed = s.changed;
          configurations_explored = s.explored;
        }
      in
      s.report <- Some r;
      r

let session_memo s = s.memo
let session_dirty s = Some (Array.copy s.dirty)
let session_swept s = s.swept
let session_table s = s.table
let session_circuit s = s.circuit
let session_stats s net = s.stats.(net)
let session_external_load s = s.external_load
let session_objective s = s.objective

type gate_state = {
  incumbent : int;
  chosen : int;
  input_stats : Stats.t array;
  load : float;
}

let session_gate s g =
  {
    incumbent = (if s.dirty.(g) then s.incumbents.(g) else s.configs.(g));
    chosen = s.configs.(g);
    input_stats = input_stats_of s (C.gate_at s.circuit g);
    load = s.loads.(g);
  }

let same_stats a b =
  Stats.prob a = Stats.prob b && Stats.density a = Stats.density b

type edits = {
  inputs : (C.net * Stats.t) list;
  configs : (int * int) list;
  rewired : (C.t * int list) option;
  external_load : float;
  objective : objective;
}

let resettle ?pool s (e : edits) =
  Obs.span "incremental.apply" @@ fun () ->
  List.iter (fun g -> s.dirty.(g) <- false) s.swept;
  s.swept <- [];
  let seeds = ref [] and moved = ref [] in
  let move net stats =
    s.stats.(net) <- stats;
    s.moved.(net) <- true;
    moved := net :: !moved;
    Obs.incr c_inc_dirty_nets
  in
  (* Primary-input statistic edits. *)
  List.iter
    (fun (pi, stats) ->
      if not (same_stats stats s.stats.(pi)) then begin
        move pi stats;
        seeds := pi :: !seeds
      end)
    e.inputs;
  (* A rewired gate changes its own output statistics and the loads of
     the gates driving every touched pin net (pin capacitances follow
     the reader's cell). *)
  let rewired =
    match e.rewired with
    | None -> []
    | Some (circuit, gates) ->
        let old = s.circuit in
        s.circuit <- circuit;
        s.levels <- C.levels circuit;
        s.order <- sweep_order circuit s.levels;
        s.rank <- rank_of s.order;
        List.iter
          (fun g ->
            let og = C.gate_at old g and ng = C.gate_at circuit g in
            s.configs.(g) <- ng.C.config;
            mark s g;
            seeds := ng.C.output :: !seeds;
            let mark_driver net =
              match C.driver circuit net with
              | C.Driven_by d -> mark s d
              | C.Primary_input -> ()
            in
            Array.iter mark_driver og.C.fanins;
            Array.iter mark_driver ng.C.fanins)
          gates;
        gates
  in
  (* A configuration edit is the §4.2 case: the gate re-sweeps but no
     statistics move. *)
  List.iter
    (fun (g, config) ->
      if config <> s.configs.(g) then begin
        s.configs.(g) <- config;
        mark s g
      end)
    e.configs;
  (* External-load edits touch exactly the primary-output drivers. *)
  if e.external_load <> s.external_load then begin
    s.external_load <- e.external_load;
    List.iter
      (fun po ->
        match C.driver s.circuit po with
        | C.Driven_by d -> mark s d
        | C.Primary_input -> ())
      (C.primary_outputs s.circuit)
  end;
  (* Najm re-propagation over the fan-out cones of the edited nets, in
     sweep order. The early cut-off: a recomputed net whose statistics
     are bit-identical to the old ones stops dirtying its readers. *)
  if !seeds <> [] then begin
    let cone = ref rewired in
    List.iter (fun g -> s.reached.(g) <- true) rewired;
    let rec visit net =
      List.iter
        (fun g ->
          if not s.reached.(g) then begin
            s.reached.(g) <- true;
            cone := g :: !cone;
            visit (C.gate_at s.circuit g).C.output
          end)
        (C.fanout s.circuit net)
    in
    List.iter visit !seeds;
    List.iter
      (fun g ->
        s.reached.(g) <- false;
        let gate = C.gate_at s.circuit g in
        if
          List.mem g rewired
          || Array.exists (fun net -> s.moved.(net)) gate.C.fanins
        then begin
          mark s g;
          let next =
            Power.Model.output_stats s.table gate.C.cell
              ~input_stats:(input_stats_of s gate)
              ~groups:(Power.Model.groups_of_nets gate.C.fanins)
              ()
          in
          if same_stats next s.stats.(gate.C.output) then
            Obs.incr c_inc_cutoffs
          else move gate.C.output next
        end)
      (List.sort (by_rank s) !cone)
  end;
  List.iter (fun net -> s.moved.(net) <- false) !moved;
  (* An objective flip re-decides every gate, and so does every settle
     under a delay objective; the statistics stay clean either way. *)
  let delay_objective = not (power_objective e.objective) in
  if e.objective <> s.objective || delay_objective then begin
    s.objective <- e.objective;
    Array.iteri (fun g _ -> mark s g) s.dirty
  end;
  Obs.incr (if delay_objective then c_inc_cold_runs else c_inc_applies);
  Obs.add c_inc_dirty_gates (List.length s.swept);
  settle ?pool s ~phase:"incremental.sweep"

let optimize power_table ~delay ?external_load ?objective
    ?input_reordering_only ?pool ?memo circuit ~inputs =
  session_report
    (start power_table ~delay ?external_load ?objective ?input_reordering_only
       ?pool ?memo circuit ~inputs)

let best_and_worst power_table ~delay ?external_load ?pool ?memo circuit
    ~inputs =
  let best =
    optimize power_table ~delay ?external_load ~objective:Min_power ?pool ?memo
      circuit ~inputs
  in
  let worst =
    optimize power_table ~delay ?external_load ~objective:Max_power ?pool ?memo
      circuit ~inputs
  in
  (best, worst)
