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

let default_external_load = 20e-15

let power_objective = function
  | Min_power | Max_power -> true
  | Min_power_delay_bounded | Min_delay -> false

let candidates_of ~input_only (gate : C.gate) =
  let cell = gate.C.cell in
  if not input_only then List.init (Cell.Gate.config_count cell) Fun.id
  else
    let reference = Cell.Config.reference cell in
    List.concat
      (List.mapi
         (fun i c -> if Cell.Config.same_shape c reference then [ i ] else [])
         (Cell.Config.all cell))

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
   arrivals at the outputs of the gates decided so far. Sessions re-run
   this objective cold, so every gate is dirty and its fanins' arrivals
   are decided before it is. *)
type timing = {
  sta : Delay.Sta.t;
  required : float array;  (* per net *)
  arrival : float array;  (* per net *)
}

(* Everything one sweep reads. Statistics and loads do not depend on
   any configuration (§4.2), so every gate's decision is independent of
   the others' — except for the delay-bounded objective, whose check
   reads the arrivals of the gates decided before it. *)
type sweep = {
  delay : Delay.Elmore.table;
  objective : objective;
  input_only : bool;
  memo : Memo.t option;
  circuit : C.t;
  stats : Stats.t array;  (* per net *)
  loads : float array;  (* per gate *)
  candidates : int list array;  (* per gate; [] for clean gates *)
  configs : int array;  (* per gate *)
  timing : timing option;
}

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
   incumbent. *)
let decide sw table g =
  Obs.span "optimize.gate" @@ fun () ->
  let gate = C.gate_at sw.circuit g in
  let cell = gate.C.cell and incumbent = gate.C.config in
  let candidates = sw.candidates.(g) in
  let input_stats = Array.map (fun net -> sw.stats.(net)) gate.C.fanins in
  let groups = Power.Model.groups_of_nets gate.C.fanins in
  let load = sw.loads.(g) in
  let maximize = sw.objective = Max_power in
  (* The objective's cost of one configuration: power, negated to
     maximize it, or worst-case pin delay. *)
  let cost ?(input_stats = input_stats) ?(load = load) config =
    match sw.objective with
    | Min_delay -> Delay.Elmore.worst_delay sw.delay cell ~config ~load
    | Min_power | Max_power | Min_power_delay_bounded ->
        let p =
          Power.Model.gate_total table cell ~config ~input_stats ~groups ~load
        in
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
    match sw.objective with
    | Min_power | Min_power_delay_bounded ->
        Some (reduction_percent ~best ~worst:current)
    | Max_power | Min_delay -> None
  in
  let chosen, reduction =
    match (sw.objective, sw.memo) with
    | (Min_power | Max_power), Some memo ->
        (* A memo hit, or a miss decided at the key's representative
           statistics and load and seeded with the first candidate, not
           the incumbent: the verdict is a pure function of the key, so
           racing workers store the same value. *)
        let key =
          Memo.key ~cell ~maximize ~input_only:sw.input_only ~groups
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
          match sw.timing with
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

(* --- Settling: the one sweep driver ----------------------------------

   A session caches everything the last power-objective run computed:
   the rewritten circuit, the per-net statistics (§4.2:
   configuration-independent), each gate's output load and its internal
   and output power under the winning configuration. A cold run is a
   settle with every gate dirty and no cache; an apply diffs its
   arguments against the cache, re-propagates Najm statistics only
   through the fan-out cones of the edited nets (with a bit-identical
   early cut-off) and settles with only those gates dirty. Either way
   the per-gate powers are folded in {!Power.Estimate.circuit}'s exact
   summation order, so the report is bit-identical to a cold run on the
   same circuit.

   The bit-identity rests on two fixed points. First, statistics: a
   clean net's cached value is exactly what [Power.Analysis.run] would
   recompute from clean fanins. Second, decisions: a clean gate's
   incumbent configuration is the previous winner, and [argmin] seeds
   its fold with the incumbent and replaces only on strict [<], so
   re-sweeping it would return the incumbent — skipping the sweep
   changes nothing. Memoized sessions rely on verdict purity instead: a
   warm entry equals what a fresh miss would compute, so the memo mode
   must stay constant for a session's lifetime (fixed at creation). *)

type cache = {
  k_table : Power.Model.table;
  k_circuit : C.t;  (* last rewritten circuit (winning configurations) *)
  k_stats : Stats.t array;  (* per net *)
  k_internal : float array;  (* per gate, winning config, W *)
  k_output : float array;  (* per gate, winning config, W *)
  k_loads : float array;  (* per gate output load, F *)
  k_external_load : float;
  k_objective : objective;
  k_input_only : bool;
  k_dirty : bool array;  (* gates re-swept by the last settle *)
}

(* Decide the [dirty] gates and fold the report. The dirty gates are
   bucketed by level and each level's decisions applied in topological
   order. A level of several gates maps across the pool when it has
   [jobs > 1] and the objective is a power objective; everything else
   runs inline, because [Min_delay] and the bounded check share the
   Elmore cache, an unsynchronized [Hashtbl]. [cached] supplies clean
   gates' loads and powers. *)
let settle table ~delay ~external_load ~objective ~input_only ?pool ?memo
    ~phase circuit ~stats ~dirty cached =
  let n = C.gate_count circuit in
  let loads =
    match cached with Some k -> Array.copy k.k_loads | None -> Array.make n 0.
  in
  let levels = C.levels circuit in
  let buckets = Array.make (C.depth circuit + 1) [] in
  let candidates = Array.make n [] in
  let total = ref 0 in
  List.iter
    (fun g ->
      if dirty.(g) then begin
        loads.(g) <- Power.Estimate.output_load table ~external_load circuit g;
        buckets.(levels.(g)) <- g :: buckets.(levels.(g));
        candidates.(g) <- candidates_of ~input_only (C.gate_at circuit g);
        total := !total + List.length candidates.(g)
      end)
    (C.topological_order circuit);
  let timing =
    match objective with
    | Min_power_delay_bounded ->
        let sta = Delay.Sta.run delay ~external_load circuit in
        let budget = Delay.Sta.critical_delay sta +. 1e-18 in
        Some
          {
            sta;
            required = Delay.Sta.required sta ~budget;
            arrival = Array.make (C.net_count circuit) 0.;
          }
    | Min_power | Max_power | Min_delay -> None
  in
  let sw =
    {
      delay;
      objective;
      input_only;
      memo;
      circuit;
      stats;
      loads;
      candidates;
      configs = Array.init n (fun g -> (C.gate_at circuit g).C.config);
      timing;
    }
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
    sw.configs.(d.d_gate) <- d.d_chosen;
    (match sw.timing with
    | None -> ()
    | Some t ->
        t.arrival.((C.gate_at circuit d.d_gate).C.output) <-
          Delay.Sta.step t.sta t.arrival d.d_gate ~config:d.d_chosen);
    Telemetry.progress_tick ~n:d.d_candidates ()
  in
  let pool =
    match pool with
    | Some p when Par.Pool.jobs p > 1 && power_objective objective -> Some p
    | _ -> None
  in
  Array.iter
    (fun bucket ->
      let batch = Array.of_list (List.rev bucket) in
      let decisions =
        match pool with
        | Some p when Array.length batch > 1 ->
            Obs.span "optimize.level" @@ fun () ->
            Obs.incr c_parallel_levels;
            Par.Pool.map p (decide sw table) batch
        | _ -> Array.map (decide sw table) batch
      in
      Array.iter finish decisions)
    buckets;
  (* Fold the per-gate powers in Estimate.circuit's exact order
     (internal and output accumulated separately, gate index ascending),
     reading clean gates' powers from the cache: a clean gate's
     incumbent is its cached winner, so its before and after agree. *)
  let internal = Array.make n 0. and output = Array.make n 0. in
  let internal_b = ref 0. and output_b = ref 0. in
  let gates_changed = ref 0 in
  for g = 0 to n - 1 do
    let gate = C.gate_at circuit g in
    let chosen = sw.configs.(g) in
    if chosen <> gate.C.config then incr gates_changed;
    match cached with
    | Some k when not dirty.(g) ->
        internal.(g) <- k.k_internal.(g);
        output.(g) <- k.k_output.(g);
        internal_b := !internal_b +. internal.(g);
        output_b := !output_b +. output.(g)
    | _ ->
        let record config =
          Power.Model.gate_power table gate.C.cell ~config
            ~input_stats:(Array.map (fun net -> stats.(net)) gate.C.fanins)
            ~groups:(Power.Model.groups_of_nets gate.C.fanins)
            ~load:loads.(g) ()
        in
        let before = record gate.C.config in
        let after = if chosen = gate.C.config then before else record chosen in
        internal_b := !internal_b +. before.Power.Model.internal;
        output_b := !output_b +. before.Power.Model.output;
        internal.(g) <- after.Power.Model.internal;
        output.(g) <- after.Power.Model.output
  done;
  let sum = Array.fold_left ( +. ) 0. in
  let rewritten = C.with_configs circuit sw.configs in
  ( {
      circuit = rewritten;
      configs = sw.configs;
      power_before = !internal_b +. !output_b;
      power_after = sum internal +. sum output;
      gates_changed = !gates_changed;
      configurations_explored = !explored;
    },
    {
      k_table = table;
      k_circuit = rewritten;
      k_stats = stats;
      k_internal = internal;
      k_output = output;
      k_loads = loads;
      k_external_load = external_load;
      k_objective = objective;
      k_input_only = input_only;
      k_dirty = dirty;
    } )

let cold table ~delay ~external_load ~objective ~input_only ?pool ?memo
    circuit ~inputs =
  Obs.span "optimize.run" @@ fun () ->
  let analysis = Power.Analysis.run table circuit ~inputs in
  settle table ~delay ~external_load ~objective ~input_only ?pool ?memo
    ~phase:"optimize.sweep" circuit
    ~stats:(Power.Analysis.all_stats analysis)
    ~dirty:(Array.make (C.gate_count circuit) true)
    None

type session = { s_memo : Memo.t option; mutable s_cache : cache option }

let session ?(memoize = false) () =
  { s_memo = (if memoize then Some (Memo.create ()) else None);
    s_cache = None }

let session_memo s = s.s_memo
let session_circuit s = Option.map (fun k -> k.k_circuit) s.s_cache
let session_stats s = Option.map (fun k -> Array.copy k.k_stats) s.s_cache
let session_dirty s = Option.map (fun k -> Array.copy k.k_dirty) s.s_cache

let same_stats a b =
  Stats.prob a = Stats.prob b && Stats.density a = Stats.density b

(* Diff the arguments against the cache, re-propagate statistics over
   the edited cones, and settle the dirty gates. *)
let apply table ~delay ~external_load ~objective ~input_only ?pool ?memo k
    circuit ~inputs =
  Obs.span "incremental.apply" @@ fun () ->
  Obs.incr c_inc_applies;
  let n = C.gate_count circuit in
  let stats = Array.copy k.k_stats in
  let net_dirty = Array.make (C.net_count circuit) false in
  let dirty = Array.make n false in
  let structural = Array.make n false in
  let seeds = ref [] in
  (* Primary-input statistic edits. *)
  List.iter
    (fun pi ->
      let next = inputs pi in
      if not (same_stats next stats.(pi)) then begin
        stats.(pi) <- next;
        net_dirty.(pi) <- true;
        seeds := pi :: !seeds;
        Obs.incr c_inc_dirty_nets
      end)
    (C.primary_inputs circuit);
  (* Structural gate edits, diffed against the cached circuit. A
     replaced or rewired gate changes its own output statistics and the
     loads of the gates driving every touched pin net (pin capacitances
     follow the reader's cell). A configuration-only difference is the
     §4.2 case: the gate re-sweeps but no statistics move. *)
  for g = 0 to n - 1 do
    let og = C.gate_at k.k_circuit g and ng = C.gate_at circuit g in
    (* Circuit rebuilds reuse untouched gate records, so physical
       equality clears the overwhelmingly common case without field
       compares. *)
    if og != ng then begin
      let same_struct =
        og.C.output = ng.C.output
        && og.C.fanins = ng.C.fanins
        && Cell.Gate.name og.C.cell = Cell.Gate.name ng.C.cell
      in
      if not same_struct then begin
        structural.(g) <- true;
        dirty.(g) <- true;
        seeds := ng.C.output :: !seeds;
        let mark_driver net =
          match C.driver circuit net with
          | C.Driven_by d -> dirty.(d) <- true
          | C.Primary_input -> ()
        in
        Array.iter mark_driver og.C.fanins;
        Array.iter mark_driver ng.C.fanins
      end
      else if og.C.config <> ng.C.config then dirty.(g) <- true
    end
  done;
  (* External-load edits touch exactly the primary-output drivers. *)
  if external_load <> k.k_external_load then
    List.iter
      (fun po ->
        match C.driver circuit po with
        | C.Driven_by d -> dirty.(d) <- true
        | C.Primary_input -> ())
      (C.primary_outputs circuit);
  (* An objective or restriction flip re-decides every gate — but the
     statistics stay clean, so Najm propagation is still skipped. *)
  if objective <> k.k_objective || input_only <> k.k_input_only then
    Array.fill dirty 0 n true;
  (* Najm re-propagation, restricted to the fan-out cones of the edited
     nets. The early cut-off: a recomputed net whose statistics are
     bit-identical to the cache stops dirtying its readers. *)
  if !seeds <> [] then begin
    let cone = C.fanout_cone circuit !seeds in
    List.iter
      (fun g ->
        if cone.(g) || structural.(g) then begin
          let gate = C.gate_at circuit g in
          if
            structural.(g)
            || Array.exists (fun net -> net_dirty.(net)) gate.C.fanins
          then begin
            dirty.(g) <- true;
            let input_stats =
              Array.map (fun net -> stats.(net)) gate.C.fanins
            in
            let groups = Power.Model.groups_of_nets gate.C.fanins in
            let next =
              Power.Model.output_stats table gate.C.cell ~input_stats ~groups
                ()
            in
            if same_stats next stats.(gate.C.output) then
              Obs.incr c_inc_cutoffs
            else begin
              stats.(gate.C.output) <- next;
              net_dirty.(gate.C.output) <- true;
              Obs.incr c_inc_dirty_nets
            end
          end
        end)
      (C.topological_order circuit)
  end;
  Obs.add c_inc_dirty_gates
    (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty);
  settle table ~delay ~external_load ~objective ~input_only ?pool ?memo
    ~phase:"incremental.sweep" circuit ~stats ~dirty (Some k)

let optimize power_table ~delay ?(external_load = default_external_load)
    ?(objective = Min_power) ?(input_reordering_only = false) ?pool ?memo
    ?session:sess circuit ~inputs =
  let input_only = input_reordering_only in
  match sess with
  | None ->
      fst
        (cold power_table ~delay ~external_load ~objective ~input_only ?pool
           ?memo circuit ~inputs)
  | Some s ->
      (* The session's memoization policy wins: verdict purity makes a
         warm memo equivalent to a fresh one, but a memoized and an
         unmemoized sweep can legitimately disagree near quantization
         boundaries, so the mode must not change mid-session. *)
      let memo =
        match (s.s_memo, memo) with
        | Some own, Some provided ->
            Memo.merge ~into:own provided;
            Some own
        | Some own, None -> Some own
        | None, _ -> None
      in
      let compatible k =
        power_objective objective && k.k_table == power_table
        && C.net_count k.k_circuit = C.net_count circuit
        && C.gate_count k.k_circuit = C.gate_count circuit
        && C.primary_inputs k.k_circuit = C.primary_inputs circuit
        && C.primary_outputs k.k_circuit = C.primary_outputs circuit
      in
      let report, cache =
        match s.s_cache with
        | Some k when compatible k ->
            apply power_table ~delay ~external_load ~objective ~input_only
              ?pool ?memo k circuit ~inputs
        | _ ->
            Obs.incr c_inc_cold_runs;
            cold power_table ~delay ~external_load ~objective ~input_only
              ?pool ?memo circuit ~inputs
      in
      (* Only the power objectives re-settle incrementally. *)
      s.s_cache <- (if power_objective objective then Some cache else None);
      report

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
