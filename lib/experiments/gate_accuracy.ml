module S = Stoch.Signal_stats
module N = Sp.Network

type row = {
  gate : string;
  configurations : int;
  mean_error_percent : float;
  best_matches : bool;
  worst_matches : bool;
  rank_correlation : float;
}

let cycle = Power.Scenario.cycle_time

(* Per-pin toggle probabilities: distinct so that no two configurations
   tie (symmetric pins under equal activity would make best/worst
   comparisons degenerate). Pin i toggles between consecutive cycles
   with probability 0.9 / 2^i; equilibrium probability 0.5. *)
let toggle_probability i = 0.9 /. (2. ** float_of_int i)

let pin_stats n =
  Array.init n (fun i ->
      S.make ~prob:0.5 ~density:(toggle_probability i /. cycle))

(* Exact ground truth under the model's own stochastic semantics.

   Inputs are asynchronous Markov processes (two pins never toggle
   simultaneously); the gate's physical state is the input vector plus
   the charge of every powered node — floating nodes remember their
   charge, so the node state is genuinely history-dependent and a
   single-toggle enumeration from freshly-settled states is *wrong*
   (it was; the Monte-Carlo run exposed it). Instead we build the full
   joint Markov chain over (vector, node charges): at P = 0.5 every
   input i toggles at rate D_i in every state, so the jump chain has
   state-independent transition probabilities D_i/ΣD and its stationary
   distribution equals the CTMC's. The chain is tiny (≤ 2^n · 2^p
   states), we solve it by power iteration and integrate the exact
   per-edge charging energy. *)
let exhaustive_power (ctx : Common.t) gate config =
  let n = Cell.Gate.arity gate in
  let network = Cell.Config.nth_network gate config in
  let { Cell.Config.h; g } = Cell.Config.nth_tables gate config in
  (* Per powered node: the output, then the internal nodes. *)
  let caps =
    Array.of_list
      (List.map
         (Cell.Process.node_capacitance ctx.Common.proc network)
         (N.power_nodes network))
  in
  caps.(0) <- caps.(0) +. Netlist.Load.default_external;
  let vdd = ctx.Common.proc.Cell.Process.vdd in
  (* Settle the node charges for input vector [v], holding the previous
     charges on isolated nodes. Complementary gates have no X states
     once seeded, so charges are a plain bitmask over powered nodes. *)
  let solve v prev =
    let mask = ref 0 in
    for j = 0 to Array.length caps - 1 do
      if
        Cell.Config.at h.(j) v
        || ((not (Cell.Config.at g.(j) v)) && prev land (1 lsl j) <> 0)
      then
        mask := !mask lor (1 lsl j)
    done;
    !mask
  in
  let rising_energy before after =
    let energy = ref 0. in
    for j = 0 to Array.length caps - 1 do
      if after land (1 lsl j) <> 0 && before land (1 lsl j) = 0 then
        energy := !energy +. (caps.(j) *. vdd *. vdd)
    done;
    !energy
  in
  (* Enumerate reachable joint states by BFS from every vector settled
     from the all-low charge state. *)
  let rates = Array.init n (fun i -> toggle_probability i /. cycle) in
  let total_rate = Array.fold_left ( +. ) 0. rates in
  let id = Hashtbl.create 64 in
  let states = ref [] in
  let intern key =
    match Hashtbl.find_opt id key with
    | Some i -> Some i
    | None ->
        let i = Hashtbl.length id in
        Hashtbl.add id key i;
        states := key :: !states;
        None
  in
  let queue = Queue.create () in
  for v = 0 to (1 lsl n) - 1 do
    let key = (v, solve v 0) in
    if intern key = None then Queue.add key queue
  done;
  let edges = Hashtbl.create 256 in
  (* (state id, input) -> (successor id, energy) *)
  while not (Queue.is_empty queue) do
    let ((v, m) as key) = Queue.pop queue in
    let s = Hashtbl.find id key in
    for i = 0 to n - 1 do
      let v' = v lxor (1 lsl i) in
      let m' = solve v' m in
      let key' = (v', m') in
      if intern key' = None then Queue.add key' queue;
      Hashtbl.replace edges (s, i)
        (Hashtbl.find id key', rising_energy m m')
    done
  done;
  let n_states = Hashtbl.length id in
  (* Stationary distribution of the jump chain (uniform total rate).
     The chain is periodic — each jump flips one input, so the vector
     parity alternates — hence the lazy (half-self-loop) iteration,
     which shares the stationary distribution but converges. *)
  let pi = Array.make n_states (1. /. float_of_int n_states) in
  let fresh = Array.make n_states 0. in
  for _ = 1 to 800 do
    Array.fill fresh 0 n_states 0.;
    Hashtbl.iter
      (fun (s, i) (s', _) ->
        fresh.(s') <- fresh.(s') +. (0.5 *. pi.(s) *. rates.(i) /. total_rate))
      edges;
    Array.iteri (fun s p -> fresh.(s) <- fresh.(s) +. (0.5 *. p)) pi;
    Array.blit fresh 0 pi 0 n_states
  done;
  (* Power: expected charging energy per unit time. *)
  Hashtbl.fold
    (fun (s, i) (_, energy) acc -> acc +. (pi.(s) *. rates.(i) *. energy))
    edges 0.

let model_power (ctx : Common.t) gate config =
  let input_stats = pin_stats (Cell.Gate.arity gate) in
  (Power.Model.gate_power ctx.Common.power gate ~config ~input_stats
     ~load:Netlist.Load.default_external ())
    .Power.Model.total

let argmin xs =
  let best = List.fold_left Float.min infinity xs in
  let rec find i = function
    | [] -> -1
    | x :: rest -> if x = best then i else find (i + 1) rest
  in
  find 0 xs

let argmax xs = argmin (List.map (fun x -> -.x) xs)

let powers ctx gate =
  let configs = List.init (Cell.Gate.config_count gate) Fun.id in
  ( List.map (exhaustive_power ctx gate) configs,
    List.map (model_power ctx gate) configs )

let row ctx gate =
  let truth, model = powers ctx gate in
  let count = Cell.Gate.config_count gate in
  let errors =
    List.map2 (fun m t -> 100. *. Float.abs (m -. t) /. t) model truth
  in
  {
    gate = Cell.Gate.name gate;
    configurations = count;
    mean_error_percent = Report.Stats.mean errors;
    best_matches = argmin model = argmin truth;
    worst_matches = argmax model = argmax truth;
    rank_correlation =
      (if count < 2 then 1. else Report.Stats.correlation model truth);
  }

let run ctx ?gates () =
  let gates = match gates with Some g -> g | None -> Cell.Gate.library in
  List.map (row ctx) gates

let render rows =
  let table =
    Report.Table.create
      ~columns:
        [
          ("gate", Report.Table.Left);
          ("#C", Report.Table.Right);
          ("power err %", Report.Table.Right);
          ("best ok", Report.Table.Left);
          ("worst ok", Report.Table.Left);
          ("rank corr", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.gate;
          string_of_int r.configurations;
          Report.Table.cell_percent r.mean_error_percent;
          string_of_bool r.best_matches;
          string_of_bool r.worst_matches;
          Report.Table.cell_float ~decimals:3 r.rank_correlation;
        ])
    rows;
  Report.Table.add_separator table;
  let avg = Report.Stats.mean (List.map (fun r -> r.mean_error_percent) rows) in
  let matches = List.length (List.filter (fun r -> r.best_matches) rows) in
  Report.Table.add_row table
    [
      "average / matches";
      "";
      Report.Table.cell_percent avg;
      Printf.sprintf "%d/%d" matches (List.length rows);
      "";
      "";
    ];
  "E13 — per-gate model vs exhaustive switch-level enumeration\n\
   (asynchronous single-toggle events, the model's own regime; 'best\n\
   ok' = the model picks the configuration the exhaustive truth picks)\n"
  ^ Report.Table.render table
