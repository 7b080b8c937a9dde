module C = Netlist.Circuit
module M = Power.Model
module O = Reorder.Optimizer

let c_ledgers = Obs.counter "attrib.ledgers_built"

type node_share = {
  node : Sp.Network.node;
  probability : float;
  capacitance : float;
  transitions : float;
  power : float;
  per_input : (string * float) array;
}

type gate_entry = {
  index : int;
  cell : string;
  out_net : string;
  config_before : int;
  config_after : int;
  before_total : float;
  before_internal : float;
  after_total : float;
  after_internal : float;
  nodes : node_share list;
  candidates : (int * float) array;
}

type t = {
  circuit : string;
  external_load : float;
  total_before : float;
  total_after : float;
  gates : gate_entry array;
}

(* Per-input power of one node: the node's ½·C·Vdd² scale applied to
   each fanin net's transition contribution. Pins tied to one net share
   its entry, the group representative's: the model puts the group's
   joint contribution there and exactly 0 on the other pins, so no sum
   moves. The shares sum to the node power only up to reassociation;
   conservation of the *node* totals against the gate total is exact by
   construction in Power.Model. *)
let node_share_of circuit (gate : C.gate) ~groups ~vdd (np : M.node_power) =
  let scale = 0.5 *. np.M.capacitance *. vdd *. vdd in
  {
    node = np.M.node;
    probability = np.M.probability;
    capacitance = np.M.capacitance;
    transitions = np.M.transitions;
    power = np.M.power;
    per_input =
      Array.to_seqi np.M.by_input
      |> Seq.filter_map (fun (pin, t_i) ->
             if groups.(pin) <> pin then None
             else Some (C.net_name circuit gate.C.fanins.(pin), scale *. t_i))
      |> Array.of_seq;
  }

(* One gate's entry, from the configuration its decision started from
   and the one it chose, its pins' statistics and its output load. *)
let gate_entry table circuit g (st : O.gate_state) =
  let gate = C.gate_at circuit g in
  let vdd = (Power.Model.process table).Cell.Process.vdd in
  let groups = M.groups_of_nets gate.C.fanins in
  let load = st.O.load in
  let eval = M.eval (M.program table gate.C.cell ~groups) st.O.input_stats in
  let gp_before = M.power eval ~config:st.O.incumbent ~load in
  let gp_after =
    if st.O.chosen = st.O.incumbent then gp_before
    else M.power eval ~config:st.O.chosen ~load
  in
  {
    index = g;
    cell = Cell.Gate.name gate.C.cell;
    out_net = C.net_name circuit gate.C.output;
    config_before = st.O.incumbent;
    config_after = st.O.chosen;
    before_total = gp_before.M.total;
    before_internal = gp_before.M.internal;
    after_total = gp_after.M.total;
    after_internal = gp_after.M.internal;
    nodes = List.map (node_share_of circuit gate ~groups ~vdd) gp_after.M.nodes;
    candidates =
      Array.init
        (Cell.Gate.config_count gate.C.cell)
        (fun k -> (k, M.total eval ~config:k ~load));
  }

(* The one builder: every gate's entry in index order, then the totals
   summed in that order. [states] runs inside the span and gives each
   gate's state. *)
let build table circuit ~external_load states =
  Obs.span "attrib.build" @@ fun () ->
  Obs.incr c_ledgers;
  let state = states () in
  let gates =
    Array.init (C.gate_count circuit) (fun g ->
        gate_entry table circuit g (state g))
  in
  let sum f = Array.fold_left (fun acc e -> acc +. f e) 0. gates in
  {
    circuit = C.name circuit;
    external_load;
    total_before = sum (fun e -> e.before_total);
    total_after = sum (fun e -> e.after_total);
    gates;
  }

let of_report table ?(external_load = Netlist.Load.default_external) ~before
    ~inputs (report : O.report) =
  if Array.length report.O.configs <> C.gate_count before then
    invalid_arg "Attrib.of_report: report does not match the circuit";
  build table before ~external_load @@ fun () ->
  let analysis = Power.Analysis.run table before ~inputs in
  fun g ->
    {
      O.incumbent = (C.gate_at before g).C.config;
      chosen = report.O.configs.(g);
      input_stats = Power.Analysis.gate_input_stats analysis before g;
      load =
        Netlist.Load.output (Power.Model.process table) ~external_load before g;
    }

let of_session s =
  build (O.session_table s) (O.session_circuit s)
    ~external_load:(O.session_external_load s) (fun () -> O.session_gate s)

(* --- queries --- *)

let node_sum entry =
  List.fold_left (fun acc ns -> acc +. ns.power) 0. entry.nodes

let conservation_error t =
  Array.fold_left
    (fun worst e ->
      let scale = Float.max (Float.abs e.after_total) 1e-30 in
      Float.max worst (Float.abs (node_sum e -. e.after_total) /. scale))
    0. t.gates

let top_consumers t k =
  let entries = Array.to_list t.gates in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.after_total a.after_total with
        | 0 -> compare a.index b.index
        | c -> c)
      entries
  in
  List.filteri (fun i _ -> i < k) sorted

let changed t =
  List.filter
    (fun e -> e.config_before <> e.config_after)
    (Array.to_list t.gates)

(* --- rendering --- *)

let node_label = function
  | Sp.Network.Output -> "output"
  | Sp.Network.Internal i -> Printf.sprintf "n%d" i
  | Sp.Network.Vdd -> "vdd"
  | Sp.Network.Vss -> "vss"

let percent_of part total =
  if total <= 0. then 0. else 100. *. part /. total

(* The input pin that causes the most attributed power, summed over the
   gate's nodes (tied pins already collapse onto the representative). *)
let top_input entry =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ns ->
      Array.iter
        (fun (name, w) ->
          Hashtbl.replace tbl name
            (w +. Option.value ~default:0. (Hashtbl.find_opt tbl name)))
        ns.per_input)
    entry.nodes;
  Hashtbl.fold
    (fun name w best ->
      match best with
      | Some (_, bw) when bw >= w -> best
      | _ -> Some (name, w))
    tbl None

(* Margin of the chosen configuration over the best alternative: how
   much worse (in %) the runner-up would have been. *)
let runner_up_margin entry =
  if Array.length entry.candidates = 0 then None
  else
    let alternative =
      Array.fold_left
        (fun best (k, w) ->
          if k = entry.config_after then best
          else
            match best with Some bw when bw <= w -> best | _ -> Some w)
        None entry.candidates
    in
    Option.map
      (fun alt ->
        if entry.after_total <= 0. then 0.
        else 100. *. (alt -. entry.after_total) /. entry.after_total)
      alternative

let render_explain ?(top = 5) t =
  let b = Buffer.create 2048 in
  let reduction =
    Reorder.Optimizer.reduction_percent ~best:t.total_after
      ~worst:t.total_before
  in
  Buffer.add_string b
    (Printf.sprintf
       "circuit %s: %d gates, %s -> %s (%.1f%% reduction, %d gates changed)\n"
       t.circuit (Array.length t.gates)
       (Report.Table.cell_power t.total_before)
       (Report.Table.cell_power t.total_after)
       reduction
       (List.length (changed t)));
  (* top power consumers *)
  let consumers = top_consumers t top in
  if consumers <> [] then begin
    Buffer.add_string b "\ntop power consumers (after reordering)\n";
    let table =
      Report.Table.create
        ~columns:
          [
            ("rank", Report.Table.Right);
            ("gate", Report.Table.Left);
            ("cell", Report.Table.Left);
            ("cfg", Report.Table.Right);
            ("power", Report.Table.Right);
            ("% total", Report.Table.Right);
            ("internal", Report.Table.Right);
            ("output", Report.Table.Right);
            ("top input", Report.Table.Left);
          ]
    in
    List.iteri
      (fun i e ->
        let top_in =
          match top_input e with
          | Some (name, w) when w > 0. ->
              Printf.sprintf "%s (%.0f%%)" name (percent_of w e.after_total)
          | Some _ | None -> "-"
        in
        Report.Table.add_row table
          [
            string_of_int (i + 1);
            e.out_net;
            e.cell;
            string_of_int e.config_after;
            Report.Table.cell_power e.after_total;
            Report.Table.cell_percent (percent_of e.after_total t.total_after);
            Report.Table.cell_power e.after_internal;
            Report.Table.cell_power (e.after_total -. e.after_internal);
            top_in;
          ])
      consumers;
    Buffer.add_string b (Report.Table.render table)
  end;
  (* why this ordering won *)
  let winners = changed t in
  if winners <> [] then begin
    Buffer.add_string b "\nwhy this ordering won (changed gates)\n";
    let table =
      Report.Table.create
        ~columns:
          [
            ("gate", Report.Table.Left);
            ("cell", Report.Table.Left);
            ("cfg", Report.Table.Left);
            ("before", Report.Table.Right);
            ("after", Report.Table.Right);
            ("saved", Report.Table.Right);
            ("internal", Report.Table.Right);
            ("runner-up", Report.Table.Right);
          ]
    in
    List.iter
      (fun e ->
        Report.Table.add_row table
          [
            e.out_net;
            e.cell;
            Printf.sprintf "%d->%d" e.config_before e.config_after;
            Report.Table.cell_power e.before_total;
            Report.Table.cell_power e.after_total;
            Report.Table.cell_percent
              (Reorder.Optimizer.reduction_percent ~best:e.after_total
                 ~worst:e.before_total)
            ^ "%";
            Printf.sprintf "%s->%s"
              (Report.Table.cell_power e.before_internal)
              (Report.Table.cell_power e.after_internal);
            (match runner_up_margin e with
            | Some m -> Printf.sprintf "+%.1f%%" m
            | None -> "-");
          ])
      winners;
    Buffer.add_string b (Report.Table.render table)
  end;
  (* per-node breakdown of the top consumers *)
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "\nnode breakdown: %s (%s, cfg %d, %s)\n" e.out_net
           e.cell e.config_after
           (Report.Table.cell_power e.after_total));
      let table =
        Report.Table.create
          ~columns:
            [
              ("node", Report.Table.Left);
              ("P(node)", Report.Table.Right);
              ("C (fF)", Report.Table.Right);
              ("trans/s", Report.Table.Right);
              ("power", Report.Table.Right);
              ("% gate", Report.Table.Right);
              ("top input", Report.Table.Left);
            ]
      in
      List.iter
        (fun ns ->
          let top_in =
            Array.fold_left
              (fun best (name, w) ->
                match best with
                | Some (_, bw) when bw >= w -> best
                | _ -> Some (name, w))
              None ns.per_input
          in
          Report.Table.add_row table
            [
              node_label ns.node;
              Report.Table.cell_float ~decimals:3 ns.probability;
              Report.Table.cell_float ~decimals:3 (ns.capacitance *. 1e15);
              Printf.sprintf "%.4g" ns.transitions;
              Report.Table.cell_power ns.power;
              Report.Table.cell_percent (percent_of ns.power e.after_total);
              (match top_in with
              | Some (name, w) when w > 0. ->
                  Printf.sprintf "%s (%.0f%%)" name (percent_of w ns.power)
              | Some _ | None -> "-");
            ])
        e.nodes;
      Buffer.add_string b (Report.Table.render table))
    consumers;
  Buffer.contents b

(* --- JSON --- *)

let to_json t =
  let node_json ns =
    Json.Obj
      [
        ("node", Json.Str (node_label ns.node));
        ("probability", Json.Num ns.probability);
        ("capacitance", Json.Num ns.capacitance);
        ("transitions", Json.Num ns.transitions);
        ("power", Json.Num ns.power);
        ( "per_input",
          Json.Obj
            (Array.to_list
               (Array.map (fun (name, w) -> (name, Json.Num w)) ns.per_input))
        );
      ]
  in
  let gate_json e =
    Json.Obj
      [
        ("index", Json.int e.index);
        ("cell", Json.Str e.cell);
        ("output", Json.Str e.out_net);
        ("config_before", Json.int e.config_before);
        ("config_after", Json.int e.config_after);
        ("power_before", Json.Num e.before_total);
        ("power_after", Json.Num e.after_total);
        ("internal_before", Json.Num e.before_internal);
        ("internal_after", Json.Num e.after_internal);
        ("nodes", Json.Arr (List.map node_json e.nodes));
        ( "candidates",
          Json.Obj
            (Array.to_list
               (Array.map
                  (fun (config, w) -> (string_of_int config, Json.Num w))
                  e.candidates)) );
      ]
  in
  Json.print_streaming
    [
      ("circuit", Json.Str t.circuit);
      ("external_load", Json.Num t.external_load);
      ("total_before", Json.Num t.total_before);
      ("total_after", Json.Num t.total_after);
      ( "reduction_percent",
        Json.Num
          (Reorder.Optimizer.reduction_percent ~best:t.total_after
             ~worst:t.total_before) );
    ]
    "gates"
    (Seq.map gate_json (Array.to_seq t.gates))
