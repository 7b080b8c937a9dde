type net = int

type gate = {
  cell : Cell.Gate.t;
  config : int;
  fanins : net array;
  output : net;
}

type driver = Primary_input | Driven_by of int

type t = {
  name : string;
  net_names : string array;
  primary_inputs : net list;
  primary_outputs : net list;
  output_flags : bool array;  (* per net: is it a primary output *)
  gates : gate array;
  drivers : driver option array;  (* per net *)
  readers : (int * int) list array;  (* per net, (gate, pin) *)
  fanout_gates : int list array;  (* per net, deduped reader gates, ascending *)
  topo : int list;  (* cached topological order *)
  levels : int array;  (* per gate, see [levels] *)
  depth : int;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let compute_topological_order ~gate_count ~driver_of ~fanins_of =
  (* Kahn's algorithm over gate-to-gate dependencies. *)
  let pending = Array.make gate_count 0 in
  let dependents = Array.make gate_count [] in
  for g = 0 to gate_count - 1 do
    Array.iter
      (fun net ->
        match driver_of net with
        | Some (Driven_by d) ->
            pending.(g) <- pending.(g) + 1;
            dependents.(d) <- g :: dependents.(d)
        | Some Primary_input | None -> ())
      (fanins_of g)
  done;
  let queue = Queue.create () in
  for g = 0 to gate_count - 1 do
    if pending.(g) = 0 then Queue.add g queue
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    order := g :: !order;
    incr emitted;
    List.iter
      (fun dep ->
        pending.(dep) <- pending.(dep) - 1;
        if pending.(dep) = 0 then Queue.add dep queue)
      dependents.(g)
  done;
  if !emitted <> gate_count then invalid "combinational cycle detected";
  List.rev !order

let create ~name ~net_names ~primary_inputs ~primary_outputs ~gates =
  let gates = Array.of_list gates in
  let net_count = Array.length net_names in
  let check_net what n =
    if n < 0 || n >= net_count then invalid "%s refers to unknown net %d" what n
  in
  (* Unique, non-empty net names. *)
  let seen = Hashtbl.create net_count in
  Array.iteri
    (fun i n ->
      if n = "" then invalid "net %d has an empty name" i;
      if Hashtbl.mem seen n then invalid "duplicate net name %S" n;
      Hashtbl.add seen n i)
    net_names;
  (* Drivers: at most one per net; primary inputs are not gate-driven. *)
  let drivers = Array.make net_count None in
  List.iter
    (fun n ->
      check_net "primary input" n;
      drivers.(n) <- Some Primary_input)
    primary_inputs;
  Array.iteri
    (fun g (gate : gate) ->
      check_net (Printf.sprintf "gate %d output" g) gate.output;
      let arity = Cell.Gate.arity gate.cell in
      if Array.length gate.fanins <> arity then
        invalid "gate %d (%s): %d fanins, arity %d" g
          (Cell.Gate.name gate.cell)
          (Array.length gate.fanins) arity;
      if gate.config < 0 || gate.config >= Cell.Gate.config_count gate.cell then
        invalid "gate %d (%s): configuration %d out of range" g
          (Cell.Gate.name gate.cell)
          gate.config;
      Array.iter (check_net (Printf.sprintf "gate %d fanin" g)) gate.fanins;
      begin match drivers.(gate.output) with
      | None -> drivers.(gate.output) <- Some (Driven_by g)
      | Some Primary_input ->
          invalid "gate %d drives primary input net %S" g net_names.(gate.output)
      | Some (Driven_by other) ->
          invalid "net %S driven by gates %d and %d" net_names.(gate.output)
            other g
      end)
    gates;
  Array.iteri
    (fun n d ->
      if d = None then invalid "net %S has no driver" net_names.(n))
    drivers;
  List.iter (check_net "primary output") primary_outputs;
  let output_flags = Array.make net_count false in
  List.iter (fun n -> output_flags.(n) <- true) primary_outputs;
  let readers = Array.make net_count [] in
  Array.iteri
    (fun g (gate : gate) ->
      Array.iteri
        (fun pin net -> readers.(net) <- (g, pin) :: readers.(net))
        gate.fanins)
    gates;
  Array.iteri (fun n rs -> readers.(n) <- List.rev rs) readers;
  let fanout_gates =
    Array.map
      (fun rs ->
        let seen = Hashtbl.create 4 in
        List.filter_map
          (fun (g, _pin) ->
            if Hashtbl.mem seen g then None
            else begin
              Hashtbl.add seen g ();
              Some g
            end)
          rs)
      readers
  in
  let topo =
    compute_topological_order ~gate_count:(Array.length gates)
      ~driver_of:(fun n -> drivers.(n))
      ~fanins_of:(fun g -> gates.(g).fanins)
  in
  let levels = Array.make (Array.length gates) 0 in
  List.iter
    (fun g ->
      let deepest_fanin =
        Array.fold_left
          (fun acc net ->
            match drivers.(net) with
            | Some (Driven_by d) -> max acc levels.(d)
            | Some Primary_input | None -> acc)
          0 gates.(g).fanins
      in
      levels.(g) <- deepest_fanin + 1)
    topo;
  {
    name;
    net_names = Array.copy net_names;
    primary_inputs;
    primary_outputs;
    output_flags;
    gates;
    drivers;
    readers;
    fanout_gates;
    topo;
    levels;
    depth = Array.fold_left max 0 levels;
  }

let name t = t.name
let net_count t = Array.length t.net_names
let gate_count t = Array.length t.gates
let gates t = Array.copy t.gates
let gate_at t g = t.gates.(g)
let primary_inputs t = t.primary_inputs
let primary_outputs t = t.primary_outputs
let net_name t n = t.net_names.(n)

let net_of_name t name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name then found := Some i) t.net_names;
  !found

let driver t n =
  match t.drivers.(n) with
  | Some d -> d
  | None -> assert false (* create guarantees every net is driven *)

let readers t n = t.readers.(n)
let fanout t n = t.fanout_gates.(n)
let fanout_count t n = List.length t.readers.(n)

let fanout_cone t seeds =
  List.iter
    (fun net ->
      if net < 0 || net >= net_count t then
        invalid "fanout_cone: unknown net %d" net)
    seeds;
  let dirty_net = Array.make (net_count t) false in
  let dirty_gate = Array.make (gate_count t) false in
  let rec visit net =
    if not dirty_net.(net) then begin
      dirty_net.(net) <- true;
      List.iter
        (fun g ->
          if not dirty_gate.(g) then begin
            dirty_gate.(g) <- true;
            visit t.gates.(g).output
          end)
        t.fanout_gates.(net)
    end
  in
  List.iter visit seeds;
  dirty_gate

let is_primary_output t n = t.output_flags.(n)
let topological_order t = t.topo

let levels t = Array.copy t.levels
let depth t = t.depth

let transistor_count t =
  Array.fold_left
    (fun acc (g : gate) -> acc + Cell.Gate.transistor_count g.cell)
    0 t.gates

let with_configs t configs =
  if Array.length configs <> gate_count t then
    invalid "with_configs: %d entries for %d gates" (Array.length configs)
      (gate_count t);
  (* Configurations do not participate in connectivity, so the cached
     drivers/readers/fanout/topo/level indices carry over unchanged; only
     the range check from [create] applies. Keeps circuit rebuild
     O(gates) on the optimizer (and incremental re-sweep) hot path. *)
  let gates =
    Array.mapi
      (fun g (gate : gate) ->
        if configs.(g) < 0 || configs.(g) >= Cell.Gate.config_count gate.cell
        then
          invalid "gate %d (%s): configuration %d out of range" g
            (Cell.Gate.name gate.cell)
            configs.(g);
        (* Reuse untouched records: a rewrite allocates only the gates
           it changes. *)
        if gate.config = configs.(g) then gate
        else { gate with config = configs.(g) })
      t.gates
  in
  { t with gates }

let with_name t name = { t with name }

let rename_net t net name =
  if name = "" then invalid "rename_net: empty name";
  Array.iter
    (fun existing -> if existing = name then invalid "rename_net: name %S already taken" name)
    t.net_names;
  let net_names = Array.copy t.net_names in
  net_names.(net) <- name;
  { t with net_names }

let stats t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (g : gate) ->
      let n = Cell.Gate.name g.cell in
      Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    t.gates;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let cone t targets =
  if targets = [] then invalid "cone: empty target list";
  List.iter
    (fun net ->
      if net < 0 || net >= net_count t then invalid "cone: unknown net %d" net)
    targets;
  (* Mark reachable nets walking fanin from the targets. *)
  let needed_net = Array.make (net_count t) false in
  let needed_gate = Array.make (gate_count t) false in
  let rec visit net =
    if not needed_net.(net) then begin
      needed_net.(net) <- true;
      match driver t net with
      | Primary_input -> ()
      | Driven_by g ->
          needed_gate.(g) <- true;
          Array.iter visit t.gates.(g).fanins
    end
  in
  List.iter visit targets;
  (* Renumber surviving nets, keeping their names. *)
  let remap = Array.make (net_count t) (-1) in
  let names = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun net keep ->
      if keep then begin
        remap.(net) <- !next;
        names := t.net_names.(net) :: !names;
        incr next
      end)
    needed_net;
  let gates =
    List.filter_map
      (fun g ->
        if not needed_gate.(g) then None
        else
          let gate = t.gates.(g) in
          Some
            {
              gate with
              fanins = Array.map (fun n -> remap.(n)) gate.fanins;
              output = remap.(gate.output);
            })
      (topological_order t)
  in
  create
    ~name:(t.name ^ "_cone")
    ~net_names:(Array.of_list (List.rev !names))
    ~primary_inputs:
      (List.filter_map
         (fun net -> if needed_net.(net) then Some remap.(net) else None)
         t.primary_inputs)
    ~primary_outputs:(List.map (fun n -> remap.(n)) targets)
    ~gates

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d gates, %d nets, %d inputs, %d outputs, depth %d"
    t.name (gate_count t) (net_count t)
    (List.length t.primary_inputs)
    (List.length t.primary_outputs)
    (depth t)
