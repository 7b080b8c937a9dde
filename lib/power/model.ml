module Stats = Stoch.Signal_stats

let c_model_hit = Obs.counter "power.model_hit"
let c_model_build = Obs.counter "power.model_build"
let c_node_evals = Obs.counter "power.node_evals"
let c_gate_powers = Obs.counter "power.gate_powers"

(* One configuration of a program: its powered nodes, output first,
   their capacitances (junction + wire, excluding fan-out load), and its
   roots' slots, each a [slot_bits]-bit little-endian integer. With
   arity [a], powered node [j]'s roots start at [j·(2a+2)]: H, then
   ∂H/∂xᵢ per pin, then G, then ∂G/∂xᵢ per pin. The output function f
   is H of the output node (node 0) in every configuration, so roots
   [0 .. a] double as f and ∂f/∂xᵢ. Differences with respect to a
   non-representative tied pin are the zero constant, so downstream
   sums never double-count a tied net. [reach] counts the program's
   nodes up to the highest slot the roots read: the code is children
   first, so a pass over that prefix serves this configuration. *)
type shape = {
  nodes : Sp.Network.node array;
  caps : float array;
  roots : string;
  reach : int;
}

(* A compiled (cell, pin-groups) model. [code] holds the reduced ordered
   BDD nodes of every root of every configuration, children first, one
   int each: the variable, the lo slot and the hi slot, [slot_bits]
   apiece. [vdd] is the table's supply, so a program evaluates on its
   own. [f_reach] is the prefix f and ∂f/∂xᵢ need, as [reach] is a
   configuration's. *)
type program = {
  groups : int array;
  code : int array;
  shapes : shape array;  (* per configuration *)
  f_reach : int;
  vdd : float;
}

type node_power = {
  node : Sp.Network.node;
  probability : float;
  transitions : float;
  by_input : float array;
  capacitance : float;
  power : float;
}

type gate_power = {
  nodes : node_power list;
  internal : float;
  output : float;
  total : float;
}

(* The programs compiled so far, by (cell name, pin groups). *)
type table = {
  proc : Cell.Process.t;
  programs : (string * int array, program) Hashtbl.t;
}

let table proc = { proc; programs = Hashtbl.create 256 }

let process t = t.proc

let groups_of_nets fanins =
  Array.mapi
    (fun i net ->
      let rec first j = if fanins.(j) = net then j else first (j + 1) in
      ignore i;
      first 0)
    fanins

let identity_groups arity = Array.init arity Fun.id

let validate_groups ~arity groups =
  if Array.length groups <> arity then
    invalid_arg "Power.Model: groups length differs from gate arity";
  Array.iteri
    (fun i g ->
      if g < 0 || g > i then
        invalid_arg "Power.Model: groups must point at earlier pins";
      if groups.(g) <> g then
        invalid_arg "Power.Model: group representative must map to itself")
    groups

(* --- Compilation --- *)

let slot_bits = 16
let slot_mask = (1 lsl slot_bits) - 1

let pack (var, lo, hi) = var lor (lo lsl slot_bits) lor (hi lsl (2 * slot_bits))

(* A function of the pins is a truth table in the Cell.Config.tables
   format: bit [v] is its value on input vector [v], pin [i] being bit
   [i] of [v]. [cofactor f i b] is f|xᵢ=b, spread over both halves so it
   no longer depends on pin i. *)
let cofactor f i b =
  let shift = 1 lsl i in
  if b then
    let f = Int64.logand f (Cell.Config.pin_table i) in
    Int64.logor f (Int64.shift_right_logical f shift)
  else
    let f = Int64.logand f (Int64.lognot (Cell.Config.pin_table i)) in
    Int64.logor f (Int64.shift_left f shift)

(* The paper's ∂f/∂xᵢ. *)
let difference f i = Int64.logxor (cofactor f i false) (cofactor f i true)

(* Pins tied to one net toggle together: substitute the representative
   pin for every tied pin, then Boolean differences with respect to the
   representative capture the joint toggle. *)
let tie groups f =
  let tied = ref f in
  Array.iteri
    (fun pin rep ->
      if rep <> pin then
        let f0 = cofactor !tied pin false in
        tied :=
          Int64.logxor f0
            (Int64.logand (Cell.Config.pin_table rep)
               (Int64.logxor (cofactor !tied pin true) f0)))
    groups;
  !tied

module Nodes = Hashtbl.Make (Int64)

let compile t cell groups =
  let arity = Cell.Gate.arity cell in
  let with_differences f =
    let f = tie groups f in
    f :: List.init arity (fun i -> if groups.(i) = i then difference f i else 0L)
  in
  (* Each root's reduced ordered BDD has one node per distinct function,
     on the lowest pin it depends on, shared by every root and
     configuration. Slots 0 and 1 are the constants, then the nodes,
     children first, lo before hi, roots in order. *)
  let one = Int64.shift_right_logical (-1L) (64 - (1 lsl arity)) in
  let slots = Nodes.create 64 and code = ref [] in
  let rec visit f =
    if f = 0L then 0
    else if f = one then 1
    else
      match Nodes.find_opt slots f with
      | Some s -> s
      | None ->
          let rec top i = if difference f i <> 0L then i else top (i + 1) in
          let var = top 0 in
          let lo = visit (cofactor f var false) in
          let hi = visit (cofactor f var true) in
          let s = Nodes.length slots + 2 in
          code := pack (var, lo, hi) :: !code;
          Nodes.add slots f s;
          s
  in
  (* A table's root slots, once per distinct table: the output's H is f
     in every configuration, and node functions recur across them. *)
  let tables = Nodes.create 64 in
  let rooted f =
    match Nodes.find_opt tables f with
    | Some slots -> slots
    | None ->
        let slots = List.map visit (with_differences f) in
        Nodes.add tables f slots;
        slots
  in
  (* A prefix of [nodes] nodes, grown to read slot [s] too: slot s ≥ 2
     is node s − 2. *)
  let reaching nodes s = if s - 1 > nodes then s - 1 else nodes in
  let shape config =
    let { Cell.Config.h; g } = Cell.Config.nth_tables cell config in
    let slots =
      List.concat
        (List.init (Array.length h) (fun j -> rooted h.(j) @ rooted g.(j)))
    in
    let roots = Bytes.create (2 * List.length slots) and reach = ref 0 in
    List.iteri
      (fun r s ->
        Bytes.set_uint16_le roots (2 * r) s;
        reach := reaching !reach s)
      slots;
    let network = Cell.Config.nth_network cell config in
    let nodes = Array.of_list (Sp.Network.power_nodes network) in
    {
      nodes;
      caps = Array.map (Cell.Process.node_capacitance t.proc network) nodes;
      roots = Bytes.unsafe_to_string roots;
      reach = !reach;
    }
  in
  let shapes = Array.init (Cell.Gate.config_count cell) shape in
  let f = (Cell.Config.nth_tables cell 0).Cell.Config.h.(0) in
  (* The last node holds the highest slot; variables are pins. *)
  if List.length !code + 1 > slot_mask || arity > slot_mask then
    invalid_arg "Power.Model: gate model too large to compile";
  {
    groups = Array.copy groups;
    code = Array.of_list (List.rev !code);
    shapes;
    f_reach = List.fold_left reaching 0 (rooted f);
    vdd = t.proc.Cell.Process.vdd;
  }

(* --- Lookup --- *)

(* Every lookup counts once: a build, of every configuration of the
   cell, when the key is new, a hit otherwise. *)
let program t cell ~groups =
  validate_groups ~arity:(Cell.Gate.arity cell) groups;
  let name = Cell.Gate.name cell in
  match Hashtbl.find_opt t.programs (name, groups) with
  | Some p ->
      Obs.incr c_model_hit;
      p
  | None ->
      Obs.add c_model_build (Cell.Gate.config_count cell);
      let p = compile t cell groups in
      Hashtbl.add t.programs (name, p.groups) p;
      p

(* --- Evaluation --- *)

type eval = {
  program : program;
  input_stats : Stats.t array;
  slots : float array;
}

(* Bdd.probability's Shannon expansion, once per node, over the first
   [nodes] nodes of the code; slots 0 and 1 hold the constants. *)
let eval_prefix (p : program) input_stats nodes =
  if Array.length input_stats <> Array.length p.groups then
    invalid_arg "Power.Model: input_stats length differs from gate arity";
  let code = p.code in
  let slots = Array.make (nodes + 2) 0. in
  slots.(1) <- 1.;
  for k = 0 to nodes - 1 do
    let c = code.(k) in
    let pv = input_stats.(c land slot_mask).Stats.prob in
    let lo = slots.((c lsr slot_bits) land slot_mask) in
    let hi = slots.(c lsr (2 * slot_bits)) in
    slots.(k + 2) <- (pv *. hi) +. ((1. -. pv) *. lo)
  done;
  { program = p; input_stats; slots }

(* Every root of every configuration. *)
let eval (p : program) input_stats =
  eval_prefix p input_stats (Array.length p.code)

let root shape r = String.get_uint16_le shape.roots (2 * r)

(* The paper's steady-state node probability; a node that can never be
   driven (P(H)+P(G) = 0 under these statistics) is reported at 0. *)
let node_probability e shape ~arity j =
  let base = j * ((2 * arity) + 2) in
  let p_h = e.slots.(root shape base)
  and p_g = e.slots.(root shape (base + arity + 1)) in
  let denom = p_h +. p_g in
  if denom <= 0. then 0. else p_h /. denom

(* Σᵢ T(node j|xᵢ) in pin order; each term also goes to [by_input]
   unless it is empty. *)
let transitions e shape ~p_node j by_input =
  let arity = Array.length e.input_stats in
  let base = j * ((2 * arity) + 2) in
  let total = ref 0. in
  for i = 0 to arity - 1 do
    let d_i = e.input_stats.(i).Stats.density in
    if d_i > 0. then begin
      let toggle_h = e.slots.(root shape (base + 1 + i)) in
      let toggle_g = e.slots.(root shape (base + arity + 2 + i)) in
      let t_i = d_i *. (((1. -. p_node) *. toggle_h) +. (p_node *. toggle_g)) in
      if Array.length by_input > 0 then by_input.(i) <- t_i;
      total := !total +. t_i
    end
  done;
  !total

let node_capacitance shape j ~load =
  shape.caps.(j)
  +. match shape.nodes.(j) with Sp.Network.Output -> load | _ -> 0.

(* The configuration's shape, once its evaluation is counted. *)
let shape_for e ~config ~load =
  Obs.incr c_gate_powers;
  let shapes = e.program.shapes in
  if config < 0 || config >= Array.length shapes then
    invalid_arg "Power.Model: configuration index out of range";
  if load < 0. then invalid_arg "Power.Model.gate_power: negative load";
  Obs.add c_node_evals (Array.length shapes.(config).nodes);
  shapes.(config)

let power e ~config ~load =
  let shape = shape_for e ~config ~load in
  let arity = Array.length e.input_stats in
  let vdd = e.program.vdd in
  let node_power j node =
    let p_node = node_probability e shape ~arity j in
    let by_input = Array.make arity 0. in
    let transitions = transitions e shape ~p_node j by_input in
    let capacitance = node_capacitance shape j ~load in
    {
      node;
      probability = p_node;
      transitions;
      by_input;
      capacitance;
      power = 0.5 *. capacitance *. vdd *. vdd *. transitions;
    }
  in
  let nodes = Array.to_list (Array.mapi node_power shape.nodes) in
  let split (internal, output) np =
    match np.node with
    | Sp.Network.Output -> (internal, output +. np.power)
    | _ -> (internal +. np.power, output)
  in
  let internal, output = List.fold_left split (0., 0.) nodes in
  { nodes; internal; output; total = internal +. output }

(* [power]'s total, node for node the same floats, without the
   records. *)
let total e ~config ~load =
  let shape = shape_for e ~config ~load in
  let arity = Array.length e.input_stats in
  let vdd = e.program.vdd in
  let internal = ref 0. and output = ref 0. in
  for j = 0 to Array.length shape.nodes - 1 do
    let p_node = node_probability e shape ~arity j in
    let transitions = transitions e shape ~p_node j [||] in
    let capacitance = node_capacitance shape j ~load in
    let power = 0.5 *. capacitance *. vdd *. vdd *. transitions in
    match shape.nodes.(j) with
    | Sp.Network.Output -> output := !output +. power
    | _ -> internal := !internal +. power
  done;
  !internal +. !output

let resolve_groups cell = function
  | None -> identity_groups (Cell.Gate.arity cell)
  | Some groups -> groups

(* The single-configuration readers pass over their roots' prefix
   only; an out-of-range [config] takes the whole pass, so [power]
   reports it as before. *)
let gate_power t cell ~config ~input_stats ?groups ~load () =
  let p = program t cell ~groups:(resolve_groups cell groups) in
  let nodes =
    if config >= 0 && config < Array.length p.shapes then
      p.shapes.(config).reach
    else Array.length p.code
  in
  power (eval_prefix p input_stats nodes) ~config ~load

(* f and ∂f/∂xᵢ are the same for every configuration; configuration 0's
   roots [0 .. arity] serve them. *)
let output_stats t cell ~input_stats ?groups () =
  let p = program t cell ~groups:(resolve_groups cell groups) in
  let e = eval_prefix p input_stats p.f_reach in
  let shape = p.shapes.(0) in
  let density = ref 0. in
  for i = 0 to Array.length input_stats - 1 do
    density :=
      !density
      +. (input_stats.(i).Stats.density *. e.slots.(root shape (1 + i)))
  done;
  Stats.make ~prob:e.slots.(root shape 0) ~density:!density
