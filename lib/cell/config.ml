module T = Sp.Sp_tree

type t = { pull_up : T.t; pull_down : T.t }

let reference gate =
  let pd = Gate.pull_down gate in
  { pull_up = T.dual pd; pull_down = pd }

let canonical_pair c = (T.canonical c.pull_up, T.canonical c.pull_down)

let equal a b =
  let ua, da = canonical_pair a and ub, db = canonical_pair b in
  T.equal ua ub && T.equal da db

let compare a b =
  let ua, da = canonical_pair a and ub, db = canonical_pair b in
  let c = T.compare ua ub in
  if c <> 0 then c else T.compare da db

let all gate =
  let start = reference gate in
  let ups = T.orderings start.pull_up in
  let downs = T.orderings start.pull_down in
  let combos =
    List.concat_map
      (fun pull_up -> List.map (fun pull_down -> { pull_up; pull_down }) downs)
      ups
  in
  (* Put the reference configuration first. *)
  start :: List.filter (fun c -> not (equal c start)) combos

let internal_node_count c =
  T.internal_node_count c.pull_down + T.internal_node_count c.pull_up

(* Joint pivot: internal nodes 0 .. pd_gaps-1 live in the pull-down
   network, the rest in the pull-up one (matching Network's numbering,
   which lays the pull-down first). *)
let pivot c k =
  let pd_gaps = T.internal_node_count c.pull_down in
  if k < pd_gaps then { c with pull_down = T.pivot c.pull_down k }
  else { c with pull_up = T.pivot c.pull_up (k - pd_gaps) }

let pivot_all ?trace start =
  T.pivot_search ~pivot ~key:canonical_pair
    ~nodes:(internal_node_count start) ?trace start

let network c = Sp.Network.of_networks ~pull_up:c.pull_up ~pull_down:c.pull_down

let index_in configs c =
  let rec go i = function
    | [] -> raise Not_found
    | x :: rest -> if equal x c then i else go (i + 1) rest
  in
  go 0 configs

let rec erase = function
  | T.Leaf _ -> T.leaf 0
  | T.Series cs -> T.series (List.map erase cs)
  | T.Parallel cs -> T.parallel (List.map erase cs)

let same_shape a b =
  T.equal (T.canonical (erase a.pull_up)) (T.canonical (erase b.pull_up))
  && T.equal (T.canonical (erase a.pull_down)) (T.canonical (erase b.pull_down))

let to_string ?names c =
  Printf.sprintf "PU=%s PD=%s"
    (T.to_string ?names c.pull_up)
    (T.to_string ?names c.pull_down)

let pp ppf c = Format.pp_print_string ppf (to_string c)

(* --- The per-cell table --- *)

type tables = { h : int64 array; g : int64 array }

let pin_tables =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let pin_table i = pin_tables.(i)
let at table v = Int64.logand (Int64.shift_right_logical table v) 1L <> 0L

(* Every input vector at once: a node joins a rail on the vectors where
   a conducting device links it to a node that does, grown from the rail
   to a fixpoint. The path search stops at the opposite rail and this
   does not, which changes nothing: no vector joins a cell's rails. *)
let tables_of gate network =
  let module N = Sp.Network in
  let devices = N.devices network in
  let conducts (d : N.device) =
    if d.polarity = T.Nmos then pin_tables.(d.input)
    else Int64.lognot pin_tables.(d.input)
  in
  let joined rail =
    let t = Array.make (N.node_count network) 0L in
    t.(N.index rail) <-
      Int64.shift_right_logical (-1L) (64 - (1 lsl Gate.arity gate));
    let grown = ref true in
    while !grown do
      grown := false;
      Array.iter
        (fun (d : N.device) ->
          let a = N.index d.a and b = N.index d.b and c = conducts d in
          let ta = Int64.logor t.(a) (Int64.logand t.(b) c) in
          let tb = Int64.logor t.(b) (Int64.logand t.(a) c) in
          if ta <> t.(a) || tb <> t.(b) then begin
            grown := true;
            t.(a) <- ta;
            t.(b) <- tb
          end)
        devices
    done;
    Array.of_list (List.map (fun n -> t.(N.index n)) (N.power_nodes network))
  in
  { h = joined N.Vdd; g = joined N.Vss }

type path = { pins : int array; nodes : Sp.Network.node array }
type paths = { network : Sp.Network.t; vdd : path array; vss : path array }

let paths_of network =
  let module N = Sp.Network in
  let devices = N.devices network in
  let path steps =
    let steps = Array.of_list steps in
    {
      pins = Array.map (fun (d, _) -> devices.(d).N.input) steps;
      nodes = Array.map (fun (_, n) -> N.node_of_index n) steps;
    }
  in
  let rail rail =
    Array.of_list (List.map path (N.rail_paths network ~source:N.Output ~rail))
  in
  { network; vdd = rail N.Vdd; vss = rail N.Vss }

(* One cell's configurations in [all]'s order, their networks, truth
   tables and output-to-rail paths, and the ones input reordering
   reaches. Never mutated once published. *)
type cell = {
  configs : t array;
  networks : Sp.Network.t array;
  tables : tables array;
  paths : paths array;
  input_reorderings : int list;
}

let build gate =
  let configs = Array.of_list (all gate) in
  let reference = configs.(0) in
  let networks = Array.map network configs in
  {
    configs;
    networks;
    tables = Array.map (tables_of gate) networks;
    paths = Array.map paths_of networks;
    input_reorderings =
      List.filter
        (fun k -> same_shape configs.(k) reference)
        (List.init (Array.length configs) Fun.id);
  }

(* Every cell built so far, with the gate it was built for. A reader
   takes no lock: it finds its cell in the list it loaded, or builds it
   and publishes a longer list, looking again if another domain
   published first. Every delay query scans the list, so it compares
   gates by identity, not by kind: a netlist's gates are the library's
   values, and a gate made apart from the library gets a table of its
   own. *)
let cells : (Gate.t * cell) list Atomic.t = Atomic.make []

let rec of_gate gate =
  let known = Atomic.get cells in
  match List.assq_opt gate known with
  | Some c -> c
  | None ->
      let c = build gate in
      if Atomic.compare_and_set cells known ((gate, c) :: known) then c
      else of_gate gate

let checked gate k =
  let c = of_gate gate in
  if k < 0 || k >= Array.length c.configs then
    invalid_arg "Config: configuration index out of range";
  c

let nth gate k = (checked gate k).configs.(k)
let nth_network gate k = (checked gate k).networks.(k)
let nth_tables gate k = (checked gate k).tables.(k)
let nth_paths gate k = (checked gate k).paths.(k)
let input_reorderings gate = (of_gate gate).input_reorderings

let instance_count gate =
  let add shapes c =
    if List.exists (same_shape c) shapes then shapes else c :: shapes
  in
  List.length (Array.fold_left add [] (of_gate gate).configs)
