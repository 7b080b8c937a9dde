type node = Vdd | Vss | Output | Internal of int

type device = {
  input : int;
  polarity : Sp_tree.polarity;
  a : node;
  b : node;
}

type t = {
  devices : device array;
  internal_count : int;
  inputs : int list;
  adjacency : (int * int) array array;  (* node index -> (device, far node) *)
}

let index = function
  | Vdd -> 0
  | Vss -> 1
  | Output -> 2
  | Internal i -> 3 + i

let node_of_index = function
  | 0 -> Vdd
  | 1 -> Vss
  | 2 -> Output
  | i when i > 2 -> Internal (i - 3)
  | _ -> invalid_arg "Network.node_of_index: negative index"

(* Lay an SP tree between terminals [u] and [v], allocating internal
   nodes for series gaps via [fresh]. *)
let rec lay ~polarity ~fresh u v tree acc =
  match (tree : Sp_tree.t) with
  | Leaf input -> { input; polarity; a = u; b = v } :: acc
  | Parallel cs -> List.fold_left (fun acc c -> lay ~polarity ~fresh u v c acc) acc cs
  | Series cs ->
      let rec chain u cs acc =
        match cs with
        | [] -> acc
        | [ last ] -> lay ~polarity ~fresh u v last acc
        | c :: rest ->
            let mid = Internal (fresh ()) in
            chain mid rest (lay ~polarity ~fresh u mid c acc)
      in
      chain u cs acc

let of_networks ~pull_up ~pull_down =
  let counter = ref 0 in
  let fresh () =
    let i = !counter in
    incr counter;
    i
  in
  let acc = lay ~polarity:Sp_tree.Nmos ~fresh Output Vss pull_down [] in
  let acc = lay ~polarity:Sp_tree.Pmos ~fresh Vdd Output pull_up acc in
  let inputs =
    List.sort_uniq compare
      (List.sort_uniq compare (Sp_tree.inputs pull_up @ Sp_tree.inputs pull_down))
  in
  let devices = Array.of_list (List.rev acc) in
  (* Prepending from the last device leaves each list in device order. *)
  let adjacency = Array.make (3 + !counter) [] in
  for d = Array.length devices - 1 downto 0 do
    let a = index devices.(d).a and b = index devices.(d).b in
    adjacency.(a) <- (d, b) :: adjacency.(a);
    adjacency.(b) <- (d, a) :: adjacency.(b)
  done;
  {
    devices;
    internal_count = !counter;
    inputs;
    adjacency = Array.map Array.of_list adjacency;
  }

let complementary_gate ~pull_down =
  of_networks ~pull_up:(Sp_tree.dual pull_down) ~pull_down

let devices t = t.devices
let device_count t = Array.length t.devices
let internal_count t = t.internal_count
let internal_nodes t = List.init t.internal_count (fun i -> Internal i)
let power_nodes t = Output :: internal_nodes t
let inputs t = t.inputs
let node_count t = Array.length t.adjacency
let adjacency t i = t.adjacency.(i)
let node_degree t n = Array.length t.adjacency.(index n)

(* Conduction literal of one transistor: NMOS passes when its input is
   1, PMOS when it is 0. *)
let device_literal m d =
  match d.polarity with
  | Sp_tree.Nmos -> Bdd.var m d.input
  | Sp_tree.Pmos -> Bdd.nvar m d.input

(* Depth first from [source] in adjacency order, marking the nodes on
   the current path; a path ends at [rail], and the opposite rail is
   never a via. *)
let rail_paths t ~source ~rail =
  if source = Vdd || source = Vss then
    invalid_arg "Network: H/G undefined on supply rails";
  let blocked =
    match rail with
    | Vdd -> index Vss
    | Vss -> index Vdd
    | Output | Internal _ -> invalid_arg "Network.rail_paths: not a rail"
  in
  let rail = index rail in
  let on_path = Array.make (node_count t) false in
  let paths = ref [] in
  let rec explore here steps =
    if here = rail then paths := List.rev steps :: !paths
    else if here <> blocked then begin
      on_path.(here) <- true;
      Array.iter
        (fun ((_, next) as step) ->
          if not on_path.(next) then explore next (step :: steps))
        t.adjacency.(here);
      on_path.(here) <- false
    end
  in
  explore (index source) [];
  List.rev !paths

(* The paper's Fig. 2(b): the disjunction over the rail paths of the
   conjunction of their devices' conduction literals. *)
let path_function m t n ~rail =
  let conducts cube (d, _) = Bdd.( &&& ) cube (device_literal m t.devices.(d)) in
  List.fold_left
    (fun acc path -> Bdd.( ||| ) acc (List.fold_left conducts (Bdd.one m) path))
    (Bdd.zero m)
    (rail_paths t ~source:n ~rail)

let h_function m t n = path_function m t n ~rail:Vdd
let g_function m t n = path_function m t n ~rail:Vss

let output_function m t = h_function m t Output

let is_complementary m t =
  Bdd.equal (h_function m t Output) (Bdd.not_ (g_function m t Output))

let has_short m t =
  List.exists
    (fun n -> not (Bdd.is_zero (Bdd.( &&& ) (h_function m t n) (g_function m t n))))
    (power_nodes t)

let node_name = function
  | Vdd -> "vdd"
  | Vss -> "vss"
  | Output -> "y"
  | Internal i -> "n" ^ string_of_int i

let pp_node ppf n = Format.pp_print_string ppf (node_name n)

let to_dot ?(name = "gate") ?(input_names = fun i -> "x" ^ string_of_int i) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "graph %S {\n" name);
  Buffer.add_string buf "  rankdir=TB;\n";
  Buffer.add_string buf
    "  vdd [shape=box, style=filled, fillcolor=lightblue];\n";
  Buffer.add_string buf
    "  vss [shape=box, style=filled, fillcolor=lightgray];\n";
  Buffer.add_string buf "  y [shape=doublecircle];\n";
  List.iter
    (fun node ->
      match node with
      | Internal _ ->
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=circle];\n" (node_name node))
      | Vdd | Vss | Output -> ())
    (power_nodes t);
  Array.iter
    (fun d ->
      let style =
        match d.polarity with
        | Sp_tree.Pmos -> ", style=dashed"
        | Sp_tree.Nmos -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -- %s [label=%S%s];\n" (node_name d.a)
           (node_name d.b) (input_names d.input) style))
    t.devices;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
