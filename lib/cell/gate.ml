module T = Sp.Sp_tree

type kind =
  | Inv
  | Nand of int
  | Nor of int
  | Aoi of int list
  | Oai of int list

type t = {
  kind : kind;
  name : string;
  pull_down : T.t;
  arity : int;
  config_count : int;
  pin_devices : int array;
}

let group_name prefix groups =
  prefix ^ String.concat "" (List.map string_of_int groups)

let kind_name = function
  | Inv -> "inv"
  | Nand n -> "nand" ^ string_of_int n
  | Nor n -> "nor" ^ string_of_int n
  | Aoi groups -> group_name "aoi" groups
  | Oai groups -> group_name "oai" groups

let leaves_from start count = List.init count (fun i -> T.leaf (start + i))

(* AOI pull-down: parallel of series AND-groups. OAI pull-down: series of
   parallel OR-groups. Inputs are numbered across groups left to right. *)
let grouped combine_outer combine_inner groups =
  let _, built =
    List.fold_left
      (fun (start, acc) size ->
        (start + size, combine_inner (leaves_from start size) :: acc))
      (0, []) groups
  in
  combine_outer (List.rev built)

let validate_groups groups =
  if List.length groups < 2 then
    invalid_arg "Gate.make: AOI/OAI needs at least two groups";
  if List.exists (fun g -> g < 1) groups then
    invalid_arg "Gate.make: group sizes must be >= 1";
  if List.for_all (fun g -> g = 1) groups then
    invalid_arg "Gate.make: all-singleton AOI/OAI is a nor/nand"

let pull_down_of_kind = function
  | Inv -> T.leaf 0
  | Nand n ->
      if n < 2 then invalid_arg "Gate.make: nand fan-in must be >= 2";
      T.series (leaves_from 0 n)
  | Nor n ->
      if n < 2 then invalid_arg "Gate.make: nor fan-in must be >= 2";
      T.parallel (leaves_from 0 n)
  | Aoi groups ->
      validate_groups groups;
      grouped T.parallel T.series groups
  | Oai groups ->
      validate_groups groups;
      grouped T.series T.parallel groups

(* Devices each pin drives: one per leaf of the pull-down network and
   one per leaf of its dual, the pull-up, which has the same leaves. *)
let pin_devices_of pull_down arity =
  let counts = Array.make arity 0 in
  let rec walk = function
    | T.Leaf i -> counts.(i) <- counts.(i) + 2
    | T.Series cs | T.Parallel cs -> List.iter walk cs
  in
  walk pull_down;
  counts

let make kind =
  let pull_down = pull_down_of_kind kind in
  let arity = List.length (T.inputs pull_down) in
  {
    kind;
    name = kind_name kind;
    pull_down;
    arity;
    (* Precomputed: callers query these on per-gate hot paths. *)
    config_count =
      T.count_orderings pull_down * T.count_orderings (T.dual pull_down);
    pin_devices = pin_devices_of pull_down arity;
  }

let name t = t.name
let kind t = t.kind
let arity t = t.arity
let pull_down t = t.pull_down

let library =
  List.map make
    [
      Inv;
      Nand 2;
      Nor 2;
      Nand 3;
      Nor 3;
      Aoi [ 2; 1 ];
      Oai [ 2; 1 ];
      Nand 4;
      Nor 4;
      Aoi [ 2; 2 ];
      Oai [ 2; 2 ];
      Aoi [ 3; 1 ];
      Oai [ 3; 1 ];
      Aoi [ 2; 1; 1 ];
      Oai [ 2; 1; 1 ];
      Aoi [ 3; 1; 1 ];
      Oai [ 3; 1; 1 ];
      Aoi [ 2; 2; 1 ];
      Oai [ 2; 2; 1 ];
      Aoi [ 2; 2; 2 ];
      Oai [ 2; 2; 2 ];
    ]

let of_name n =
  match List.find_opt (fun g -> g.name = n) library with
  | Some g -> g
  | None -> raise Not_found

let function_bdd m t = Bdd.not_ (T.conduction m T.Nmos t.pull_down)

let transistor_count t = 2 * T.transistor_count t.pull_down

let config_count t = t.config_count

let pin_devices t pin =
  if pin < 0 || pin >= t.arity then invalid_arg "Gate.pin_devices: no such pin";
  t.pin_devices.(pin)

let equal a b = a.kind = b.kind
let pp ppf t = Format.pp_print_string ppf t.name
