module N = Sp.Network

(* A path's delay is affine in the output load: [fixed + coef * load],
   where [coef] is the total path resistance (the output capacitance
   C(y) + load discharges through the whole path) and [fixed] collects
   the internal-node terms plus C(y)'s own contribution. *)
type affine = { fixed : float; coef : float }

type pin_model = { rise : affine list; fall : affine list }

(* Per cell name, each configuration's pin models once built. *)
type table = {
  proc : Cell.Process.t;
  cells : (string, pin_model array option array) Hashtbl.t;
}

let table proc = { proc; cells = Hashtbl.create 32 }
let process t = t.proc

let build_models t cell config =
  let network = Cell.Config.nth_network cell config in
  let devices = N.devices network in
  let resistance =
    Array.map
      (fun (d : N.device) -> Cell.Process.device_resistance t.proc d.polarity)
      devices
  in
  (* Internal nodes only: the output's term is [c_out], and a rail never
     carries charge. *)
  let capacitance =
    Array.init (N.node_count network) (fun i ->
        if i <= N.index N.Output then 0.
        else Cell.Process.node_capacitance t.proc network (N.node_of_index i))
  in
  let c_out = Cell.Process.node_capacitance t.proc network N.Output in
  let arity = Cell.Gate.arity cell in
  (* Elmore terms of one path, [(device, node past it)] from the output
     toward the rail, for every pin on it (each pin drives one device
     per network). When a pin's device switches last, only the nodes
     above it still carry charge, so its term is the path's prefix sum
     up to that device; each node adds its capacitance times the
     resistance still between it and the rail. *)
  let add_path models path =
    let total_r = List.fold_left (fun r (d, _) -> r +. resistance.(d)) 0. path in
    let rec walk path downstream fixed =
      match path with
      | [] -> ()
      | (d, node) :: rest ->
          let pin = devices.(d).input in
          models.(pin) <-
            { fixed = fixed +. (c_out *. total_r); coef = total_r }
            :: models.(pin);
          let downstream = downstream -. resistance.(d) in
          walk rest downstream (fixed +. (capacitance.(node) *. downstream))
    in
    walk path total_r 0.
  in
  (* Every simple path from the output to [rail] that does not cross the
     opposite rail, depth first, marking the nodes on the current path. *)
  let vdd = N.index N.Vdd and vss = N.index N.Vss in
  let rail_models rail =
    let models = Array.make arity [] in
    let blocked = if rail = vss then vdd else vss in
    let on_path = Array.make (N.node_count network) false in
    let rec explore here acc =
      if here = rail then add_path models (List.rev acc)
      else if here <> blocked then begin
        on_path.(here) <- true;
        Array.iter
          (fun (d, next) ->
            if not on_path.(next) then explore next ((d, next) :: acc))
          (N.adjacency network here);
        on_path.(here) <- false
      end
    in
    explore (N.index N.Output) [];
    models
  in
  let fall = rail_models vss and rise = rail_models vdd in
  Array.init arity (fun pin -> { rise = rise.(pin); fall = fall.(pin) })

let get t cell config =
  let name = Cell.Gate.name cell in
  let models =
    match Hashtbl.find_opt t.cells name with
    | Some models -> models
    | None ->
        let models = Array.make (Cell.Gate.config_count cell) None in
        Hashtbl.add t.cells name models;
        models
  in
  if config < 0 || config >= Array.length models then
    invalid_arg "Delay.Elmore: configuration index out of range";
  match models.(config) with
  | Some m -> m
  | None ->
      let m = build_models t cell config in
      models.(config) <- Some m;
      m

let eval load paths =
  List.fold_left (fun acc a -> Float.max acc (a.fixed +. (a.coef *. load))) 0. paths

let pin_delay_rise_fall t cell ~config ~pin ~load =
  if load < 0. then invalid_arg "Delay.Elmore: negative load";
  let models = get t cell config in
  if pin < 0 || pin >= Array.length models then
    invalid_arg "Delay.Elmore: pin out of range";
  let m = models.(pin) in
  (eval load m.rise, eval load m.fall)

let pin_delay t cell ~config ~pin ~load =
  let rise, fall = pin_delay_rise_fall t cell ~config ~pin ~load in
  Float.max rise fall

let worst_delay t cell ~config ~load =
  let arity = Cell.Gate.arity cell in
  let rec go pin acc =
    if pin >= arity then acc
    else go (pin + 1) (Float.max acc (pin_delay t cell ~config ~pin ~load))
  in
  go 0 0.
