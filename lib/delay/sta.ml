module C = Netlist.Circuit

type t = {
  arrival : float array;  (* per net *)
  worst_fanin : int array;  (* per net: the fanin net realizing it, -1 *)
  outputs : C.net list;
}

let default_external_load = 20e-15

let gate_load table ~external_load circuit g =
  let gate = C.gate_at circuit g in
  let pins =
    List.fold_left
      (fun acc (reader, pin) ->
        let cell = (C.gate_at circuit reader).C.cell in
        let network = Cell.Config.network (Cell.Config.reference cell) in
        acc
        +. Cell.Process.input_pin_capacitance (Elmore.process table) network pin)
      0.
      (C.readers circuit gate.C.output)
  in
  if C.is_primary_output circuit gate.C.output then pins +. external_load
  else pins

let run table ?(external_load = default_external_load) ?configs circuit =
  let arrival = Array.make (C.net_count circuit) 0. in
  let worst_fanin = Array.make (C.net_count circuit) (-1) in
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let config =
        match configs with Some a -> a.(g) | None -> gate.C.config
      in
      let load = gate_load table ~external_load circuit g in
      let best = ref 0. and from = ref (-1) in
      Array.iteri
        (fun pin net ->
          let d = Elmore.pin_delay table gate.C.cell ~config ~pin ~load in
          let t = arrival.(net) +. d in
          if t > !best then begin
            best := t;
            from := net
          end)
        gate.C.fanins;
      arrival.(gate.C.output) <- !best;
      worst_fanin.(gate.C.output) <- !from)
    (C.topological_order circuit);
  { arrival; worst_fanin; outputs = C.primary_outputs circuit }

let arrival t net = t.arrival.(net)

let critical_output t =
  List.fold_left
    (fun acc net ->
      match acc with
      | None -> Some net
      | Some best -> if t.arrival.(net) > t.arrival.(best) then Some net else acc)
    None t.outputs

let critical_delay t =
  match critical_output t with None -> 0. | Some net -> t.arrival.(net)

let critical_path t =
  match critical_output t with
  | None -> []
  | Some net ->
      let rec back net acc =
        let acc = net :: acc in
        let prev = t.worst_fanin.(net) in
        if prev < 0 then acc else back prev acc
      in
      back net []
