module C = Netlist.Circuit

type t = {
  table : Elmore.table;
  circuit : C.t;
  loads : float array;  (* per gate: output load, F *)
  arrival : float array;  (* per net *)
  worst_fanin : int array;  (* per net: the fanin net realizing it, -1 *)
}

(* The forward step, the only one: the latest fanin arrival plus that
   pin's delay, and the fanin realizing it (-1 when none beats 0). *)
let forward table circuit loads arrival g ~config =
  let gate = C.gate_at circuit g in
  let load = loads.(g) in
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
  (!best, !from)

let run table ?external_load circuit =
  let loads =
    Array.init (C.gate_count circuit)
      (Netlist.Load.output (Elmore.process table) ?external_load circuit)
  in
  let arrival = Array.make (C.net_count circuit) 0. in
  let worst_fanin = Array.make (C.net_count circuit) (-1) in
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let best, from =
        forward table circuit loads arrival g ~config:gate.C.config
      in
      arrival.(gate.C.output) <- best;
      worst_fanin.(gate.C.output) <- from)
    (C.topological_order circuit);
  { table; circuit; loads; arrival; worst_fanin }

let step t arrival g ~config =
  fst (forward t.table t.circuit t.loads arrival g ~config)

(* [x ↦ x +. d] is monotone and non-negative floats order like their
   bit patterns, so the answer is a bisection over the bits. [r -. d]
   would not do: it can be an ulp off either way. *)
let latest r d =
  if d > r then neg_infinity
  else
    let fits bits = Int64.float_of_bits bits +. d <= r in
    (* [fits lo], [not (fits hi)] *)
    let rec bisect lo hi =
      if Int64.sub hi lo <= 1L then Int64.float_of_bits lo
      else
        let mid = Int64.add lo (Int64.div (Int64.sub hi lo) 2L) in
        if fits mid then bisect mid hi else bisect lo mid
    in
    let top = Int64.bits_of_float infinity in
    if fits top then infinity else bisect 0L top

(* Backward from the budget over the incumbent configurations: a net's
   required time is the tightest [latest] over the pins reading it, and
   the budget itself on a primary output. By [latest]'s definition and
   the step's monotonicity, an arrival meets it exactly when every path
   from the net stays within the budget. *)
let required t ~budget =
  let circuit = t.circuit in
  let required = Array.make (C.net_count circuit) infinity in
  List.iter (fun po -> required.(po) <- budget) (C.primary_outputs circuit);
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let r = required.(gate.C.output) and load = t.loads.(g) in
      Array.iteri
        (fun pin net ->
          let d =
            Elmore.pin_delay t.table gate.C.cell ~config:gate.C.config ~pin
              ~load
          in
          required.(net) <- Float.min required.(net) (latest r d))
        gate.C.fanins)
    (List.rev (C.topological_order circuit));
  required

let arrival t net = t.arrival.(net)

let critical_output t =
  List.fold_left
    (fun acc net ->
      match acc with
      | None -> Some net
      | Some best -> if t.arrival.(net) > t.arrival.(best) then Some net else acc)
    None
    (C.primary_outputs t.circuit)

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
