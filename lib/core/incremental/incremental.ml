module C = Netlist.Circuit
module O = Reorder.Optimizer
module Stats = Stoch.Signal_stats

let c_edits = Obs.counter "incremental.edits"
let c_cold_runs = Obs.counter "incremental.cold_runs"

type edit =
  | Set_input_stats of C.net * Stats.t
  | Replace_gate of int * C.gate
  | Set_external_load of float
  | Set_objective of O.objective

exception Edit_error of string

let edit_error fmt = Format.kasprintf (fun s -> raise (Edit_error s)) fmt

type t = {
  session : O.session;
  mutable ledger : Attrib.t option;  (* built on first read after an apply *)
}

let report t = O.session_report t.session
let circuit t = (report t).O.circuit
let session t = t.session
let objective t = O.session_objective t.session
let external_load t = O.session_external_load t.session

let check_input circuit net =
  match C.driver circuit net with
  | C.Primary_input -> ()
  | C.Driven_by g ->
      edit_error
        "set_input_stats: net %S is driven by gate %d, not a primary input"
        (C.net_name circuit net) g

let check_load l =
  if not (Float.is_finite l) || l < 0. then
    edit_error "set_external_load: %g F is not a load" l

let input_stats t net =
  let structure = O.session_circuit t.session in
  match C.driver structure net with
  | C.Primary_input -> O.session_stats t.session net
  | C.Driven_by g ->
      edit_error "net %S is driven by gate %d, not a primary input"
        (C.net_name structure net) g

let ledger t =
  match t.ledger with
  | Some l -> l
  | None ->
      let l = Attrib.of_session t.session in
      t.ledger <- Some l;
      l

let create table ~delay ?external_load ?objective ?input_reordering_only
    ?(memoize = false) ?pool circuit ~inputs =
  Obs.incr c_cold_runs;
  {
    session =
      O.start table ~delay ?external_load ?objective ?input_reordering_only
        ?pool
        ?memo:(if memoize then Some (Reorder.Memo.create ()) else None)
        circuit ~inputs;
    ledger = None;
  }

(* The last edit of each key in a newest-first list. *)
let latest edits =
  List.fold_left
    (fun acc ((key, _) as e) ->
      if List.mem_assoc key acc then acc else e :: acc)
    [] edits

(* Staged validation: every edit is checked (and a rewired circuit
   built) before any session state mutates, so a failing batch leaves
   the session untouched. The batch reaches the optimizer classified:
   configuration-only replacements need no new circuit and move no
   statistics (§4.2). *)
let apply ?pool t edits =
  let structure = O.session_circuit t.session in
  let inputs = ref [] and replacements = ref [] in
  let ext_load = ref (external_load t) and obj = ref (objective t) in
  List.iter
    (fun edit ->
      Obs.incr c_edits;
      match edit with
      | Set_input_stats (net, s) ->
          if net < 0 || net >= C.net_count structure then
            edit_error "set_input_stats: unknown net %d" net;
          check_input structure net;
          inputs := (net, s) :: !inputs
      | Replace_gate (g, gate) ->
          if g < 0 || g >= C.gate_count structure then
            edit_error "replace_gate: no gate %d (circuit has %d)" g
              (C.gate_count structure);
          if gate.C.config < 0
             || gate.C.config >= Cell.Gate.config_count gate.C.cell
          then
            edit_error
              "replace_gate: gate %d (%s): configuration %d out of range" g
              (Cell.Gate.name gate.C.cell) gate.C.config;
          replacements := (g, gate) :: !replacements
      | Set_external_load l ->
          check_load l;
          ext_load := l
      | Set_objective o -> obj := o)
    edits;
  let rewires (g, (gate : C.gate)) =
    let old = C.gate_at structure g in
    gate.C.output <> old.C.output
    || gate.C.fanins <> old.C.fanins
    || Cell.Gate.name gate.C.cell <> Cell.Gate.name old.C.cell
  in
  let rewired, configs = List.partition rewires (latest !replacements) in
  let rewired =
    match rewired with
    | [] -> None
    | rewired -> (
        let gates = C.gates structure in
        List.iter (fun (g, gate) -> gates.(g) <- gate) rewired;
        match
          C.create ~name:(C.name structure)
            ~net_names:
              (Array.init (C.net_count structure) (C.net_name structure))
            ~primary_inputs:(C.primary_inputs structure)
            ~primary_outputs:(C.primary_outputs structure)
            ~gates:(Array.to_list gates)
        with
        | circuit -> Some (circuit, List.map fst rewired)
        | exception C.Invalid msg -> edit_error "replace_gate: %s" msg)
  in
  O.resettle ?pool t.session
    {
      O.inputs = latest !inputs;
      configs =
        List.map (fun (g, (gate : C.gate)) -> (g, gate.C.config)) configs;
      rewired;
      external_load = !ext_load;
      objective = !obj;
    };
  t.ledger <- None

(* --- NDJSON edit scripts -------------------------------------------- *)

module Script = struct
  module J = Trace.Json

  let objective_of_string = function
    | "min_power" -> O.Min_power
    | "max_power" -> O.Max_power
    | "min_power_delay_bounded" -> O.Min_power_delay_bounded
    | "min_delay" -> O.Min_delay
    | s -> edit_error "set_objective: unknown objective %S" s

  let string_of_objective = function
    | O.Min_power -> "min_power"
    | O.Max_power -> "max_power"
    | O.Min_power_delay_bounded -> "min_power_delay_bounded"
    | O.Min_delay -> "min_delay"

  let net_of ~circuit json key =
    match Option.bind (J.member key json) J.to_string with
    | None -> edit_error "edit needs a %S net name" key
    | Some name -> (
        match C.net_of_name circuit name with
        | Some net -> net
        | None -> edit_error "unknown net %S" name)

  let float_of json key =
    match Option.bind (J.member key json) J.to_float with
    | Some v -> v
    | None -> edit_error "edit needs a numeric %S field" key

  (* JSON numbers are floats: an index must be integral and inside
     [0, bound) before it is converted, or [int_of_float] would wrap it
     onto some valid index. *)
  let index_of ?default json key ~bound =
    match (Option.bind (J.member key json) J.to_float, default) with
    | Some v, _ ->
        if Float.is_integer v && v >= 0. && v < float_of_int bound then
          int_of_float v
        else edit_error "%S must be an integer in [0, %d), got %g" key bound v
    | None, Some d -> d
    | None, None -> edit_error "edit needs an integer %S field" key

  let edit_of_json ~circuit json =
    match Option.bind (J.member "op" json) J.to_string with
    | Some "set_input_stats" ->
        let net = net_of ~circuit json "net" in
        check_input circuit net;
        let prob = float_of json "prob" and density = float_of json "density" in
        let stats =
          try Stats.make ~prob ~density
          with Invalid_argument msg -> edit_error "set_input_stats: %s" msg
        in
        Set_input_stats (net, stats)
    | Some "replace_gate" ->
        let g =
          try index_of json "gate" ~bound:(C.gate_count circuit)
          with Edit_error msg -> edit_error "replace_gate: %s" msg
        in
        let old = C.gate_at circuit g in
        let cell =
          match Option.bind (J.member "cell" json) J.to_string with
          | None -> old.C.cell
          | Some name -> (
              try Cell.Gate.of_name name
              with _ -> edit_error "replace_gate: unknown cell %S" name)
        in
        let fanins =
          match J.member "fanins" json with
          | Some (J.Arr names) ->
              Array.of_list
                (List.map
                   (fun j ->
                     match J.to_string j with
                     | Some name -> (
                         match C.net_of_name circuit name with
                         | Some net -> net
                         | None ->
                             edit_error "replace_gate: unknown net %S" name)
                     | None -> edit_error "replace_gate: fanins must be names")
                   names)
          | Some _ -> edit_error "replace_gate: fanins must be an array"
          | None -> old.C.fanins
        in
        let config =
          try
            index_of ~default:old.C.config json "config"
              ~bound:(Cell.Gate.config_count cell)
          with Edit_error msg -> edit_error "replace_gate: %s" msg
        in
        Replace_gate
          (g, { C.cell; config; fanins; output = old.C.output })
    | Some "set_external_load" ->
        let l = float_of json "farads" in
        check_load l;
        Set_external_load l
    | Some "set_objective" -> (
        match Option.bind (J.member "objective" json) J.to_string with
        | Some s -> Set_objective (objective_of_string s)
        | None -> edit_error "set_objective needs an %S field" "objective")
    | Some op -> edit_error "unknown edit op %S" op
    | None -> edit_error "edit has no \"op\" field"

  (* One NDJSON line = one [apply] batch: either a single edit object
     or an array of edit objects. Blank lines and [#] comments skip. *)
  let batch_of_line ~circuit line =
    match J.parse line with
    | Error msg -> edit_error "bad edit line: %s" msg
    | Ok (J.Arr edits) -> List.map (edit_of_json ~circuit) edits
    | Ok json -> [ edit_of_json ~circuit json ]

  let parse ~circuit text =
    let batches = ref [] in
    String.split_on_char '\n' text
    |> List.iteri (fun i line ->
           let line = String.trim line in
           if line <> "" && not (String.length line > 0 && line.[0] = '#')
           then
             try batches := batch_of_line ~circuit line :: !batches
             with Edit_error msg ->
               edit_error "line %d: %s" (i + 1) msg);
    List.rev !batches

  let load ~circuit path =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> (
        try parse ~circuit text
        with Edit_error msg -> edit_error "%s: %s" path msg)
    | exception Sys_error msg ->
        (* A failed open names the file in [msg]; a failed read does not. *)
        if String.starts_with ~prefix:path msg then edit_error "%s" msg
        else edit_error "%s: %s" path msg
end

(* --- replay ---------------------------------------------------------- *)

type timing = {
  batch : int;  (** index into the script *)
  edits : int;  (** edits in the batch *)
  seconds : float;  (** wall-clock time of the [apply] *)
  dirty_gates : int;  (** gates re-swept *)
}

let replay ?pool t script =
  let timings = ref [] in
  List.iteri
    (fun i edits ->
      let t0 = Unix.gettimeofday () in
      apply ?pool t edits;
      let dt = Unix.gettimeofday () -. t0 in
      let dirty_gates = List.length (O.session_swept t.session) in
      timings :=
        { batch = i; edits = List.length edits; seconds = dt; dirty_gates }
        :: !timings)
    script;
  List.rev !timings

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let latency_percentiles timings =
  let sorted =
    Array.of_list (List.map (fun tm -> tm.seconds) timings)
  in
  Array.sort compare sorted;
  ( percentile sorted 0.5,
    percentile sorted 0.9,
    percentile sorted 0.99 )
