module C = Netlist.Circuit
module O = Reorder.Optimizer
module Stats = Stoch.Signal_stats

let c_edits = Obs.counter "incremental.edits"
let c_ledger_patched = Obs.counter "incremental.ledger_entries_patched"
let c_ledger_settled = Obs.counter "incremental.ledger_entries_settled"

type edit =
  | Set_input_stats of C.net * Stats.t
  | Replace_gate of int * C.gate
  | Set_external_load of float
  | Set_objective of O.objective

exception Edit_error of string

let edit_error fmt = Format.kasprintf (fun s -> raise (Edit_error s)) fmt

type t = {
  table : Power.Model.table;
  delay : Delay.Elmore.table;
  session : O.session;
  keep_ledger : bool;
  ledger_candidates : bool;
  mutable circuit : C.t;  (* settled: the last run's rewritten circuit *)
  mutable pi_stats : Stats.t array;  (* per net; PI entries are live *)
  mutable external_load : float;
  mutable objective : O.objective;
  mutable input_only : bool;
  mutable report : O.report;
  mutable ledger : Attrib.t option;
}

let circuit t = t.circuit
let report t = t.report
let ledger t = t.ledger
let session t = t.session
let objective t = t.objective
let external_load t = t.external_load

let input_stats t net =
  match C.driver t.circuit net with
  | C.Primary_input -> t.pi_stats.(net)
  | C.Driven_by g ->
      edit_error "net %S is driven by gate %d, not a primary input"
        (C.net_name t.circuit net) g

(* Rebuild the ledger after a run. Fast path: the optimizer session
   tells us exactly which gates it re-swept; their entries are
   recomputed from the session's (already patched) statistics, every
   other entry is settled in place — its statistics, load, incumbent
   (the previous winner) and candidate sweep are all unchanged, so the
   patched ledger is bit-identical to one built cold from the edited
   circuit. *)
let rebuild_ledger t ~before (rep : O.report) =
  Obs.span "incremental.ledger" @@ fun () ->
  let n = C.gate_count before in
  let fresh_entries analysis dirty old =
    let settled = ref 0 and patched = ref 0 in
    let entries =
      Array.init n (fun g ->
          match old with
          | Some (prev : Attrib.t) when not dirty.(g) ->
              incr settled;
              Attrib.settle prev.Attrib.gates.(g)
          | _ ->
              incr patched;
              Attrib.gate_entry t.table ~external_load:t.external_load
                ~candidates:t.ledger_candidates ~before ~analysis
                ~config_after:rep.O.configs.(g) g)
    in
    Obs.add c_ledger_settled !settled;
    Obs.add c_ledger_patched !patched;
    entries
  in
  let ledger =
    match (O.session_stats t.session, O.session_dirty t.session) with
    | Some stats, Some dirty when Array.length dirty = n ->
        let analysis = Power.Analysis.of_stats stats in
        let old =
          match t.ledger with
          | Some prev when Array.length prev.Attrib.gates = n -> Some prev
          | _ -> None
        in
        Attrib.of_entries ~circuit:(C.name before)
          ~external_load:t.external_load
          (fresh_entries analysis dirty old)
    | _ ->
        (* Non-power objective: the session kept no cache; build cold. *)
        Attrib.of_report t.table ~external_load:t.external_load
          ~candidates:t.ledger_candidates ~before
          ~inputs:(fun net -> t.pi_stats.(net))
          rep
  in
  t.ledger <- Some ledger

let run ?pool t circuit =
  let rep =
    O.optimize t.table ~delay:t.delay ~external_load:t.external_load
      ~objective:t.objective ~input_reordering_only:t.input_only ?pool
      ~session:t.session circuit
      ~inputs:(fun net -> t.pi_stats.(net))
  in
  t.report <- rep;
  t.circuit <- rep.O.circuit;
  if t.keep_ledger then rebuild_ledger t ~before:circuit rep;
  rep

let create table ~delay ?(external_load = 20e-15) ?(objective = O.Min_power)
    ?(input_reordering_only = false) ?(memoize = false) ?(ledger = true)
    ?(ledger_candidates = true) ?pool circuit ~inputs =
  let pi_stats =
    Array.make (C.net_count circuit) (Stats.constant false)
  in
  List.iter (fun net -> pi_stats.(net) <- inputs net) (C.primary_inputs circuit);
  let t =
    {
      table;
      delay;
      session = O.session ~memoize ();
      keep_ledger = ledger;
      ledger_candidates;
      circuit;
      pi_stats;
      external_load;
      objective;
      input_only = input_reordering_only;
      report =
        (* placeholder, replaced by [run] below before [create] returns *)
        {
          O.circuit;
          configs = [||];
          power_before = 0.;
          power_after = 0.;
          gates_changed = 0;
          configurations_explored = 0;
        };
      ledger = None;
    }
  in
  ignore (run ?pool t circuit);
  t

(* Staged validation: every edit is checked (and the replacement
   circuit built) before any session state mutates, so a failing batch
   leaves the session untouched. *)
let apply ?pool t edits =
  let pi_updates = ref [] in
  let replacements = ref [] in
  let ext_load = ref t.external_load in
  let obj = ref t.objective in
  List.iter
    (fun edit ->
      Obs.incr c_edits;
      match edit with
      | Set_input_stats (net, s) ->
          if net < 0 || net >= C.net_count t.circuit then
            edit_error "set_input_stats: unknown net %d" net;
          (match C.driver t.circuit net with
          | C.Primary_input -> pi_updates := (net, s) :: !pi_updates
          | C.Driven_by g ->
              edit_error
                "set_input_stats: net %S is driven by gate %d, not a primary \
                 input"
                (C.net_name t.circuit net) g)
      | Replace_gate (g, gate) ->
          if g < 0 || g >= C.gate_count t.circuit then
            edit_error "replace_gate: no gate %d (circuit has %d)" g
              (C.gate_count t.circuit);
          replacements := (g, gate) :: !replacements
      | Set_external_load l ->
          if not (Float.is_finite l) || l < 0. then
            edit_error "set_external_load: %g F is not a load" l;
          ext_load := l
      | Set_objective o -> obj := o)
    edits;
  let circuit =
    if !replacements = [] then t.circuit
    else begin
      let gates = C.gates t.circuit in
      List.iter (fun (g, gate) -> gates.(g) <- gate) (List.rev !replacements);
      let config_only =
        List.for_all
          (fun (g, (gate : C.gate)) ->
            let old = C.gate_at t.circuit g in
            gate.C.output = old.C.output
            && gate.C.fanins = old.C.fanins
            && Cell.Gate.name gate.C.cell = Cell.Gate.name old.C.cell)
          !replacements
      in
      try
        if config_only then
          (* Connectivity is untouched: swap configurations through the
             validated O(gates) fast path instead of a full [create]
             (index rebuild + acyclicity check) — this is the ECO
             latency hot path. *)
          C.with_configs t.circuit
            (Array.map (fun (gate : C.gate) -> gate.C.config) gates)
        else
          C.create ~name:(C.name t.circuit)
            ~net_names:
              (Array.init (C.net_count t.circuit) (C.net_name t.circuit))
            ~primary_inputs:(C.primary_inputs t.circuit)
            ~primary_outputs:(C.primary_outputs t.circuit)
            ~gates:(Array.to_list gates)
      with C.Invalid msg -> edit_error "replace_gate: %s" msg
    end
  in
  List.iter (fun (net, s) -> t.pi_stats.(net) <- s) (List.rev !pi_updates);
  t.external_load <- !ext_load;
  t.objective <- !obj;
  run ?pool t circuit

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
        Set_external_load (float_of json "farads")
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
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    parse ~circuit text
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
      ignore (apply ?pool t edits);
      let dt = Unix.gettimeofday () -. t0 in
      let dirty_gates =
        match O.session_dirty t.session with
        | Some dirty ->
            Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty
        | None -> C.gate_count t.circuit
      in
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
