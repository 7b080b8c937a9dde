(* Output checks that recompute results with the library instead of
   trusting what the CLI reports about itself. Each returns [Error] with
   a one-line reason; the harness counts every error as a failure. *)

module C = Netlist.Circuit
module E = Power.Estimate
module J = Trace.Json

let ( let* ) = Result.bind

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The output must be the input with only configurations rewritten. *)
let same_but_configs ~input ~output =
  if C.gate_count input <> C.gate_count output then
    Error "output gate count differs from the input"
  else
    let configs = Array.map (fun g -> g.C.config) (C.gates output) in
    match C.with_configs input configs with
    | exception C.Invalid msg -> Error ("output configurations invalid: " ^ msg)
    | rebuilt ->
        if Netlist.Io.to_string rebuilt = Netlist.Io.to_string output then Ok ()
        else Error "output netlist differs from the input beyond configurations"

(* FIND_BEST_REORDERING, recomputed: every gate's configuration must
   cost no more than any alternative under Power.Estimate.gate. *)
let argmin table circuit analysis =
  let total g config = (E.gate table circuit analysis g ~config).Power.Model.total in
  let rec check g =
    if g = C.gate_count circuit then Ok ()
    else
      let gate = C.gate_at circuit g in
      let chosen = total g gate.C.config in
      let rec cheapest k =
        k = Cell.Gate.config_count gate.C.cell
        || (total g k >= chosen && cheapest (k + 1))
      in
      if cheapest 0 then check (g + 1)
      else
        Error
          (Printf.sprintf "gate %d (%s): configuration %d is not the cheapest" g
             (Cell.Gate.name gate.C.cell) gate.C.config)
  in
  check 0

(* The CLI prints "<name>: <before> -> <after> W (...)" with %.4g. *)
let power_line ~stdout ~before ~after =
  let expected = Printf.sprintf ": %.4g -> %.4g W (" before after in
  if contains ~sub:expected stdout then Ok ()
  else Error (Printf.sprintf "CLI power line does not read %S" expected)

let critical table circuit = Delay.Sta.critical_delay (Delay.Sta.run table circuit)

(* The ledger must describe the written netlist: one entry per gate with
   its configuration and its recomputed power, bit for bit. *)
let ledger ~json ~output (b : E.breakdown) =
  let num key o = Option.bind (J.member key o) J.to_float in
  match J.parse json with
  | Error msg -> Error ("ledger JSON: " ^ msg)
  | Ok doc -> (
      match J.member "gates" doc with
      | Some (J.Arr gates) when List.length gates = C.gate_count output ->
          let rec entries g = function
            | [] -> Ok ()
            | e :: rest ->
                let config = (C.gate_at output g).C.config in
                if num "config_after" e <> Some (float_of_int config) then
                  Error (Printf.sprintf "ledger gate %d: config_after is not %d" g config)
                else if num "power_after" e <> Some b.E.per_gate.(g) then
                  Error (Printf.sprintf "ledger gate %d: power_after differs" g)
                else entries (g + 1) rest
          in
          entries 0 gates
      | _ -> Error "ledger JSON: gates missing or of the wrong length")

type optimized = { before : float; after : float; output_bytes : int }

(* One optimize output: structure, power line, argmin (or, for the
   delay-bounded objective, no power or delay increase) and ledger. *)
let optimize ~seed ~bounded ~input ~output_text ~stdout ?ledger_json () =
  let output = Netlist.Io.of_string output_text in
  let table = Inputs.power_table () in
  let inputs = Inputs.stats ~seed input in
  let analysis = Power.Analysis.run table input ~inputs in
  let before = E.total table input analysis in
  let b = E.circuit table output analysis in
  let after = b.E.total in
  let* () = same_but_configs ~input ~output in
  let* () = power_line ~stdout ~before ~after in
  let* () =
    if not bounded then argmin table output analysis
    else
      let delay = Inputs.delay_table () in
      let d0 = critical delay input and d1 = critical delay output in
      if d1 > d0 then Error (Printf.sprintf "critical delay grew: %.6g -> %.6g s" d0 d1)
      else if after > before then Error "bounded optimize increased power"
      else Ok ()
  in
  let* () =
    match ledger_json with None -> Ok () | Some json -> ledger ~json ~output b
  in
  Ok
    {
      before;
      after;
      output_bytes =
        String.length output_text
        + Option.fold ~none:0 ~some:String.length ledger_json;
    }

let mc_lines (r : Mc.result) =
  [
    Printf.sprintf "mc power:       %s (output-node switching)"
      (Report.Table.cell_power r.Mc.power);
    Printf.sprintf "  energy:       %.4g J per trajectory window" r.Mc.energy;
  ]

(* `estimate --backend mc` samples with seed + 1; the in-process run
   here has no pool, i.e. the -j 1 path the -j 2 output must equal. *)
let mc ~seed ~input ~stdout =
  let r =
    Mc.estimate (Inputs.power_table ()) ~seed:(seed + 1)
      ~inputs:(Inputs.stats ~seed input) input
  in
  match List.find_opt (fun l -> not (contains ~sub:l stdout)) (mc_lines r) with
  | None -> Ok r
  | Some l -> Error (Printf.sprintf "mc output lacks %S" l)

let same_mc (a : Mc.result) (b : Mc.result) =
  if
    a.Mc.power = b.Mc.power && a.Mc.energy = b.Mc.energy
    && a.Mc.net_toggles = b.Mc.net_toggles
    && a.Mc.samples = b.Mc.samples
  then Ok ()
  else Error "mc results differ between job counts"

(* A settled ECO session must be the fixed point of a cold optimize of
   its own circuit: same configurations, same power, bit for bit. *)
let eco table ~delay sess =
  let final = Incremental.report sess in
  let cold =
    Reorder.Optimizer.optimize table ~delay
      ~external_load:(Incremental.external_load sess)
      ~objective:(Incremental.objective sess) (Incremental.circuit sess)
      ~inputs:(Incremental.input_stats sess)
  in
  if
    cold.Reorder.Optimizer.configs = final.Reorder.Optimizer.configs
    && cold.Reorder.Optimizer.power_after = final.Reorder.Optimizer.power_after
  then Ok ()
  else
    Error
      (Printf.sprintf "settled session differs from a cold run: %.17g vs %.17g W"
         final.Reorder.Optimizer.power_after cold.Reorder.Optimizer.power_after)
