(* Seeded inputs: the netlists (random_logic from Spec.circuit_seed,
   written with Netlist.Io.save so the CLI parses them like any user
   file), the scenario-A input statistics the CLI draws from --seed, and
   the NDJSON ECO script. *)

module C = Netlist.Circuit

let proc = Cell.Process.default

(* Fresh per-process tables, as one CLI invocation builds them. *)
let power_table () = Power.Model.table proc
let delay_table () = Delay.Elmore.table proc

let circuit (w : Spec.workload) =
  Circuits.Generators.random_logic ~seed:Spec.circuit_seed ~inputs:w.Spec.inputs
    ~gates:w.Spec.gates

(* The CLI's `--seed S` (scenario A). *)
let stats ~seed circuit =
  Power.Scenario.input_stats ~rng:(Stoch.Rng.create seed) Power.Scenario.A
    circuit

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* [batches] single-gate configuration flips, one apply batch per line.
   Gate and configuration are drawn uniformly, so some flips land on the
   configuration the gate already has; those still cost a full apply. *)
let eco_script ~seed ~batches circuit =
  let rng = Stoch.Rng.create (seed + 7919) in
  let b = Buffer.create (batches * 48) in
  for _ = 1 to batches do
    let g = Stoch.Rng.int rng (C.gate_count circuit) in
    let k = Cell.Gate.config_count (C.gate_at circuit g).C.cell in
    Printf.bprintf b "{\"op\":\"replace_gate\",\"gate\":%d,\"config\":%d}\n" g
      (Stoch.Rng.int rng k)
  done;
  Buffer.contents b
