(* treorder performance benchmark.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the workload end to end, untraced, for S seconds;
   --trace 1 runs the per-layer ladder in a fresh traced child instead.
   Inputs are generated from the seed under bench/perf/_run/. The last
   stdout line is the JSON summary; the exit code is 0 only when every
   output verified. --self-test checks the harness itself. *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perf.exe --self-test --benchmark BENCHMARK.json";
  exit 2

let json_number x = Printf.sprintf "%.17g" x

(* Print the human table, then the one-line JSON summary as the last
   line of stdout. Returns the exit code. *)
let report ~(declared : Spec.metric list) ~attempted ~failed ~errors
    ~(samples : (string * float list) list) ~info =
  let errors = ref errors in
  Printf.printf "%-36s %-6s %4s %14s %14s %14s\n" "metric" "unit" "n" "median" "q1"
    "q3";
  let values =
    List.map
      (fun (m : Spec.metric) ->
        let xs = Option.value (List.assoc_opt m.Spec.m_name samples) ~default:[] in
        let v = if xs = [] then nan else Report.Stats.median xs in
        let q1, q3 = Stat.quartiles xs in
        Printf.printf "%-36s %-6s %4d %14.6g %14.6g %14.6g\n" m.Spec.m_name m.Spec.unit
          (List.length xs) v q1 q3;
        if Float.is_finite v then (m, v)
        else begin
          errors := !errors @ [ m.Spec.m_name ^ " was not measured" ];
          (m, 0.)
        end)
      declared
  in
  (* An error nobody counted (a metric missing) still fails one operation. *)
  let failed = min attempted (max failed (Bool.to_int (!errors <> []))) in
  List.iter (fun (k, v) -> Printf.printf "%-36s %s\n" k v) info;
  Printf.printf "%-36s %d/%d\n" "fail_rate" failed attempted;
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) !errors;
  let correct = failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun ((m : Spec.metric), v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Obs.json_string m.Spec.m_name) (json_number v)
              (Obs.json_string m.Spec.unit))
          values));
  if correct then 0 else 1

let end_to_end w ~seed ~seconds ~dir =
  let r = E2e.run w ~seed ~seconds ~dir in
  report ~declared:Spec.end_to_end ~attempted:r.E2e.attempted ~failed:r.E2e.failed
    ~errors:r.E2e.errors ~samples:r.E2e.samples ~info:r.E2e.info

(* Every span name the ladder records; the written trace must hold them
   all, read back through the repo's own trace reader. *)
let layer_spans =
  [
    "netlist.parse"; "core.optimize_cold"; "delay.sta"; "attrib.ledger"; "attrib.json";
    "netlist.save"; "power.model_build"; "power.model_warm"; "power.analysis";
    "power.eval"; "power.estimate"; "core.optimize"; "obs.untraced_optimize";
    "obs.traced_optimize"; "core.memo"; "delay.bounded"; "incremental.create";
    "incremental.apply"; "mc.estimate_j1"; "mc.estimate_j2";
  ]

let check_trace path =
  match Trace.load path with
  | Error msg -> Error ("trace: " ^ msg)
  | Ok events -> (
      let rec names (t : Trace.tree) =
        t.Trace.name :: List.concat_map names t.Trace.children
      in
      let present = names (Trace.span_tree events) in
      match List.find_opt (fun n -> not (List.mem n present)) layer_spans with
      | None -> Ok ()
      | Some n -> Error ("trace lacks span " ^ n))

(* One operation: the traced ladder, in a fresh process. It is not
   pinned: it runs no calibration kernel, and its 2-job pool
   (par.speedup) needs both CPUs. *)
let per_layer (w : Spec.workload) ~seed ~dir =
  let r =
    Usage.run ~stdout:(E2e.path dir "layers.out") ~stderr:(E2e.path dir "layers.err")
      [| Sys.executable_name; "--layers"; w.Spec.name; dir; string_of_int seed |]
  in
  let samples = ref [] and info = ref [] and errors = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "metric"; name; v ] -> samples := (name, [ float_of_string v ]) :: !samples
      | [ "info"; name; v ] -> info := (name, v) :: !info
      | "error" :: _ -> errors := line :: !errors
      | _ -> ())
    (String.split_on_char '\n' (Inputs.read_file (E2e.path dir "layers.out")));
  if r.Usage.code <> 0 then
    errors :=
      Printf.sprintf "layers child exited %d: %s" r.Usage.code
        (String.trim (Inputs.read_file (E2e.path dir "layers.err")))
      :: !errors;
  Result.iter_error
    (fun m -> errors := m :: !errors)
    (check_trace (E2e.path dir "trace.ndjson"));
  let errors = List.rev !errors in
  report ~declared:Spec.per_layer ~attempted:1 ~failed:(Bool.to_int (errors <> [])) ~errors
    ~samples:!samples
    ~info:(List.rev !info @ [ ("trace", E2e.path dir "trace.ndjson") ])

let layers_child name dir seed =
  match Spec.find name with
  | None -> usage ()
  | Some w ->
      let metrics, info, errors = Layers.run w ~seed:(int_of_string seed) ~dir in
      List.iter (fun (k, v) -> Printf.printf "metric %s %s\n" k (json_number v)) metrics;
      List.iter (fun (k, v) -> Printf.printf "info %s %s\n" k v) info;
      List.iter (fun e -> Printf.printf "error %s\n" e) errors

let main args =
  let rec flags acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key -> flags ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = flags [] args in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  match Spec.find (get "--workload") with
  | None ->
      Printf.eprintf "unknown workload %S\n" (get "--workload");
      exit 2
  | Some w ->
      let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
      let dir = Printf.sprintf "bench/perf/_run/%s-s%d" w.Spec.name seed in
      E2e.prepare w ~seed ~dir;
      exit
        (match int "--trace" with
        | 0 -> end_to_end w ~seed ~seconds ~dir
        | 1 -> per_layer w ~seed ~dir
        | _ -> usage ())

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--eco-child"; dir; seed; seconds; sessions; batches; measured ] ->
      E2e.eco_child ~dir ~seed:(int_of_string seed)
        {
          E2e.seconds = float_of_string seconds;
          min_sessions = int_of_string sessions;
          batches = int_of_string batches;
          measured = measured = "1";
        }
  | [ "--calib-server" ] -> Calib.serve ()
  | [ "--layers"; name; dir; seed ] -> layers_child name dir seed
  | [ "--self-test"; "--benchmark"; file ] -> exit (Selftest.run ~benchmark:file)
  | args -> main args
