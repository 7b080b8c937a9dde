(* `perf.exe --self-test --benchmark BENCHMARK.json`: the harness checks
   itself on small stand-ins (c17, rca16) in well under a second. *)

module C = Netlist.Circuit
module O = Reorder.Optimizer
module J = Trace.Json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let check_result name = function
  | Ok _ -> check name true
  | Error msg ->
      check name false;
      Printf.printf "     %s\n" msg

let seed = 1

(* BENCHMARK.json lists exactly the workloads and metrics of Spec. *)
let benchmark_names file =
  match J.parse (Inputs.read_file file) with
  | Error msg -> check_result "BENCHMARK.json parses" (Error msg)
  | Ok doc ->
      let str k o = Option.bind (J.member k o) J.to_string in
      let list k = match J.member k doc with Some (J.Arr xs) -> xs | _ -> [] in
      check "workload names and reasons match"
        (List.map (fun w -> (str "name" w, str "why" w)) (list "workloads")
        = List.map
            (fun (w : Spec.workload) -> (Some w.Spec.name, Some w.Spec.why))
            Spec.workloads);
      let metrics key (declared : Spec.metric list) =
        check (key ^ " names, units and directions match")
          (List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list key)
          = List.map
              (fun (m : Spec.metric) ->
                ( Some m.Spec.m_name,
                  Some m.Spec.unit,
                  Some (Spec.string_of_better m.Spec.better) ))
              declared)
      in
      metrics "end_to_end" Spec.end_to_end;
      metrics "per_layer" Spec.per_layer;
      check "end_to_end bounds match"
        (List.map (fun m -> Option.bind (J.member "bound" m) J.to_float) (list "end_to_end")
        = List.map (fun (m : Spec.metric) -> m.Spec.bound) Spec.end_to_end)

let optimized ?(objective = O.Min_power) circuit =
  let input = Netlist.Io.of_string (Netlist.Io.to_string circuit) in
  let table = Inputs.power_table () and delay = Inputs.delay_table () in
  let inputs = Inputs.stats ~seed input in
  let report = O.optimize table ~delay ~objective input ~inputs in
  (input, report, Attrib.of_report table ~before:input ~inputs report)

let verifiers () =
  let input, report, ledger = optimized (Circuits.Generators.ripple_carry_adder 16) in
  let output_text = Netlist.Io.to_string report.O.circuit in
  let stdout = Format.asprintf "%a\n" O.pp_report report in
  check_result "optimize verifier accepts the optimizer's rca16 output"
    (Verify.optimize ~seed ~bounded:false ~input ~output_text ~stdout
       ~ledger_json:(Attrib.to_json ledger) ());
  (* Worsen one gate: give it its most expensive configuration. *)
  let table = Inputs.power_table () in
  let analysis = Power.Analysis.run table input ~inputs:(Inputs.stats ~seed input) in
  let cost g k = (Power.Estimate.gate table input analysis g ~config:k).Power.Model.total in
  let out = report.O.circuit in
  let g, worst =
    List.init (C.gate_count out) Fun.id
    |> List.concat_map (fun g ->
           List.init (Cell.Gate.config_count (C.gate_at out g).C.cell) (fun k -> (g, k)))
    |> List.fold_left
         (fun (bg, bk) (g, k) ->
           let gap (g, k) = cost g k -. cost g report.O.configs.(g) in
           if gap (g, k) > gap (bg, bk) then (g, k) else (bg, bk))
         (0, report.O.configs.(0))
  in
  let configs = Array.copy report.O.configs in
  configs.(g) <- worst;
  let worsened = C.with_configs out configs in
  check "argmin verifier rejects one worsened gate"
    (worst <> report.O.configs.(g) && Result.is_error (Verify.argmin table worsened analysis));
  check "optimize verifier rejects the worsened netlist"
    (Result.is_error
       (Verify.optimize ~seed ~bounded:false ~input
          ~output_text:(Netlist.Io.to_string worsened) ~stdout ()));
  let input, report, _ =
    optimized ~objective:O.Min_power_delay_bounded (Circuits.Generators.c17 ())
  in
  check_result "bounded verifier accepts c17"
    (Verify.optimize ~seed ~bounded:true ~input
       ~output_text:(Netlist.Io.to_string report.O.circuit)
       ~stdout:(Format.asprintf "%a\n" O.pp_report report)
       ());
  let c17 = Circuits.Generators.c17 () in
  let mc ?pool () =
    Mc.estimate (Inputs.power_table ()) ?pool ~seed:(seed + 1)
      ~inputs:(Inputs.stats ~seed c17) c17
  in
  let mc1 = mc () in
  check_result "mc -j 1 and -j 2 agree"
    (Verify.same_mc mc1 (Par.Pool.with_pool ~jobs:2 (fun pool -> mc ~pool ())));
  check_result "mc verifier accepts the CLI's lines"
    (Verify.mc ~seed ~input:c17 ~stdout:(String.concat "\n" (Verify.mc_lines mc1)));
  let rca = Circuits.Generators.ripple_carry_adder 16 in
  let table = Inputs.power_table () and delay = Inputs.delay_table () in
  let sess = Incremental.create table ~delay rca ~inputs:(Inputs.stats ~seed rca) in
  List.iter
    (fun b -> ignore (Incremental.apply sess b))
    (Incremental.Script.parse ~circuit:rca (Inputs.eco_script ~seed ~batches:20 rca));
  ignore (Incremental.apply sess []);
  check_result "eco verifier accepts a settled rca16 session" (Verify.eco table ~delay sess)

let trace_writer () =
  let sp = Spans.create ~workload:"selftest" in
  Spans.span sp "outer" (fun () ->
      Spans.span sp "inner" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)));
      Spans.span sp "inner" ignore);
  let file = "perf_selftest_trace.ndjson" in
  Inputs.write_file file (Spans.to_ndjson sp);
  let loaded = Trace.load file in
  Sys.remove file;
  match loaded with
  | Error msg -> check_result "trace loads with Trace.load" (Error msg)
  | Ok events ->
      check "trace loads with Trace.load" true;
      let tree = Trace.span_tree events in
      check "trace nests inner twice under outer"
        (match tree.Trace.children with
        | [ { Trace.name = "outer"; calls = 1; children = [ inner ]; _ } ] ->
            inner.Trace.name = "inner" && inner.Trace.calls = 2
        | _ -> false);
      check "trace carries word counters"
        (List.mem_assoc "inner.minor_words" (Trace.final_counters events))

let run ~benchmark =
  benchmark_names benchmark;
  check "quartiles match Python's statistics.quantiles"
    (Stat.quartiles [ 1.; 2.; 3.; 4.; 5. ] = (1.5, 4.5)
    && Stat.quartiles [ 4.; 1.; 3.; 2. ] = (1.25, 3.75));
  verifiers ();
  trace_writer ();
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
