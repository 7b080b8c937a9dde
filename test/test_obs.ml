(* Tests for the observability registry: counter/reset semantics, span
   nesting and exception safety, NDJSON validity of the trace sink, the
   zero-allocation disabled path, and the §4.2 once-per-net density
   counter invariant over the real pipeline. *)

(* --- a minimal JSON validity checker (objects, arrays, strings with
   escapes, numbers, literals) so NDJSON lines can be asserted valid
   without an external parser dependency --- *)

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d in %s" msg !pos s)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some _ | None -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word =
    String.iter expect word
  in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | Some _ | None -> fail "bad \\u escape"
              done;
              go ()
          | Some _ | None -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            saw := true;
            advance ();
            go ()
        | Some _ | None -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | Some _ | None -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | Some _ | None -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | Some _ | None -> ());
        digits ()
    | Some _ | None -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            string_ ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | Some _ | None -> fail "expected , or }"
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | Some _ | None -> fail "expected , or ]"
          in
          elements ()
    | Some '"' -> string_ ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ | None -> fail "expected value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let check_valid_json what s =
  match parse_json s with
  | () -> ()
  | exception Bad msg -> Alcotest.failf "%s: invalid JSON: %s" what msg

(* --- counters and reset --- *)

let test_counter_basics () =
  Obs.reset ();
  let c = Obs.counter "test.basic" in
  Alcotest.(check int) "starts at 0" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 3;
  Alcotest.(check int) "2 incr + add 3" 5 (Obs.value c);
  Alcotest.(check int) "same name, same counter" 5
    (Obs.value (Obs.counter "test.basic"));
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Obs.add: negative delta") (fun () ->
      Obs.add c (-1));
  Alcotest.(check int) "visible in snapshot" 5
    (Obs.counter_value (Obs.snapshot ()) "test.basic");
  Obs.reset ();
  Alcotest.(check int) "reset zeroes the value" 0 (Obs.value c);
  Alcotest.(check int) "old handle still registered" 0
    (Obs.counter_value (Obs.snapshot ()) "test.basic");
  Obs.incr c;
  Alcotest.(check int) "handle usable after reset" 1 (Obs.value c)

let test_counter_value_absent () =
  Alcotest.(check int) "missing name reads 0" 0
    (Obs.counter_value (Obs.snapshot ()) "test.never_registered")

let test_distribution () =
  Obs.reset ();
  let d = Obs.distribution "test.dist" in
  List.iter (Obs.observe d) [ 3.; -1.; 7.; 2. ];
  let snap = Obs.snapshot () in
  let stats = List.assoc "test.dist" snap.Obs.distributions in
  Alcotest.(check int) "count" 4 stats.Obs.count;
  Alcotest.(check (float 1e-9)) "sum" 11. stats.Obs.sum;
  Alcotest.(check (float 1e-9)) "min" (-1.) stats.Obs.min;
  Alcotest.(check (float 1e-9)) "max" 7. stats.Obs.max;
  Obs.reset ();
  let stats = List.assoc "test.dist" (Obs.snapshot ()).Obs.distributions in
  Alcotest.(check int) "reset count" 0 stats.Obs.count

(* --- spans --- *)

let test_span_nesting_depth () =
  Obs.reset ();
  Alcotest.(check int) "depth 0 outside" 0 (Obs.depth ());
  let inner_depth = ref (-1) and outer_depth = ref (-1) in
  let result =
    Obs.span "test.outer" (fun () ->
        outer_depth := Obs.depth ();
        Obs.span "test.inner" (fun () -> inner_depth := Obs.depth ());
        17)
  in
  Alcotest.(check int) "span returns the body's value" 17 result;
  Alcotest.(check int) "depth 1 inside outer" 1 !outer_depth;
  Alcotest.(check int) "depth 2 inside inner" 2 !inner_depth;
  Alcotest.(check int) "depth restored" 0 (Obs.depth ())

let test_span_aggregation () =
  Obs.reset ();
  for _ = 1 to 3 do
    Obs.span "test.agg" (fun () -> ())
  done;
  let snap = Obs.snapshot () in
  let s = List.assoc "test.agg" snap.Obs.spans in
  Alcotest.(check int) "3 calls" 3 s.Obs.calls;
  Alcotest.(check bool) "total >= 0" true (s.Obs.total >= 0.);
  Alcotest.(check bool) "slowest <= total" true (s.Obs.slowest <= s.Obs.total +. 1e-12)

let test_span_exception_safety () =
  Obs.reset ();
  (try Obs.span "test.raise" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "depth restored after raise" 0 (Obs.depth ());
  let s = List.assoc "test.raise" (Obs.snapshot ()).Obs.spans in
  Alcotest.(check int) "raising call still recorded" 1 s.Obs.calls

(* --- NDJSON sink --- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_ndjson_sink () =
  Obs.reset ();
  let path = Filename.temp_file "obs_test" ".ndjson" in
  Obs.set_sink (Obs.file_sink path);
  Alcotest.(check bool) "tracing on" true (Obs.tracing ());
  let c = Obs.counter "test.traced \"name\"" in
  Obs.incr c;
  Obs.span "test.span" (fun () -> Obs.sample c);
  Obs.close_sink ();
  Alcotest.(check bool) "tracing off after close" false (Obs.tracing ());
  let lines = read_lines path in
  Alcotest.(check bool) "several events written" true (List.length lines >= 3);
  List.iter (check_valid_json "trace line") lines;
  let has needle =
    List.exists
      (fun line ->
        (* substring search *)
        let ln = String.length needle in
        let rec at i =
          i + ln <= String.length line
          && (String.sub line i ln = needle || at (i + 1))
        in
        at 0)
      lines
  in
  Alcotest.(check bool) "span_begin present" true (has "\"span_begin\"");
  Alcotest.(check bool) "span_end present" true (has "\"span_end\"");
  Alcotest.(check bool) "counter sample present" true (has "\"counter\"");
  Alcotest.(check bool) "escaped counter name present" true
    (has "\"test.traced \\\"name\\\"\"");
  Sys.remove path

let test_ndjson_timestamps_monotonic () =
  Obs.reset ();
  let path = Filename.temp_file "obs_test_t" ".ndjson" in
  Obs.set_sink (Obs.file_sink path);
  for _ = 1 to 5 do
    Obs.span "test.t" (fun () -> ())
  done;
  Obs.close_sink ();
  (* crude extraction of the "t": field from each line *)
  let t_of line =
    let key = "\"t\":" in
    let ln = String.length key in
    let rec find i =
      if i + ln > String.length line then None
      else if String.sub line i ln = key then Some (i + ln)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
        let stop = ref start in
        while
          !stop < String.length line
          && (match line.[!stop] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr stop
        done;
        Some (float_of_string (String.sub line start (!stop - start)))
  in
  let ts = List.filter_map t_of (read_lines path) in
  Alcotest.(check bool) "timestamps extracted" true (List.length ts >= 10);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true (nondecreasing ts);
  Alcotest.(check bool) "timestamps non-negative" true
    (List.for_all (fun t -> t >= 0.) ts);
  Sys.remove path

let test_disabled_sink_allocates_nothing () =
  Obs.reset ();
  Alcotest.(check bool) "null sink by default" false (Obs.tracing ());
  let c = Obs.counter "test.hot" in
  (* Warm up so the counter exists and the code paths are compiled in. *)
  Obs.incr c;
  let before = Gc.allocated_bytes () in
  for _ = 1 to 10_000 do
    Obs.incr c
  done;
  let after = Gc.allocated_bytes () in
  (* The two allocated_bytes calls box a float each; the 10k increments
     themselves must allocate nothing. *)
  Alcotest.(check bool) "incr with null sink allocates no events" true
    (after -. before < 256.);
  Alcotest.(check int) "increments happened" 10_001 (Obs.value c)

let test_snapshot_json () =
  Obs.reset ();
  let c = Obs.counter "test.json" in
  Obs.add c 42;
  Obs.observe (Obs.distribution "test.json_dist") 1.5;
  Obs.span "test.json_span" (fun () -> ());
  let json = Json.print (Obs.json_of_snapshot (Obs.snapshot ())) in
  check_valid_json "snapshot" json

(* --- domain safety --- *)

let test_counter_concurrent_increments () =
  Obs.reset ();
  let c = Obs.counter "test.concurrent" in
  let domains = 4 and per_domain = 25_000 in
  let worker () =
    for _ = 1 to per_domain do
      Obs.incr c
    done
  in
  let spawned = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join spawned;
  (* Atomic increments commute: the total is exact, not approximate. *)
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Obs.value c)

let test_domain_tagging () =
  Obs.reset ();
  Alcotest.(check int) "main domain is lane 0" 0 (Obs.domain_lane ());
  Alcotest.(check int) "lane is sticky" (Obs.domain_lane ())
    (Obs.domain_lane ());
  let path = Filename.temp_file "obs_test_dom" ".ndjson" in
  Obs.set_sink (Obs.file_sink path);
  Obs.span "test.main_side" (fun () -> ());
  let worker_lane =
    Domain.join
      (Domain.spawn (fun () ->
           Obs.span "test.worker_side" (fun () -> ());
           Obs.domain_lane ()))
  in
  Obs.close_sink ();
  Alcotest.(check bool) "worker claims a distinct lane" true (worker_lane > 0);
  let lines = read_lines path in
  Sys.remove path;
  let dom_of line =
    (* every event line ends ...,"dom":N} *)
    match String.rindex_opt line ':' with
    | Some i ->
        int_of_string (String.sub line (i + 1) (String.length line - i - 2))
    | None -> Alcotest.failf "no dom field in %s" line
  in
  let has_sub line needle =
    let ln = String.length needle in
    let rec at i =
      i + ln <= String.length line
      && (String.sub line i ln = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun line ->
      if has_sub line "test.main_side" then
        Alcotest.(check int) "main events tagged dom 0" 0 (dom_of line)
      else if has_sub line "test.worker_side" then
        Alcotest.(check int) "worker events tagged with its lane" worker_lane
          (dom_of line))
    lines;
  Alcotest.(check bool) "every line carries a dom field" true
    (List.for_all (fun l -> has_sub l "\"dom\":") lines)

(* --- pipeline integration: the §4.2 invariant --- *)

let test_densities_once_per_net () =
  Obs.reset ();
  let pt = Power.Model.table Cell.Process.default in
  let dt = Delay.Elmore.table Cell.Process.default in
  let circuit = Circuits.Suite.find "rca4" in
  let inputs _net = Stoch.Signal_stats.make ~prob:0.5 ~density:1e5 in
  let gates = Netlist.Circuit.gate_count circuit in
  Obs.reset ();
  let (_ : Power.Analysis.t) = Power.Analysis.run pt circuit ~inputs in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "analysis propagates each gate's density once" gates
    (Obs.counter_value snap "power.densities_propagated");
  (* On a fresh table the analysis compiles each distinct (cell,
     pin-groups) key of the circuit once, every configuration of its
     cell at once, so the sweep after it builds nothing. *)
  let keys = Hashtbl.create 16 in
  for g = 0 to gates - 1 do
    let gate = Netlist.Circuit.gate_at circuit g in
    let cell = gate.Netlist.Circuit.cell in
    Hashtbl.replace keys
      (Cell.Gate.name cell, Power.Model.groups_of_nets gate.Netlist.Circuit.fanins)
      (Cell.Gate.config_count cell)
  done;
  Alcotest.(check int) "analysis builds every configuration of each key"
    (Hashtbl.fold (fun _ configs n -> n + configs) keys 0)
    (Obs.counter_value snap "power.model_build");
  (* The whole greedy optimization still needs exactly one propagation
     per net: statistics are configuration-independent (§4.2). *)
  Obs.reset ();
  let (_ : Reorder.Optimizer.report) =
    Reorder.Optimizer.optimize pt ~delay:dt circuit ~inputs
  in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "optimize propagates each density exactly once" gates
    (Obs.counter_value snap "power.densities_propagated");
  Alcotest.(check bool) "gates visited" true
    (Obs.counter_value snap "optimizer.gates_visited" = gates);
  Alcotest.(check bool) "configurations explored" true
    (Obs.counter_value snap "optimizer.configs_explored" > 0);
  Alcotest.(check int) "optimize after the analysis builds nothing" 0
    (Obs.counter_value snap "power.model_build");
  Alcotest.(check bool) "at least one model lookup per gate" true
    (Obs.counter_value snap "power.model_hit" >= gates)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics + reset" `Quick test_counter_basics;
          Alcotest.test_case "absent counter reads 0" `Quick
            test_counter_value_absent;
          Alcotest.test_case "distribution stats" `Quick test_distribution;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting depth" `Quick test_span_nesting_depth;
          Alcotest.test_case "aggregation" `Quick test_span_aggregation;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ( "trace",
        [
          Alcotest.test_case "NDJSON lines are valid JSON" `Quick
            test_ndjson_sink;
          Alcotest.test_case "timestamps monotonic" `Quick
            test_ndjson_timestamps_monotonic;
          Alcotest.test_case "disabled sink allocates nothing" `Quick
            test_disabled_sink_allocates_nothing;
          Alcotest.test_case "snapshot JSON valid" `Quick test_snapshot_json;
        ] );
      ( "domains",
        [
          Alcotest.test_case "concurrent counter increments exact" `Quick
            test_counter_concurrent_increments;
          Alcotest.test_case "events tagged with domain lanes" `Quick
            test_domain_tagging;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "densities computed once per net (4.2)" `Quick
            test_densities_once_per_net;
        ] );
    ]
