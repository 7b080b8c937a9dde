(* Tests for the trace-analysis side of lib/obs: the NDJSON parser
   (round-trip against what Obs.file_sink writes), span-tree
   aggregation, Chrome trace-event export, distribution quantiles, and
   the bench regression gate (Regress). *)

module J = Trace.Json

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* --- Json reader --- *)

let test_json_parse () =
  (match ok (J.parse {|{"a":[1,2.5,-3e2],"b":"x\n\"y\"","c":null,"d":true}|}) with
  | J.Obj fields ->
      Alcotest.(check (option (float 1e-9))) "num" (Some 2.5)
        (match List.assoc "a" fields with
        | J.Arr [ _; x; _ ] -> J.to_float x
        | _ -> None);
      Alcotest.(check (option string)) "escaped string" (Some "x\n\"y\"")
        (J.to_string (List.assoc "b" fields));
      Alcotest.(check bool) "null" true (List.assoc "c" fields = J.Null);
      Alcotest.(check bool) "bool" true (List.assoc "d" fields = J.Bool true)
  | _ -> Alcotest.fail "expected an object");
  (match J.parse "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  match J.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_json_escape_roundtrip () =
  let strings =
    [ "plain"; "with \"quotes\""; "tab\there\nand newline"; "ctrl \001"; "" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        ("escape round-trips " ^ String.escaped s)
        (Some s)
        (J.to_string (ok (J.parse (Obs.json_string s)))))
    strings

(* --- Json printer --- *)

(* The printer's numbers must be Printf's "%.17g", byte for byte. *)
let test_number_format () =
  let rng = Random.State.make [| 17 |] in
  let seeded =
    List.init 200_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 rng))
    |> List.filter Float.is_finite
  in
  let tiny = Int64.float_of_bits 1L in
  let edges =
    [
      0.; -0.; tiny; -.tiny; Float.min_float; Float.min_float /. 3.;
      -.Float.min_float; Float.max_float; -.Float.max_float; Float.epsilon;
      0.1; 1e21; 1e-7; 1. /. 3.;
    ]
  in
  let ints =
    List.concat
      (List.init 54 (fun k ->
           let p = Float.ldexp 1. k in
           [ p; p -. 1.; -.p ]))
    @ List.init 1000 (fun _ ->
          Int64.to_float
            (Random.State.int64 rng (Int64.add (Int64.shift_left 1L 53) 1L)))
  in
  List.iter
    (fun x ->
      let expected = Printf.sprintf "%.17g" x in
      let got = J.print (J.Num x) in
      if got <> expected then
        Alcotest.failf "%h printed %s, Printf gives %s" x got expected)
    (edges @ ints @ seeded);
  List.iter
    (fun n ->
      Alcotest.(check string) "int digits" (string_of_int n)
        (J.print (J.int n)))
    [ 0; 1; -1; 42; max_int land ((1 lsl 53) - 1); -(1 lsl 53); 1 lsl 53 ]

let test_non_finite_raises () =
  List.iter
    (fun x ->
      let doc = J.Obj [ ("ok", J.Num 1.); ("bad", J.Arr [ J.Num x ]) ] in
      match J.print doc with
      | s -> Alcotest.failf "%h printed as %s" x s
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            ("the error names the key: " ^ msg)
            true (contains msg "\"bad\""))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Structural equality, floats compared bit for bit (so -0 is not 0). *)
let rec same a b =
  match (a, b) with
  | J.Num x, J.Num y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Arr xs, J.Arr ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let gen_json =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (2, oneofl [ '"'; '\\'; '/' ]);
        (2, char_range '\000' '\031');
        (4, char_range ' ' '~');
        (1, char_range '\128' '\255');
      ]
  in
  let str = string_size ~gen:byte (int_range 0 10) in
  let finite =
    map
      (fun bits ->
        let x = Int64.float_of_bits bits in
        if Float.is_finite x then x else Int64.to_float bits)
      ui64
  in
  let leaf =
    frequency
      [
        (1, return J.Null);
        (1, map (fun b -> J.Bool b) bool);
        (4, map (fun x -> J.Num x) finite);
        (1, map (fun n -> J.int n) int);
        (3, map (fun s -> J.Str s) str);
      ]
  in
  let tree =
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 2,
                map
                  (fun l -> J.Arr l)
                  (list_size (int_range 0 4) (self (depth - 1))) );
              ( 2,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
            ])
      5
  in
  (* A spine of up to 300 alternating arrays and objects around each
     tree, for nesting far deeper than any document the tool writes. *)
  let rec nest k v =
    if k = 0 then v
    else nest (k - 1) (if k mod 2 = 0 then J.Arr [ v ] else J.Obj [ ("k", v) ])
  in
  map2 nest (int_range 0 300) tree

let prop_roundtrip =
  QCheck.Test.make ~name:"print -> parse round-trips, floats bit-exact"
    ~count:500
    (QCheck.make ~print:J.print gen_json)
    (fun v ->
      (match J.parse (J.print v) with Ok w -> same v w | Error _ -> false)
      && J.print_streaming [ ("a", v) ] "k" (List.to_seq [ v; v ])
         = J.print (J.Obj [ ("a", v); ("k", J.Arr [ v; v ]) ]))

(* --- NDJSON round-trip: what Obs writes, Trace reads --- *)

let with_trace f =
  Obs.reset ();
  let path = Filename.temp_file "trace_test" ".ndjson" in
  Obs.set_sink (Obs.file_sink path);
  f ();
  Obs.close_sink ();
  let events = ok (Trace.load path) in
  Sys.remove path;
  events

let count pred events = List.length (List.filter pred events)

let test_roundtrip () =
  let c = Obs.counter "test.trace_rt" in
  let events =
    with_trace (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () ->
                Obs.incr c;
                Obs.sample c);
            Obs.span "inner" (fun () -> ()));
        Obs.span "second" (fun () -> ()))
  in
  Alcotest.(check int) "4 span_begin events" 4
    (count (function Trace.Span_begin _ -> true | _ -> false) events);
  Alcotest.(check int) "4 span_end events" 4
    (count (function Trace.Span_end _ -> true | _ -> false) events);
  Alcotest.(check bool) "counter events present" true
    (count (function Trace.Counter _ -> true | _ -> false) events > 0);
  Alcotest.(check (option int)) "final counter value" (Some 1)
    (List.assoc_opt "test.trace_rt" (Trace.final_counters events));
  (* Every span_end carries a non-negative duration consistent with its
     timestamps. *)
  List.iter
    (function
      | Trace.Span_end { dt; _ } ->
          Alcotest.(check bool) "dt >= 0" true (dt >= 0.)
      | _ -> ())
    events

let find_child tree name =
  List.find_opt (fun (t : Trace.tree) -> t.Trace.name = name) tree.Trace.children

let test_span_tree () =
  let events =
    with_trace (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ());
            Obs.span "inner" (fun () -> ()));
        Obs.span "second" (fun () -> ()))
  in
  let root = Trace.span_tree events in
  Alcotest.(check string) "synthetic root" "" root.Trace.name;
  Alcotest.(check (list string)) "top-level children sorted"
    [ "outer"; "second" ]
    (List.map (fun (t : Trace.tree) -> t.Trace.name) root.Trace.children);
  let outer = Option.get (find_child root "outer") in
  Alcotest.(check int) "outer called once" 1 outer.Trace.calls;
  let inner = Option.get (find_child outer "inner") in
  Alcotest.(check int) "both inner calls aggregated by path" 2
    inner.Trace.calls;
  Alcotest.(check (float 1e-9)) "self + children = total" outer.Trace.total
    (outer.Trace.self
    +. List.fold_left
         (fun acc (t : Trace.tree) -> acc +. t.Trace.total)
         0. outer.Trace.children);
  let second = Option.get (find_child root "second") in
  Alcotest.(check (float 1e-9)) "root total sums the top level"
    (outer.Trace.total +. second.Trace.total)
    root.Trace.total;
  (* Rendering mentions every path and the synthetic total line. *)
  let rendered = Trace.render_tree root in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (contains rendered needle))
    [ "(trace total)"; "outer"; "inner"; "second" ]

let test_truncated_trace () =
  let events =
    ok
      (Trace.events_of_string
         ({|{"ev":"span_begin","name":"a","t":0.0,"depth":1}|} ^ "\n"
        ^ {|{"ev":"span_end","name":"a","t":1.0,"depth":1,"dt":1.0}|} ^ "\n\n"
        ^ {|{"ev":"span_begin","name":"b","t":2.0,"depth":1}|} ^ "\n"))
  in
  Alcotest.(check int) "blank lines skipped, 3 events" 3 (List.length events);
  let root = Trace.span_tree events in
  Alcotest.(check (list string)) "open span dropped" [ "a" ]
    (List.map (fun (t : Trace.tree) -> t.Trace.name) root.Trace.children);
  Alcotest.(check (float 1e-9)) "completed span keeps its time" 1.0
    root.Trace.total

let test_parse_errors () =
  (match
     Trace.events_of_string
       ({|{"ev":"span_begin","name":"a","t":0.0,"depth":1}|} ^ "\nnot json\n")
   with
  | Error msg ->
      Alcotest.(check bool) "error names line 2" true (contains msg "2")
  | Ok _ -> Alcotest.fail "malformed line accepted");
  match Trace.event_of_line {|{"ev":"mystery","name":"x","t":0}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown event kind accepted"

let test_chrome_export () =
  let events =
    with_trace (fun () ->
        let c = Obs.counter "test.chrome" in
        Obs.span "outer" (fun () ->
            Obs.incr c;
            Obs.sample c))
  in
  let doc = ok (J.parse (Trace.to_chrome events)) in
  match J.member "traceEvents" doc with
  | Some (J.Arr traced) ->
      let phase e = Option.bind (J.member "ph" e) J.to_string in
      let with_phase p = List.filter (fun e -> phase e = Some p) traced in
      Alcotest.(check int) "one B per span_begin"
        (count (function Trace.Span_begin _ -> true | _ -> false) events)
        (List.length (with_phase "B"));
      Alcotest.(check int) "one E per span_end"
        (count (function Trace.Span_end _ -> true | _ -> false) events)
        (List.length (with_phase "E"));
      Alcotest.(check int) "one C per counter sample"
        (count (function Trace.Counter _ -> true | _ -> false) events)
        (List.length (with_phase "C"));
      List.iter
        (fun e ->
          Alcotest.(check bool) "microsecond timestamps present" true
            (Option.is_some (Option.bind (J.member "ts" e) J.to_float)))
        traced
  | _ -> Alcotest.fail "no traceEvents array"

let test_domain_lanes () =
  (* Traces written before domain tagging have no "dom" field: they
     parse as domain 0. *)
  (match ok (Trace.event_of_line {|{"ev":"span_begin","name":"a","t":0.0,"depth":1}|}) with
  | Trace.Span_begin { dom; _ } ->
      Alcotest.(check int) "missing dom reads 0" 0 dom
  | _ -> Alcotest.fail "expected span_begin");
  let lines =
    {|{"ev":"span_begin","name":"coord","t":0.0,"depth":1,"dom":0}|} ^ "\n"
    ^ {|{"ev":"span_begin","name":"par.task","t":0.1,"depth":1,"dom":2}|} ^ "\n"
    ^ {|{"ev":"span_end","name":"par.task","t":0.2,"depth":1,"dt":0.1,"dom":2}|}
    ^ "\n"
    ^ {|{"ev":"counter","name":"c","t":0.25,"value":3,"dom":2}|} ^ "\n"
    ^ {|{"ev":"span_end","name":"coord","t":0.3,"depth":1,"dt":0.3,"dom":0}|}
    ^ "\n"
  in
  let events = ok (Trace.events_of_string lines) in
  (* The two spans overlap in time but live on different domains: each
     domain keeps its own stack, so neither nests under the other. *)
  let root = Trace.span_tree events in
  Alcotest.(check (list string)) "per-domain span stacks" [ "coord"; "par.task" ]
    (List.sort compare
       (List.map (fun (t : Trace.tree) -> t.Trace.name) root.Trace.children));
  (* Chrome export renders one lane per domain: tid = dom + 1. *)
  let doc = ok (J.parse (Trace.to_chrome events)) in
  match J.member "traceEvents" doc with
  | Some (J.Arr traced) ->
      let tids =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> Option.bind (J.member "tid" e) J.to_float)
             traced)
      in
      Alcotest.(check (list (float 1e-9))) "one lane per domain" [ 1.; 3. ] tids
  | _ -> Alcotest.fail "no traceEvents array"

(* --- distribution quantiles (nearest-rank) --- *)

let dist_stats_of values =
  Obs.reset ();
  let d = Obs.distribution "test.quantiles" in
  List.iter (Obs.observe d) values;
  List.assoc "test.quantiles" (Obs.snapshot ()).Obs.distributions

let test_quantiles_100 () =
  let s = dist_stats_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check int) "count" 100 s.Obs.count;
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50. s.Obs.p50;
  Alcotest.(check (float 1e-9)) "p90 of 1..100" 90. s.Obs.p90;
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99. s.Obs.p99;
  Alcotest.(check (float 1e-9)) "min" 1. s.Obs.min;
  Alcotest.(check (float 1e-9)) "max" 100. s.Obs.max

let test_quantiles_small () =
  let s = dist_stats_of [ 42. ] in
  Alcotest.(check (float 1e-9)) "single sample p50" 42. s.Obs.p50;
  Alcotest.(check (float 1e-9)) "single sample p99" 42. s.Obs.p99;
  (* Order independence: quantiles sort, min/max track extremes. *)
  let s = dist_stats_of [ 5.; 1.; 9.; 3. ] in
  Alcotest.(check (float 1e-9)) "p50 = 2nd of 4 sorted" 3. s.Obs.p50;
  Alcotest.(check (float 1e-9)) "p90 = 4th of 4 sorted" 9. s.Obs.p90;
  let s = dist_stats_of [] in
  Alcotest.(check (float 1e-9)) "empty p50 reads 0" 0. s.Obs.p50

(* --- the regression gate --- *)

let doc ~seconds ~hits ~span_total =
  Printf.sprintf
    {|{"targets":[{"name":"t1","seconds":%g,"metrics":{"counters":{"bdd.memo_hit":%g,"only.in.this.doc":1},"distributions":{},"spans":{"optimize.run":{"calls":1,"total_s":%g,"slowest_s":%g}},"gc":{"minor_words":0,"major_words":0}}}]}|}
    seconds hits span_total span_total

let targets ~seconds ~hits ~span_total =
  ok (Regress.targets_of_json (ok (J.parse (doc ~seconds ~hits ~span_total))))

let test_regress_parse () =
  match targets ~seconds:1.5 ~hits:100. ~span_total:0.5 with
  | [ t ] ->
      Alcotest.(check string) "name" "t1" t.Regress.name;
      Alcotest.(check (float 1e-9)) "seconds" 1.5 t.Regress.seconds;
      Alcotest.(check (option (float 1e-9))) "counter" (Some 100.)
        (List.assoc_opt "bdd.memo_hit" t.Regress.counters);
      Alcotest.(check (option (float 1e-9))) "span total" (Some 0.5)
        (List.assoc_opt "optimize.run" t.Regress.spans)
  | l -> Alcotest.failf "expected 1 target, got %d" (List.length l)

let test_regress_self_compare () =
  let t = targets ~seconds:1.5 ~hits:100. ~span_total:0.5 in
  Alcotest.(check int) "identical documents pass" 0
    (List.length (Regress.compare Regress.default_tolerance ~baseline:t ~current:t));
  Alcotest.(check (list string)) "one target compared" [ "t1" ]
    (Regress.compared_targets ~baseline:t ~current:t)

let test_regress_counter_violation () =
  let base = targets ~seconds:1.0 ~hits:1000. ~span_total:0.5 in
  let jumped = targets ~seconds:1.0 ~hits:1200. ~span_total:0.5 in
  let tol = { Regress.default_tolerance with Regress.check_time = false } in
  (match Regress.compare tol ~baseline:base ~current:jumped with
  | [ v ] ->
      Alcotest.(check string) "counter named" "counter bdd.memo_hit"
        v.Regress.metric;
      Alcotest.(check bool) "rendered" true
        (contains (Regress.render [ v ]) "bdd.memo_hit")
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
  (* Two-sided: an unexplained drop also fails. *)
  (match Regress.compare tol ~baseline:jumped ~current:base with
  | [ _ ] -> ()
  | l -> Alcotest.failf "drop: expected 1 violation, got %d" (List.length l));
  (* Within tolerance passes. *)
  let close = targets ~seconds:1.0 ~hits:1050. ~span_total:0.5 in
  Alcotest.(check int) "5% drift within 10% tolerance" 0
    (List.length (Regress.compare tol ~baseline:base ~current:close))

let test_regress_time_violation () =
  let base = targets ~seconds:1.0 ~hits:100. ~span_total:0.5 in
  let slow = targets ~seconds:2.0 ~hits:100. ~span_total:1.5 in
  let v = Regress.compare Regress.default_tolerance ~baseline:base ~current:slow in
  Alcotest.(check (list string)) "slowdown flagged on both clocks"
    [ "seconds"; "span optimize.run" ]
    (List.map (fun v -> v.Regress.metric) v);
  (* One-sided: getting faster is never a violation. *)
  Alcotest.(check int) "speedup passes" 0
    (List.length
       (Regress.compare Regress.default_tolerance ~baseline:slow ~current:base));
  (* check_time = false ignores both. *)
  let tol = { Regress.default_tolerance with Regress.check_time = false } in
  Alcotest.(check int) "--no-time ignores clocks" 0
    (List.length (Regress.compare tol ~baseline:base ~current:slow))

let test_regress_join_semantics () =
  let base = targets ~seconds:1.0 ~hits:100. ~span_total:0.5 in
  let extra =
    ok
      (Regress.targets_of_json
         (ok
            (J.parse
               {|{"targets":[{"name":"t1","seconds":1.0,"metrics":{"counters":{"bdd.memo_hit":100,"brand.new.counter":5000},"distributions":{},"spans":{},"gc":{}}},{"name":"t2","seconds":9.0,"metrics":{"counters":{"x":1},"distributions":{},"spans":{},"gc":{}}}]}|})))
  in
  let tol = { Regress.default_tolerance with Regress.check_time = false } in
  Alcotest.(check int) "new counters and targets are ignored" 0
    (List.length (Regress.compare tol ~baseline:base ~current:extra));
  Alcotest.(check (list string)) "only the shared target is compared" [ "t1" ]
    (Regress.compared_targets ~baseline:base ~current:extra)

let test_regress_bad_document () =
  (match Regress.targets_of_json (ok (J.parse "{\"nope\":1}")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "document without targets accepted");
  match Regress.load "/nonexistent/path/bench.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "reader" `Quick test_json_parse;
          Alcotest.test_case "escape round-trip" `Quick
            test_json_escape_roundtrip;
          Alcotest.test_case "numbers print as Printf's %.17g" `Quick
            test_number_format;
          Alcotest.test_case "non-finite numbers raise" `Quick
            test_non_finite_raises;
          Property.to_alcotest prop_roundtrip;
        ] );
      ( "ndjson",
        [
          Alcotest.test_case "sink -> parser round-trip" `Quick test_roundtrip;
          Alcotest.test_case "span tree" `Quick test_span_tree;
          Alcotest.test_case "truncated trace" `Quick test_truncated_trace;
          Alcotest.test_case "parse errors name the line" `Quick
            test_parse_errors;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "domain lanes" `Quick test_domain_lanes;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "1..100" `Quick test_quantiles_100;
          Alcotest.test_case "small and empty samples" `Quick
            test_quantiles_small;
        ] );
      ( "regress",
        [
          Alcotest.test_case "BENCH_obs parsing" `Quick test_regress_parse;
          Alcotest.test_case "self-comparison passes" `Quick
            test_regress_self_compare;
          Alcotest.test_case "counter drift two-sided" `Quick
            test_regress_counter_violation;
          Alcotest.test_case "slowdown one-sided" `Quick
            test_regress_time_violation;
          Alcotest.test_case "inner-join semantics" `Quick
            test_regress_join_semantics;
          Alcotest.test_case "malformed documents" `Quick
            test_regress_bad_document;
        ] );
    ]
