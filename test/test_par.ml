(* Tests for the fixed domain pool: map equivalence with Array.map
   across jobs/chunk settings, pool reuse, map_reduce submission-order
   combining, deterministic exception propagation, nested-use and
   use-after-shutdown rejection, the per-domain scheduling telemetry
   flushed at shutdown, TREORDER_JOBS parsing, and the optimizer's
   pooled sweep against its inline one. *)

module P = Par.Pool

let ints = Alcotest.(array int)

let test_map_matches_array_map () =
  let xs = Array.init 103 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs @@ fun p ->
      Alcotest.(check int) "jobs recorded" jobs (P.jobs p);
      List.iter
        (fun chunk ->
          Alcotest.check ints
            (Printf.sprintf "jobs=%d chunk=%s" jobs
               (match chunk with None -> "auto" | Some c -> string_of_int c))
            expected
            (P.map ?chunk p f xs))
        [ None; Some 1; Some 7; Some 1000 ])
    [ 1; 2; 4 ]

let test_map_empty_and_reuse () =
  P.with_pool ~jobs:3 @@ fun p ->
  Alcotest.check ints "empty input" [||] (P.map p (fun x -> x) [||]);
  (* Many batches through one pool: workers must survive between maps. *)
  for round = 1 to 20 do
    let xs = Array.init round (fun i -> i) in
    Alcotest.check ints
      (Printf.sprintf "round %d" round)
      (Array.map succ xs) (P.map p succ xs)
  done

let test_map_reduce_submission_order () =
  (* String concatenation is not commutative, so any out-of-order
     combine changes the result. *)
  let xs = Array.init 57 (fun i -> i) in
  let expected =
    Array.fold_left
      (fun acc x -> acc ^ string_of_int x ^ ";")
      "" (Array.map succ xs)
  in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs @@ fun p ->
      let got =
        P.map_reduce ~chunk:3 p
          ~map:(fun x -> succ x)
          ~combine:(fun acc x -> acc ^ string_of_int x ^ ";")
          ~init:"" xs
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d" jobs)
        expected got)
    [ 1; 2; 4 ]

exception Boom of int

let test_exception_propagation () =
  P.with_pool ~jobs:4 @@ fun p ->
  let xs = Array.init 40 (fun i -> i) in
  (* Several elements raise; the re-raised exception must be the one
     from the lowest chunk index, whatever order workers hit them. *)
  let f x = if x = 7 || x = 23 || x = 31 then raise (Boom x) else x in
  (match P.map ~chunk:1 p f xs with
  | _ -> Alcotest.fail "map over a raising function returned"
  | exception Boom x -> Alcotest.(check int) "lowest failing chunk wins" 7 x);
  (* The pool is still usable after a failed batch. *)
  Alcotest.check ints "pool survives the failure" (Array.map succ xs)
    (P.map p succ xs)

let test_nested_use_rejected () =
  P.with_pool ~jobs:2 @@ fun p ->
  let saw = ref None in
  (try
     ignore
       (P.map p
          (fun _ ->
            match P.map p succ [| 1 |] with
            | _ -> ()
            | exception Invalid_argument m -> saw := Some m)
          [| 0 |])
   with Invalid_argument m -> saw := Some m);
  match !saw with
  | Some m ->
      Alcotest.(check bool) "mentions nesting" true
        (String.length m > 0
        && String.sub m 0 (String.length "Par.Pool.map: nested")
           = "Par.Pool.map: nested")
  | None -> Alcotest.fail "nested map from inside a task was not rejected"

let test_shutdown () =
  let p = P.create ~jobs:2 () in
  Alcotest.check ints "works before shutdown" [| 2; 3 |]
    (P.map p succ [| 1; 2 |]);
  P.shutdown p;
  P.shutdown p (* idempotent *);
  (match P.map p succ [| 1 |] with
  | _ -> Alcotest.fail "map on a shut-down pool returned"
  | exception Invalid_argument _ -> ());
  Alcotest.check_raises "create rejects jobs < 1"
    (Invalid_argument "Par.Pool.create: jobs must be >= 1") (fun () ->
      ignore (P.create ~jobs:0 ()))

let test_pool_telemetry () =
  Obs.reset ();
  let p = P.create ~jobs:3 () in
  let xs = Array.init 100 (fun i -> i) in
  (* Enough work per task that busy time clears the clock resolution. *)
  let f x =
    let acc = ref 0. in
    for i = 1 to 50_000 do
      acc := !acc +. (1. /. float_of_int i)
    done;
    x + int_of_float (!acc *. 0.)
  in
  ignore (P.map ~chunk:8 p f xs);
  P.shutdown p;
  let chunks = 13 (* ceil 100/8 *) in
  let value name = Obs.value (Obs.counter name) in
  let sum per_slot = per_slot 0 + per_slot 1 + per_slot 2 in
  Alcotest.(check int) "every chunk attributed to a slot" chunks
    (sum (fun d -> value (Printf.sprintf "par.domain_tasks.%d" d)));
  Alcotest.(check bool) "busy time recorded" true
    (sum (fun d -> value (Printf.sprintf "par.domain_busy_ns.%d" d)) > 0);
  let snap = Obs.snapshot () in
  let dist name = List.assoc_opt name snap.Obs.distributions in
  (match dist "par.chunk_size" with
  | Some d ->
      Alcotest.(check int) "one observation per chunk" chunks d.Obs.count;
      Alcotest.(check (float 1e-9)) "largest chunk" 8. d.Obs.max;
      Alcotest.(check (float 1e-9)) "tail chunk" 4. d.Obs.min
  | None -> Alcotest.fail "par.chunk_size not observed");
  (match dist "par.imbalance" with
  | Some d ->
      Alcotest.(check int) "imbalance observed once at shutdown" 1 d.Obs.count;
      Alcotest.(check bool) "max/mean busy >= 1" true (d.Obs.max >= 1.)
  | None -> Alcotest.fail "par.imbalance not observed");
  (* Sequential pools run inline and publish no scheduling telemetry. *)
  Obs.reset ();
  P.with_pool ~jobs:1 (fun q -> ignore (P.map q succ xs));
  Alcotest.(check int) "jobs=1 flushes nothing" 0
    (value "par.domain_tasks.0")

let test_default_jobs_env () =
  let with_env value f =
    let saved = Sys.getenv_opt "TREORDER_JOBS" in
    Unix.putenv "TREORDER_JOBS" value;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "TREORDER_JOBS" (Option.value saved ~default:""))
      f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "TREORDER_JOBS honoured" 3 (P.default_jobs ()));
  with_env "0" (fun () ->
      Alcotest.(check bool) "non-positive ignored" true (P.default_jobs () >= 1));
  with_env "nope" (fun () ->
      Alcotest.(check bool) "garbage ignored" true (P.default_jobs () >= 1))

(* The optimizer's pooled sweep against its inline one, each on a fresh
   table, on a circuit that ties one net to two pins of some gates: the
   same report, and the same power-model and BDD counters, because every
   program is resolved on the calling domain in sweep order and the
   workers only evaluate them. *)
let test_pooled_optimize () =
  let module C = Netlist.Circuit in
  let module O = Reorder.Optimizer in
  let proc = Cell.Process.default in
  let circuit = Circuits.Generators.random_logic ~seed:5 ~inputs:24 ~gates:300 in
  Alcotest.(check bool) "some gate ties one net to two pins" true
    (Array.exists
       (fun (gate : C.gate) ->
         Array.exists2 ( <> ) (Power.Model.groups_of_nets gate.C.fanins)
           (Array.init (Array.length gate.C.fanins) Fun.id))
       (C.gates circuit));
  let inputs =
    Power.Scenario.input_stats ~rng:(Stoch.Rng.create 9) Power.Scenario.A circuit
  in
  let model_counters () =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"power." name
        || String.starts_with ~prefix:"bdd." name)
      (Obs.snapshot ()).Obs.counters
  in
  let bits = Int64.bits_of_float in
  let run ?pool ~objective ~input_only () =
    Obs.reset ();
    let r =
      O.optimize (Power.Model.table proc) ~delay:(Delay.Elmore.table proc)
        ~objective ~input_reordering_only:input_only ?pool circuit ~inputs
    in
    ( ( r.O.configs,
        bits r.O.power_before,
        bits r.O.power_after,
        r.O.gates_changed,
        r.O.configurations_explored ),
      model_counters (),
      Obs.value (Obs.counter "optimizer.parallel_levels") )
  in
  P.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun (what, objective, input_only) ->
      let inline, inline_counters, _ = run ~objective ~input_only () in
      let pooled, pooled_counters, levels = run ~pool ~objective ~input_only () in
      Alcotest.(check bool) (what ^ ": levels ran on the pool") true (levels > 0);
      Alcotest.(check bool) (what ^ ": identical reports") true (inline = pooled);
      Alcotest.(check (list (pair string int)))
        (what ^ ": power and BDD counters") inline_counters pooled_counters)
    [
      ("min power", O.Min_power, false);
      ("max power", O.Max_power, false);
      ("input-only", O.Min_power, true);
    ]

let () =
  Alcotest.run "par"
    [
      ( "map",
        [
          Alcotest.test_case "matches Array.map" `Quick
            test_map_matches_array_map;
          Alcotest.test_case "empty input + pool reuse" `Quick
            test_map_empty_and_reuse;
          Alcotest.test_case "map_reduce combines in submission order" `Quick
            test_map_reduce_submission_order;
        ] );
      ( "failure",
        [
          Alcotest.test_case "deterministic exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick
            test_nested_use_rejected;
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-domain busy/task counters" `Quick
            test_pool_telemetry;
        ] );
      ( "config",
        [
          Alcotest.test_case "TREORDER_JOBS parsing" `Quick
            test_default_jobs_env;
        ] );
      ( "power",
        [
          Alcotest.test_case "pooled optimize resolves like inline" `Quick
            test_pooled_optimize;
        ] );
    ]
