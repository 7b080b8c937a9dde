(* Tests for the run-provenance subsystem: SHA-256 fingerprints, record
   write/load round-trips, archive scanning and resolution, auto-id
   uniquification, and the cross-run diff engine (counter tolerance,
   ledger flips and power drift, audit drift, structure errors and
   tolerated omissions). *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_scratch f =
  let dir = Filename.temp_dir "runlog_test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A snapshot document in the shape Obs.json_of_snapshot prints as. *)
let snap counters =
  Printf.sprintf
    {|{"counters":{%s},"distributions":{},"spans":{"optimize.run":{"calls":1,"total_s":0.25,"slowest_s":0.25}},"gc":{"minor_words":0,"major_words":0}}|}
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%g" k v) counters))

(* A minimal attribution ledger in the shape Attrib.to_json emits. *)
let ledger ?(circuit = "c") ?(cfg = 1) ?(power = 0.4) ?(extra_gate = false) ()
    =
  let gate i cfg power =
    Printf.sprintf
      {|{"index":%d,"cell":"nand2","output":"n%d","config_before":0,"config_after":%d,"power_before":0.5,"power_after":%.17g,"internal_before":0,"internal_after":0,"candidates":[]}|}
      i i cfg power
  in
  let gates =
    [ gate 0 cfg power; gate 1 0 0.1 ]
    @ if extra_gate then [ gate 2 0 0.2 ] else []
  in
  Printf.sprintf
    {|{"circuit":"%s","external_load":0,"total_before":1,"total_after":0.9,"reduction_percent":10,"gates":[%s]}|}
    circuit
    (String.concat "," gates)

let audit_doc mean =
  Printf.sprintf
    {|{"summary":{"mean_density_err_pct":%.17g,"max_density_err_pct":9.0,"mean_prob_err":0.001,"max_prob_err":0.01,"model_total":1.0,"sim_total":1.01,"total_err_pct":1.0}}|}
    mean

let write_run ~dir ~id ?(params = []) ?(attachments = []) ?(inputs = [])
    ?(counters = [ ("optimizer.gates_visited", 100.) ]) () =
  let p = Runlog.start ~subcommand:"test" ~argv:[ "arg1"; "arg2" ] () in
  List.iter (fun (k, v) -> Runlog.set_param p k v) params;
  List.iter (fun path -> Runlog.add_input p path) inputs;
  List.iter (fun (name, json) -> Runlog.attach p ~name ~json) attachments;
  ok (Runlog.write ~id ~dir ~snapshot_json:(snap counters) p)

let load ~dir ~id = ok (Runlog.load_run (Filename.concat dir id))

(* --- SHA-256 --- *)

let test_sha_vectors () =
  Alcotest.(check string) "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Runlog.sha256_hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Runlog.sha256_hex "abc");
  (* Multi-block message (1000 bytes spans 16 compression blocks). *)
  Alcotest.(check string) "1000 x 'x'"
    "44f8354494a5ba03ba1792a8d3e9c534c47a9181980fde7a3f44b06ef2ae7c7f"
    (Runlog.sha256_hex (String.make 1000 'x'))

let test_sha_file () =
  let path = Filename.temp_file "runlog_sha" ".txt" in
  let oc = open_out_bin path in
  output_string oc "abc";
  close_out oc;
  Alcotest.(check string) "file digest matches string digest"
    (Runlog.sha256_hex "abc")
    (ok (Runlog.sha256_file path));
  Sys.remove path;
  match Runlog.sha256_file "/nonexistent/input.nl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file digested"

(* --- record write/load round-trip --- *)

let test_roundtrip () =
  with_scratch @@ fun dir ->
  let input = Filename.concat dir "input.nl" in
  let oc = open_out_bin input in
  output_string oc "circuit text";
  close_out oc;
  let run_dir =
    write_run ~dir ~id:"first"
      ~params:[ ("seed", "42"); ("jobs", "4") ]
      ~attachments:[ ("ledger", ledger ()) ]
      ~inputs:[ input ] ()
  in
  let run = ok (Runlog.load_run run_dir) in
  let m = run.Runlog.manifest in
  Alcotest.(check string) "run id from directory" "first" run.Runlog.run_id;
  Alcotest.(check int) "format version" 1 m.Runlog.version;
  Alcotest.(check string) "subcommand" "test" m.Runlog.subcommand;
  Alcotest.(check (list string)) "argv" [ "arg1"; "arg2" ] m.Runlog.argv;
  Alcotest.(check (list (pair string string))) "params sorted by key"
    [ ("jobs", "4"); ("seed", "42") ]
    m.Runlog.params;
  Alcotest.(check (option string)) "input fingerprinted"
    (Some (Runlog.sha256_hex "circuit text"))
    (List.assoc_opt input m.Runlog.inputs);
  Alcotest.(check bool) "timestamps ordered" true
    (m.Runlog.finished >= m.Runlog.started);
  Alcotest.(check (list string)) "attachments" [ "ledger" ]
    m.Runlog.attachments;
  let l = ok (Result.bind (Runlog.read_attachment run "ledger") Runlog.ledger_of_json) in
  Alcotest.(check int) "ledger gates decoded" 2
    (Array.length l.Runlog.l_gates);
  let counters =
    Regress.counters_of_snapshot
      (ok (Trace.Json.parse (read_file (Filename.concat run_dir "snapshot.json"))))
  in
  Alcotest.(check (option (float 1e-9))) "snapshot counters readable"
    (Some 100.)
    (List.assoc_opt "optimizer.gates_visited" counters)

let test_attach_validation () =
  let p = Runlog.start ~subcommand:"test" ~argv:[] () in
  List.iter
    (fun name ->
      match Runlog.attach p ~name ~json:"{}" with
      | () -> Alcotest.failf "attachment name %S accepted" name
      | exception Invalid_argument _ -> ())
    [ "a/b"; ".."; ""; "manifest"; "snapshot" ]

let test_unreadable_input () =
  with_scratch @@ fun dir ->
  let run_dir =
    write_run ~dir ~id:"r" ~inputs:[ "/nonexistent/input.nl" ] ()
  in
  let run = ok (Runlog.load_run run_dir) in
  Alcotest.(check (option string)) "unreadable input recorded, not fatal"
    (Some "unreadable")
    (List.assoc_opt "/nonexistent/input.nl" run.Runlog.manifest.Runlog.inputs)

(* --- archive scanning and resolution --- *)

let test_scan_resolve () =
  with_scratch @@ fun dir ->
  let (_ : string) = write_run ~dir ~id:"aaa" () in
  Unix.sleepf 0.002;
  let (_ : string) = write_run ~dir ~id:"bbb" () in
  (* An incomplete record (no manifest) must be skipped silently. *)
  Unix.mkdir (Filename.concat dir "junk") 0o755;
  let runs = ok (Runlog.scan dir) in
  Alcotest.(check (list string)) "complete records, oldest first"
    [ "aaa"; "bbb" ]
    (List.map (fun r -> r.Runlog.run_id) runs);
  Alcotest.(check string) "archive root resolves to the latest run" "bbb"
    (ok (Runlog.resolve dir)).Runlog.run_id;
  Alcotest.(check string) "run directory resolves directly" "aaa"
    (ok (Runlog.resolve (Filename.concat dir "aaa"))).Runlog.run_id;
  match Runlog.resolve (Filename.concat dir "junk") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty directory resolved"

let test_auto_id_unique () =
  with_scratch @@ fun dir ->
  let p () = Runlog.start ~subcommand:"test" ~argv:[] () in
  let d1 = ok (Runlog.write ~dir ~snapshot_json:(snap []) (p ())) in
  let d2 = ok (Runlog.write ~dir ~snapshot_json:(snap []) (p ())) in
  Alcotest.(check bool) "same-second ids uniquified" true (d1 <> d2);
  Alcotest.(check int) "both records complete" 2
    (List.length (ok (Runlog.scan dir)))

let test_explicit_id_overwrites () =
  with_scratch @@ fun dir ->
  let (_ : string) =
    write_run ~dir ~id:"fixed" ~params:[ ("seed", "1") ] ()
  in
  let (_ : string) =
    write_run ~dir ~id:"fixed" ~params:[ ("seed", "2") ] ()
  in
  Alcotest.(check int) "one record" 1 (List.length (ok (Runlog.scan dir)));
  let run = load ~dir ~id:"fixed" in
  Alcotest.(check (option string)) "latest write wins" (Some "2")
    (List.assoc_opt "seed" run.Runlog.manifest.Runlog.params)

let test_manifest_errors () =
  with_scratch @@ fun dir ->
  (match Runlog.load_run (Filename.concat dir "missing") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing record loaded");
  let bad = Filename.concat dir "bad" in
  Unix.mkdir bad 0o755;
  let oc = open_out (Filename.concat bad "manifest.json") in
  output_string oc "not json";
  close_out oc;
  (match Runlog.load_run bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed manifest loaded");
  let oc = open_out (Filename.concat bad "manifest.json") in
  output_string oc
    {|{"runlog_version":99,"tool":"treorder","tool_version":"dev","subcommand":"x","argv":[],"inputs":[],"params":{},"started":0,"finished":0,"attachments":[]}|};
  close_out oc;
  match Runlog.load_run bad with
  | Error msg ->
      Alcotest.(check bool) "unknown version rejected by name" true
        (contains msg "99")
  | Ok _ -> Alcotest.fail "future format version accepted"

(* --- diffing --- *)

let test_diff_identical () =
  with_scratch @@ fun dir ->
  let attachments = [ ("ledger", ledger ()); ("audit", audit_doc 5.0) ] in
  let (_ : string) = write_run ~dir ~id:"a" ~attachments () in
  let (_ : string) = write_run ~dir ~id:"b" ~attachments () in
  let d = Runlog.diff (load ~dir ~id:"a") (load ~dir ~id:"b") in
  Alcotest.(check bool) "identical runs are clean" true (Runlog.is_clean d);
  Alcotest.(check bool) "verdict rendered" true
    (contains (Runlog.render_diff d) "agree")

let test_diff_counters () =
  with_scratch @@ fun dir ->
  let (_ : string) =
    write_run ~dir ~id:"a"
      ~counters:[ ("optimizer.gates_visited", 1000.); ("work.time_ns", 5e9) ]
      ()
  in
  let (_ : string) =
    write_run ~dir ~id:"b"
      ~counters:[ ("optimizer.gates_visited", 1500.); ("work.time_ns", 9e9) ]
      ()
  in
  let a = load ~dir ~id:"a" and b = load ~dir ~id:"b" in
  let d = Runlog.diff a b in
  (match d.Runlog.counters with
  | [ v ] ->
      Alcotest.(check bool) "the drifted counter is named" true
        (contains v.Regress.metric "optimizer.gates_visited")
  | l -> Alcotest.failf "expected 1 counter violation, got %d" (List.length l));
  Alcotest.(check bool) "_ns counters never compared" true
    (not
       (List.exists
          (fun v -> contains v.Regress.metric "time_ns")
          d.Runlog.counters));
  (* An ignore prefix silences the remaining violation. *)
  let d = Runlog.diff ~ignore_counters:[ "optimizer." ] a b in
  Alcotest.(check bool) "ignore prefix silences it" true (Runlog.is_clean d)

let test_diff_ledger () =
  with_scratch @@ fun dir ->
  let w id att = ignore (write_run ~dir ~id ~attachments:att () : string) in
  w "base" [ ("ledger", ledger ~cfg:1 ~power:0.4 ()) ];
  w "flip" [ ("ledger", ledger ~cfg:2 ~power:0.4 ()) ];
  w "drift" [ ("ledger", ledger ~cfg:1 ~power:0.40001 ()) ];
  w "grown" [ ("ledger", ledger ~extra_gate:true ()) ];
  w "bare" [];
  let base = load ~dir ~id:"base" in
  let d = Runlog.diff base (load ~dir ~id:"flip") in
  (match d.Runlog.flips with
  | [ f ] ->
      Alcotest.(check string) "flipped gate named" "n0" f.Runlog.gate;
      Alcotest.(check int) "config in A" 1 f.Runlog.a_config;
      Alcotest.(check int) "config in B" 2 f.Runlog.b_config;
      Alcotest.(check bool) "rendered" true
        (contains (Runlog.render_diff d) "n0")
  | l -> Alcotest.failf "expected 1 flip, got %d" (List.length l));
  let d = Runlog.diff base (load ~dir ~id:"drift") in
  Alcotest.(check int) "same config, moved power: power drift" 1
    (List.length d.Runlog.power_drift);
  Alcotest.(check int) "not a flip" 0 (List.length d.Runlog.flips);
  Alcotest.(check bool) "loose rtol tolerates it" true
    (Runlog.is_clean (Runlog.diff ~rtol:1e-3 base (load ~dir ~id:"drift")));
  let d = Runlog.diff base (load ~dir ~id:"grown") in
  Alcotest.(check bool) "gate-count mismatch is structural" true
    (d.Runlog.structure <> [] && not (Runlog.is_clean d));
  let d = Runlog.diff base (load ~dir ~id:"bare") in
  Alcotest.(check bool) "missing ledger is a tolerated note" true
    (Runlog.is_clean d && d.Runlog.notes <> [])

let test_diff_audit_and_params () =
  with_scratch @@ fun dir ->
  let (_ : string) =
    write_run ~dir ~id:"a"
      ~params:[ ("seed", "42") ]
      ~attachments:[ ("audit", audit_doc 5.0) ]
      ()
  in
  let (_ : string) =
    write_run ~dir ~id:"b"
      ~params:[ ("seed", "43") ]
      ~attachments:[ ("audit", audit_doc 7.5) ]
      ()
  in
  let d = Runlog.diff (load ~dir ~id:"a") (load ~dir ~id:"b") in
  (match d.Runlog.audit_drift with
  | [ v ] ->
      Alcotest.(check string) "audit metric named"
        "audit.mean_density_err_pct" v.Runlog.metric
  | l -> Alcotest.failf "expected 1 audit drift, got %d" (List.length l));
  (* Parameter drift is reported but informational. *)
  Alcotest.(check bool) "param drift recorded" true
    (List.exists (fun (k, _, _) -> k = "seed") d.Runlog.param_drift);
  Alcotest.(check bool) "only audit drift fails this diff" true
    (d.Runlog.counters = [] && d.Runlog.flips = [] && not (Runlog.is_clean d))

let () =
  Alcotest.run "runlog"
    [
      ( "sha256",
        [
          Alcotest.test_case "reference vectors" `Quick test_sha_vectors;
          Alcotest.test_case "file digests" `Quick test_sha_file;
        ] );
      ( "records",
        [
          Alcotest.test_case "write/load round-trip" `Quick test_roundtrip;
          Alcotest.test_case "attachment name validation" `Quick
            test_attach_validation;
          Alcotest.test_case "unreadable inputs tolerated" `Quick
            test_unreadable_input;
          Alcotest.test_case "scan + resolve" `Quick test_scan_resolve;
          Alcotest.test_case "auto ids uniquified" `Quick test_auto_id_unique;
          Alcotest.test_case "explicit id overwrites" `Quick
            test_explicit_id_overwrites;
          Alcotest.test_case "malformed manifests rejected" `Quick
            test_manifest_errors;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical runs clean" `Quick test_diff_identical;
          Alcotest.test_case "counter tolerance + exclusions" `Quick
            test_diff_counters;
          Alcotest.test_case "ledger flips, drift, structure" `Quick
            test_diff_ledger;
          Alcotest.test_case "audit drift + informational params" `Quick
            test_diff_audit_and_params;
        ] );
    ]
