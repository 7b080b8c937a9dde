(* End-to-end runs: untraced, closed loop, one client, one invocation or
   apply in flight at a time. CLI workloads spawn the real CLI; eco
   spawns this harness as a child that drives Incremental directly.

   Every operation is bracketed by calibration-kernel runs on the same
   CPU (Calib): wall_cal and cpu_cal are the operation's time over the
   mean of the kernel times just before and just after it. Set-up runs
   are bracketed the same way and setup_s is their time in calibrated
   seconds (Calib.seconds). *)

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  samples : (string * float list) list;  (** metric name -> raw samples *)
  info : (string * string) list;  (** printed only, not in the JSON *)
}

let path dir file = Filename.concat dir file

(* The CLI sits next to this executable in dune's build tree. *)
let cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    "bin/treorder_cli.exe"

(* Write the workload's inputs into [dir]. *)
let prepare (w : Spec.workload) ~seed ~dir =
  Inputs.mkdir_p dir;
  let circuit = Inputs.circuit w in
  Netlist.Io.save circuit (path dir "in.net");
  if w.Spec.kind = Spec.Eco then
    Inputs.write_file (path dir "eco.ndjson")
      (Inputs.eco_script ~seed ~batches:500 circuit)

let cli_argv (w : Spec.workload) ~seed ~dir =
  let common = [ "--seed"; string_of_int seed ] in
  Array.of_list
    (cli ()
    ::
    (match w.Spec.kind with
    | Spec.Optimize { bounded; explain } ->
        [ "optimize"; path dir "in.net" ]
        @ common
        @ [ "-j"; "1"; "-o"; path dir "out.net" ]
        @ (if bounded then [ "--objective"; "bounded" ] else [])
        @ if explain then [ "--explain-json"; path dir "ledger.json" ] else []
    | Spec.Mc ->
        [ "estimate"; path dir "in.net"; "--backend"; "mc" ] @ common @ [ "-j"; "2" ]
    | Spec.Eco -> invalid_arg "cli_argv: eco runs in a bench child"))

let run_child ~dir argv =
  let r = Usage.run ~stdout:(path dir "rep.out") ~stderr:(path dir "rep.err") argv in
  (r, Inputs.read_file (path dir "rep.out"))

let stderr_of dir = String.trim (Inputs.read_file (path dir "rep.err"))

(* Process start plus library and table initialisation: the smallest
   real invocation. Runs are spread over the whole measurement (twenty
   first, eight after every operation) so their median spans the host's
   slow and fast spells alike; single runs spread by a third, so the
   median needs a hundred or so. Each group of [n] runs starts after the
   kernel run [before] and ends with one of its own, returned with the
   runs, each paired with the mean of the two kernel times. *)
let setup_runs ~dir ~before n =
  let runs =
    List.init n (fun _ -> fst (run_child ~dir [| cli (); "estimate"; "c17"; "-j"; "1" |]))
  in
  let after = Calib.time () in
  (List.map (fun r -> (r, (before +. after) /. 2.)) runs, after)

(* The outputs a CLI repetition leaves behind, compared byte for byte
   across repetitions: every rep must reproduce the first. *)
let outputs (w : Spec.workload) ~dir =
  match w.Spec.kind with
  | Spec.Optimize { explain; _ } ->
      Inputs.read_file (path dir "out.net")
      :: (if explain then [ Inputs.read_file (path dir "ledger.json") ] else [])
  | _ -> []

let ms = function
  | [] -> "-"
  | xs -> Printf.sprintf "%.3f" (Report.Stats.median xs *. 1e3)

(* A child's max RSS is at least the harness's own when it was spawned
   (Linux carries the parent's high-water mark across exec), so the
   harness's peak while measuring is printed next to peak_rss_mb. *)
let harness_rss () =
  ("harness_rss_mb", Printf.sprintf "%.1f" (float_of_int (snd (Usage.self_usage ())) /. 1024.))

(* Check the first rep's outputs with the library; the verdict plus the
   figures worth printing. *)
let verify (w : Spec.workload) ~seed ~dir (stdout, outs) =
  let input = Netlist.Io.load (path dir "in.net") in
  match w.Spec.kind with
  | Spec.Optimize { bounded; explain = _ } ->
      Verify.optimize ~seed ~bounded ~input ~output_text:(List.hd outs) ~stdout
        ?ledger_json:(List.nth_opt outs 1) ()
      |> Result.map (fun (o : Verify.optimized) ->
             [
               ( "power_reduction_pct",
                 Printf.sprintf "%.6f" (100. *. (o.before -. o.after) /. o.before) );
               ("output_bytes", string_of_int o.output_bytes);
             ])
  | Spec.Mc ->
      Verify.mc ~seed ~input ~stdout
      |> Result.map (fun (r : Mc.result) ->
             [ ("mc_power_w", Printf.sprintf "%.6g" r.Mc.power) ])
  | Spec.Eco -> Ok []

let cli_workload (w : Spec.workload) ~seed ~seconds ~dir =
  let errors = ref [] and failed = ref 0 in
  let fail msg =
    incr failed;
    errors := msg :: !errors
  in
  let first, kernel = setup_runs ~dir ~before:(Calib.time ()) 20 in
  let setup = ref first in
  let argv = cli_argv w ~seed ~dir in
  let reference = ref None in
  let start = Usage.now () in
  (* (child, kernel seconds around it) per rep *)
  let rec reps kernel acc =
    if List.length acc >= 3 && Usage.now () -. start >= seconds then List.rev acc
    else begin
      let r, stdout = run_child ~dir argv in
      let after = Calib.time () in
      let more, kernel' = setup_runs ~dir ~before:after 8 in
      setup := more @ !setup;
      (if r.Usage.code <> 0 then
         fail (Printf.sprintf "%s exited %d: %s" w.Spec.name r.Usage.code (stderr_of dir))
       else
         let produced = (stdout, outputs w ~dir) in
         match !reference with
         | None -> reference := Some produced
         | Some first ->
             if first <> produced then fail "repetition output differs from the first");
      reps kernel' ((r, (kernel +. after) /. 2.) :: acc)
    end
  in
  let runs = reps kernel [] in
  let harness = harness_rss () in
  let setup = !setup in
  List.iter
    (fun ((r : Usage.child), _) ->
      if r.Usage.code <> 0 then fail (Printf.sprintf "estimate c17 exited %d" r.Usage.code))
    setup;
  let info =
    match !reference with
    | None -> []
    | Some produced -> (
        match verify w ~seed ~dir produced with
        | Ok info -> info
        | Error msg ->
            fail msg;
            [])
  in
  let pick f = List.map f runs in
  let walls = pick (fun (r, _) -> r.Usage.wall_s) in
  {
    attempted = List.length setup + List.length runs;
    failed = !failed;
    errors = List.rev !errors;
    samples =
      [
        ("wall_cal", pick (fun (r, k) -> r.Usage.wall_s /. k));
        ("cpu_cal", pick (fun (r, k) -> r.Usage.cpu_s /. k));
        ("peak_rss_mb", pick (fun (r, _) -> r.Usage.maxrss_mb));
        ("setup_s", List.map (fun (r, k) -> Calib.seconds ~kernel:k r.Usage.wall_s) setup);
      ];
    info =
      info
      @ [
          ("reps", string_of_int (List.length runs));
          ("setup_raw_ms", ms (List.map (fun (r, _) -> r.Usage.wall_s) setup));
          ("wall_ms", ms walls);
          ("cpu_ms", ms (pick (fun (r, _) -> r.Usage.cpu_s)));
          ("kernel_ms", ms (pick snd));
          harness;
        ];
  }

(* --- eco: the bench child ------------------------------------------- *)

type eco_params = {
  seconds : float;
  min_sessions : int;
  batches : int;  (** applies per session, taken from the script's head *)
  measured : bool;
      (** stop for a parent-side kernel run between blocks and verify the
          last session against a cold run; off for a plain timed session *)
}

let eco_child_argv ~dir ~seed p =
  [|
    Sys.executable_name;
    "--eco-child";
    dir;
    string_of_int seed;
    Printf.sprintf "%.3f" p.seconds;
    string_of_int p.min_sessions;
    string_of_int p.batches;
    (if p.measured then "1" else "0");
  |]

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Applies per calibration block: a kernel run costs about ten applies. *)
let block = 25

(* Kernel runs per calibration point around a create: a single run is
   off by up to 20%, and a create (a 10k-gate cold optimize) is one
   sample of several seconds, so its brackets take the median of five. *)
let create_kernels = 5

(* Sessions, each on fresh tables as a new process would have them:
   create (timed as set-up), then one apply per script line. One line per
   measurement on stdout, in order. When [measured], the child prints
   "block N" before the first create, before each block of applies and
   after the last, then waits for a byte on stdin while the parent times
   N kernel runs; so every create, like every block, lies between two
   calibration points. *)
let eco_child ~dir ~seed p =
  let circuit = Netlist.Io.load (path dir "in.net") in
  let inputs = Inputs.stats ~seed circuit in
  match Incremental.Script.load ~circuit (path dir "eco.ndjson") with
  | exception Incremental.Edit_error msg -> Printf.printf "error script: %s\n" msg
  | script ->
      let batches = take p.batches script in
      let sync runs =
        if p.measured then begin
          Printf.printf "block %d\n%!" runs;
          ignore (input_char stdin)
        end
      in
      let start = Usage.now () in
      let rec session k =
        let table = Inputs.power_table () and delay = Inputs.delay_table () in
        if k = 0 then sync create_kernels;
        let t0 = Usage.now () in
        let sess = Incremental.create table ~delay circuit ~inputs in
        Printf.printf "create %.9f\n" (Usage.now () -. t0);
        List.iteri
          (fun i batch ->
            if i mod block = 0 then sync (if i = 0 then create_kernels else 1);
            let cpu0, _ = Usage.self_usage () in
            let t0 = Usage.now () in
            match Incremental.apply sess batch with
            | exception Incremental.Edit_error msg -> Printf.printf "error apply: %s\n" msg
            | _ ->
                let wall = Usage.now () -. t0 in
                let cpu1, _ = Usage.self_usage () in
                Printf.printf "apply %.9f %.9f\n" wall (cpu1 -. cpu0))
          batches;
        sync create_kernels;
        if k + 1 < p.min_sessions || Usage.now () -. start < p.seconds then
          session (k + 1)
        else if p.measured then begin
          ignore (Incremental.apply sess []);
          match Verify.eco table ~delay sess with
          | Ok () -> print_endline "verified"
          | Error msg -> Printf.printf "error %s\n" msg
        end
      in
      session 0

(* Run the eco child, answering each "block N" with the median of N
   kernel runs, and return its reaped status with its stdout lines, the
   kernel times written in as "kernel <s>" lines where they happened. *)
let eco_session ~dir ~seed p =
  let go_r, go_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Usage.open_out (path dir "rep.err") in
  let t0 = Usage.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ go_r; out_w; err ])
      (fun () ->
        Usage.spawn ~stdin:go_r ~stdout:out_w ~stderr:err (eco_child_argv ~dir ~seed p))
  in
  let ic = Unix.in_channel_of_descr out_r in
  let rec read acc =
    match input_line ic with
    | line when String.starts_with ~prefix:"block " line ->
        let runs = int_of_string (String.sub line 6 (String.length line - 6)) in
        let k = Report.Stats.median (List.init runs (fun _ -> Calib.time ())) in
        (try ignore (Unix.write_substring go_w "g" 0 1) with Unix.Unix_error _ -> ());
        read (Printf.sprintf "kernel %.9f" k :: acc)
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Unix.close go_w;
  (Usage.reap ~t0 pid, lines)

let eco_workload ~seed ~seconds ~dir =
  let p = { seconds; min_sessions = 3; batches = 500; measured = true } in
  let r, lines = eco_session ~dir ~seed p in
  let harness = harness_rss () in
  let creates = ref [] and applies = ref [] and errors = ref [] in
  let verified = ref false in
  (* Each create and apply is scaled by the kernels bracketing it: it
     waits in [pending] for the kernel line after it. *)
  let block_kernel = ref nan and pending = ref [] in
  let defer record = pending := record :: !pending in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "create"; s ] ->
          let s = float_of_string s in
          defer (fun k -> creates := (s, k) :: !creates)
      | [ "kernel"; s ] ->
          let k = float_of_string s in
          List.iter (fun record -> record ((!block_kernel +. k) /. 2.)) (List.rev !pending);
          pending := [];
          block_kernel := k
      | [ "apply"; wall; cpu ] ->
          let wall = float_of_string wall and cpu = float_of_string cpu in
          defer (fun k -> applies := (wall, cpu, k) :: !applies)
      | [ "verified" ] -> verified := true
      | "error" :: _ -> errors := line :: !errors
      | _ -> ())
    lines;
  if r.Usage.code <> 0 then
    errors :=
      Printf.sprintf "eco child exited %d: %s" r.Usage.code (stderr_of dir) :: !errors;
  if not !verified then errors := "eco session was not verified" :: !errors;
  let applies = List.rev !applies in
  let pick f = List.map f applies in
  let walls = pick (fun (w, _, _) -> w) in
  {
    attempted = max 1 (List.length !creates + List.length applies);
    failed = List.length !errors;
    errors = List.rev !errors;
    samples =
      [
        ("wall_cal", pick (fun (w, _, k) -> w /. k));
        ("cpu_cal", pick (fun (_, c, k) -> c /. k));
        ("peak_rss_mb", [ r.Usage.maxrss_mb ]);
        ("setup_s", List.map (fun (s, k) -> Calib.seconds ~kernel:k s) !creates);
      ];
    info =
      [
        ("sessions", string_of_int (List.length !creates));
        ("setup_raw_ms", ms (List.map fst !creates));
        ("applies", string_of_int (List.length applies));
        ("wall_ms", ms walls);
        ("cpu_ms", ms (pick (fun (_, c, _) -> c)));
        ("apply_p99_ms", Printf.sprintf "%.3f" (Stat.percentile 99. walls *. 1e3));
        ("kernel_ms", ms (pick (fun (_, _, k) -> k)));
        harness;
      ];
  }

(* Optimize and eco operations share one CPU with the harness and the
   kernel; mc_rnd2k's -j 2 needs every CPU, so the kernel samples each
   of them and nothing is pinned. *)
let run (w : Spec.workload) ~seed ~seconds ~dir =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cpus = match Usage.allowed_cpus () with [] -> [ 0 ] | cpus -> cpus in
  Calib.start
    ~cpus:(if w.Spec.kind = Spec.Mc then cpus else [ List.nth cpus (List.length cpus - 1) ]);
  if w.Spec.kind = Spec.Eco then eco_workload ~seed ~seconds ~dir
  else cli_workload w ~seed ~seconds ~dir
