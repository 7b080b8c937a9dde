(* The calibration kernel: a fixed computation owned by the benchmark and
   independent of the program under test (hashing, allocation, pointer
   chasing, float math; about 40 ms). On a shared host the same
   invocation runs up to 60% slower for seconds to minutes at a time.
   Timed on the same CPU right before and after each operation, the
   kernel slows down with it, and the operation's time divided by the
   kernel's follows the program rather than the neighbours. Of the
   kernels tried (pure arithmetic, cache-missing pointer chase, fresh-page
   touching, tree allocation) this mix tracked the CLI's run time best.

   The kernel runs in server processes of its own (`perf.exe
   --calib-server`), so its heap neither shares the program's nor raises
   the harness's resident size, which every child's max RSS includes. *)

let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0. in
  for i = 0 to 200_000 do
    let k = i * 7919 land 16383 in
    (match Hashtbl.find_opt h k with
    | Some l ->
        Hashtbl.replace h k
          (if List.length l > 6 then [ float_of_int i ] else float_of_int i :: l)
    | None -> Hashtbl.add h k [ float_of_int i ]);
    acc := !acc +. sqrt (float_of_int i)
  done;
  let next = Array.init 200_000 (fun i -> i * 48271 mod 200_000) in
  let j = ref 0 in
  for _ = 1 to 1_000_000 do
    j := next.(!j)
  done;
  ignore (Sys.opaque_identity (!acc, !j))

(* The server: one kernel run per request line, its seconds as reply. *)
let serve () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = Usage.now () in
      kernel ();
      Printf.printf "%.9f\n%!" (Usage.now () -. t0)
    done
  with End_of_file -> ()

type server = { pid : int; requests : out_channel; replies : in_channel }

let servers = ref []

let stop () =
  List.iter
    (fun s ->
      close_out s.requests;
      close_in s.replies;
      ignore (Usage.wait4 s.pid))
    !servers;
  servers := []

let spawn () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ req_r; rep_w ])
      (fun () ->
        Usage.spawn ~stdin:req_r ~stdout:rep_w ~stderr:Unix.stderr
          [| Sys.executable_name; "--calib-server" |])
  in
  { pid; requests = Unix.out_channel_of_descr req_w; replies = Unix.in_channel_of_descr rep_r }

(* One server pinned to each of [cpus] (spawned while the harness is
   pinned there), then the harness itself restricted to [cpus]. Servers
   are stopped and reaped at exit. *)
let start ~cpus =
  List.iter
    (fun cpu ->
      ignore (Usage.set_cpus [ cpu ]);
      servers := spawn () :: !servers)
    cpus;
  ignore (Usage.set_cpus cpus);
  at_exit stop

(* Seconds one kernel run takes now: the mean over the servers, one
   after the other, so every CPU the operation may use is sampled. *)
let time () =
  let one s =
    output_string s.requests "k\n";
    flush s.requests;
    float_of_string (input_line s.replies)
  in
  List.fold_left (fun acc s -> acc +. one s) 0. !servers
  /. float_of_int (List.length !servers)

(* Calibrated seconds: [seconds] measured while one kernel run took
   [kernel] seconds, restated for a reference host on which it takes
   [reference]. Same ratio as seconds /. kernel, kept in seconds. *)
let reference = 0.040
let seconds ~kernel s = s *. reference /. kernel
