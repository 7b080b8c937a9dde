(* Clocks and child-process accounting (rusage_stubs.c). Every timing in
   the harness reads [now]: CLOCK_MONOTONIC, never the wall clock. *)

external monotonic_ns : unit -> int = "perf_monotonic_ns" [@@noalloc]

external wait4 : int -> int * float * float * int = "perf_wait4"
(** [(code, user_s, sys_s, maxrss_kib)]; code is 128 + signal when the
    child was killed. *)

external self_usage : unit -> float * int = "perf_self_usage"
(** The calling process's [(user_s + sys_s, maxrss_kib)]. *)

external allowed_cpus : unit -> int list = "perf_allowed_cpus"
(** The CPUs this process may run on, ascending. *)

external set_cpus : int list -> bool = "perf_set_cpus"
(** Restrict this process, and the children it spawns from now on, to
    the given CPUs; [false] if refused. *)

let now () = float_of_int (monotonic_ns ()) *. 1e-9

type child = {
  code : int;
  wall_s : float;  (** spawn to reaped, monotonic *)
  cpu_s : float;  (** user + sys *)
  maxrss_mb : float;
}

(* The parent's environment minus TREORDER_JOBS: every child gets its
   parallelism from an explicit -j, never from whoever ran the bench. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.starts_with ~prefix:"TREORDER_JOBS=" kv))
  |> Array.of_list

let open_out path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

let spawn ~stdin ~stdout ~stderr argv =
  Unix.create_process_env argv.(0) argv (child_env ()) stdin stdout stderr

(* Reap [pid], spawned at [t0]. *)
let reap ~t0 pid =
  let code, user, sys, maxrss_kib = wait4 pid in
  {
    code;
    wall_s = now () -. t0;
    cpu_s = user +. sys;
    maxrss_mb = float_of_int maxrss_kib /. 1024.;
  }

(* Run [argv] to completion with stdout and stderr sent to files: a
   closed loop, one child at a time. *)
let run ~stdout ~stderr argv =
  let out = open_out stdout in
  let err = open_out stderr in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> spawn ~stdin:Unix.stdin ~stdout:out ~stderr:err argv)
  in
  reap ~t0 pid
