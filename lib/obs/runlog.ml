(* Run provenance records: a directory per run, manifest written last
   so [scan] can treat "has manifest.json" as "record is complete". *)

(* --- SHA-256 (FIPS 180-4) --- *)

let sha_k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

let sha256_hex msg =
  let h =
    [|
      0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
      0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
    |]
  in
  let len = String.length msg in
  (* Pad to a multiple of 64 bytes: 0x80, zeros, 64-bit big-endian bit
     length. *)
  let padded_len = (((len + 8) / 64) + 1) * 64 in
  let block = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 block 0 len;
  Bytes.set block len '\x80';
  Bytes.set_int64_be block (padded_len - 8) (Int64.of_int (8 * len));
  let w = Array.make 64 0l in
  let ( +% ) = Int32.add in
  let rotr x n =
    Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  in
  for b = 0 to (padded_len / 64) - 1 do
    for t = 0 to 15 do
      w.(t) <- Bytes.get_int32_be block ((b * 64) + (4 * t))
    done;
    for t = 16 to 63 do
      let x = w.(t - 15) and y = w.(t - 2) in
      let s0 =
        Int32.logxor (Int32.logxor (rotr x 7) (rotr x 18))
          (Int32.shift_right_logical x 3)
      in
      let s1 =
        Int32.logxor (Int32.logxor (rotr y 17) (rotr y 19))
          (Int32.shift_right_logical y 10)
      in
      w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
    done;
    let a = ref h.(0) and b' = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and h' = ref h.(7) in
    for t = 0 to 63 do
      let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
      let ch =
        Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g)
      in
      let t1 = !h' +% s1 +% ch +% sha_k.(t) +% w.(t) in
      let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
      let maj =
        Int32.logxor
          (Int32.logxor (Int32.logand !a !b') (Int32.logand !a !c))
          (Int32.logand !b' !c)
      in
      let t2 = s0 +% maj in
      h' := !g;
      g := !f;
      f := !e;
      e := !d +% t1;
      d := !c;
      c := !b';
      b' := !a;
      a := t1 +% t2
    done;
    h.(0) <- h.(0) +% !a;
    h.(1) <- h.(1) +% !b';
    h.(2) <- h.(2) +% !c;
    h.(3) <- h.(3) +% !d;
    h.(4) <- h.(4) +% !e;
    h.(5) <- h.(5) +% !f;
    h.(6) <- h.(6) +% !g;
    h.(7) <- h.(7) +% !h'
  done;
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08lx") h))

let sha256_file path = Result.map sha256_hex (Json.read_file path)

(* --- pending records --- *)

type pending = {
  p_tool_version : string;
  p_subcommand : string;
  p_argv : string list;
  p_started : float;
  mutable p_inputs : (string * string) list;  (* reverse order *)
  mutable p_params : (string * string) list;
  mutable p_attachments : (string * string) list;  (* name, json; reverse *)
}

let start ?(tool_version = "dev") ~subcommand ~argv () =
  {
    p_tool_version = tool_version;
    p_subcommand = subcommand;
    p_argv = argv;
    p_started = Unix.gettimeofday ();
    p_inputs = [];
    p_params = [];
    p_attachments = [];
  }

let add_input p path =
  let digest =
    match sha256_file path with Ok hex -> hex | Error _ -> "unreadable"
  in
  p.p_inputs <- (path, digest) :: p.p_inputs

let set_param p key value =
  p.p_params <- (key, value) :: List.remove_assoc key p.p_params

let valid_attachment_name name =
  name <> "" && name <> "manifest" && name <> "snapshot"
  && name <> "." && name <> ".."
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name
  && not (String.contains name '/')

let attach p ~name ~json =
  if not (valid_attachment_name name) then
    invalid_arg (Printf.sprintf "Runlog.attach: bad attachment name %S" name);
  p.p_attachments <- (name, json) :: List.remove_assoc name p.p_attachments

(* --- writing --- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_text path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let manifest_json p ~finished =
  let strings l = Json.Arr (List.map (fun a -> Json.Str a) l) in
  let input (path, sha) =
    Json.Obj [ ("path", Json.Str path); ("sha256", Json.Str sha) ]
  in
  let param (k, v) = (k, Json.Str v) in
  Json.print
    (Json.Obj
       [
         ("runlog_version", Json.int 1);
         ("tool", Json.Str "treorder");
         ("tool_version", Json.Str p.p_tool_version);
         ("subcommand", Json.Str p.p_subcommand);
         ("argv", strings p.p_argv);
         ("inputs", Json.Arr (List.rev_map input p.p_inputs));
         ("params", Json.Obj (List.map param (List.sort compare p.p_params)));
         ("started", Json.Num p.p_started);
         ("finished", Json.Num finished);
         ( "attachments",
           strings (List.sort compare (List.map fst p.p_attachments)) );
       ])

let default_id p =
  let tm = Unix.gmtime p.p_started in
  Printf.sprintf "%s-%04d%02d%02dT%02d%02d%02dZ" p.p_subcommand
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let write ?id ~dir ~snapshot_json p =
  match
    mkdir_p dir;
    let run_dir =
      match id with
      | Some id ->
          let d = Filename.concat dir id in
          mkdir_p d;
          (* Explicit ids overwrite: drop the old manifest first so a
             half-rewritten record never looks complete. *)
          let m = Filename.concat d "manifest.json" in
          if Sys.file_exists m then Sys.remove m;
          d
      | None ->
          let base = default_id p in
          let rec pick n =
            let candidate =
              if n = 1 then base else Printf.sprintf "%s-%d" base n
            in
            let d = Filename.concat dir candidate in
            if Sys.file_exists d then
              if n > 999 then
                failwith ("no free run id under " ^ dir)
              else pick (n + 1)
            else begin
              mkdir_p d;
              d
            end
          in
          pick 1
    in
    write_text (Filename.concat run_dir "snapshot.json") snapshot_json;
    List.iter
      (fun (name, json) ->
        write_text (Filename.concat run_dir (name ^ ".json")) json)
      (List.rev p.p_attachments);
    let finished = Unix.gettimeofday () in
    write_text (Filename.concat run_dir "manifest.json")
      (manifest_json p ~finished);
    run_dir
  with
  | run_dir -> Ok run_dir
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s: %s (%s)" fn (Unix.error_message e) arg)
  | exception Failure msg -> Error msg

(* --- reading --- *)

type manifest = {
  version : int;
  tool_version : string;
  subcommand : string;
  argv : string list;
  inputs : (string * string) list;
  params : (string * string) list;
  started : float;
  finished : float;
  attachments : string list;
}

type run = { run_dir : string; run_id : string; manifest : manifest }

(* Decoding helpers: a required field of [j] ([doc] and [kind] name it
   in the error), and [f] over a list, stopping at the first error. *)
let field doc kind decode j key =
  match Option.bind (Trace.Json.member key j) decode with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing %s %S" doc kind key)

let str doc = field doc "string" Trace.Json.to_string
let num doc = field doc "number" Trace.Json.to_float

let map_all f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> Result.bind (f x) (fun v -> go (v :: acc) rest)
  in
  go [] xs

let manifest_of_json json =
  let open Trace.Json in
  let str = str "manifest" json and num = num "manifest" json in
  let ( let* ) = Result.bind in
  let* version = num "runlog_version" in
  let version = int_of_float version in
  if version <> 1 then
    Error (Printf.sprintf "manifest: unsupported runlog_version %d" version)
  else
    let* tool_version = str "tool_version" in
    let* subcommand = str "subcommand" in
    let* started = num "started" in
    let* finished = num "finished" in
    let str_list key =
      match member key json with
      | Some (Arr xs) ->
          let non_string = Printf.sprintf "manifest: %S holds a non-string" in
          map_all (function Str s -> Ok s | _ -> Error (non_string key)) xs
      | _ -> Error (Printf.sprintf "manifest: missing array %S" key)
    in
    let* argv = str_list "argv" in
    let* attachments = str_list "attachments" in
    let* inputs =
      match member "inputs" json with
      | Some (Arr xs) ->
          map_all
            (fun entry ->
              match
                ( Option.bind (member "path" entry) to_string,
                  Option.bind (member "sha256" entry) to_string )
              with
              | Some path, Some sha -> Ok (path, sha)
              | _ -> Error "manifest: malformed inputs entry")
            xs
      | _ -> Error "manifest: missing array \"inputs\""
    in
    let* params =
      match member "params" json with
      | Some (Obj fields) ->
          map_all
            (function
              | k, Str v -> Ok (k, v)
              | k, _ ->
                  Error (Printf.sprintf "manifest: param %S is not a string" k))
            fields
      | _ -> Error "manifest: missing object \"params\""
    in
    Ok
      {
        version;
        tool_version;
        subcommand;
        argv;
        inputs;
        params = List.sort compare params;
        started;
        finished;
        attachments = List.sort compare attachments;
      }

let read_manifest path =
  let ( let* ) = Result.bind in
  let* text = Json.read_file path in
  let* json = Trace.Json.parse text in
  manifest_of_json json

let load_run dir =
  match read_manifest (Filename.concat dir "manifest.json") with
  | Ok manifest -> Ok { run_dir = dir; run_id = Filename.basename dir; manifest }
  | Error msg -> Error (Printf.sprintf "%s: %s" dir msg)

let scan dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
      let runs =
        Array.to_list entries
        |> List.filter_map (fun entry ->
               let d = Filename.concat dir entry in
               if
                 Sys.is_directory d
                 && Sys.file_exists (Filename.concat d "manifest.json")
               then Result.to_option (load_run d)
               else None)
        |> List.sort (fun a b ->
               compare
                 (a.manifest.started, a.run_id)
                 (b.manifest.started, b.run_id))
      in
      Ok runs

let resolve path =
  if not (Sys.file_exists path) then Error (path ^ ": no such directory")
  else if not (Sys.is_directory path) then Error (path ^ ": not a directory")
  else if Sys.file_exists (Filename.concat path "manifest.json") then
    load_run path
  else
    match scan path with
    | Error msg -> Error msg
    | Ok [] -> Error (path ^ ": no complete run records found")
    | Ok runs -> Ok (List.nth runs (List.length runs - 1))

let read_attachment run name =
  let ( let* ) = Result.bind in
  let* text = Json.read_file (Filename.concat run.run_dir (name ^ ".json")) in
  Trace.Json.parse text

(* --- ledger access --- *)

type ledger_gate = {
  g_index : int;
  g_out : string;
  g_cell : string;
  g_config_before : int;
  g_config_after : int;
  g_power_before : float;
  g_power_after : float;
}

type ledger = {
  l_circuit : string;
  l_total_before : float;
  l_total_after : float;
  l_gates : ledger_gate array;
}

let ledger_of_json json =
  let ( let* ) = Result.bind in
  let str = str "ledger" and num = num "ledger" in
  let* l_circuit = str json "circuit" in
  let* l_total_before = num json "total_before" in
  let* l_total_after = num json "total_after" in
  let* gates =
    match Trace.Json.member "gates" json with
    | Some (Trace.Json.Arr gs) ->
        map_all
          (fun g ->
            let* idx = num g "index" in
            let* g_out = str g "output" in
            let* g_cell = str g "cell" in
            let* config_before = num g "config_before" in
            let* config_after = num g "config_after" in
            let* g_power_before = num g "power_before" in
            let* g_power_after = num g "power_after" in
            Ok
              {
                g_index = int_of_float idx;
                g_out;
                g_cell;
                g_config_before = int_of_float config_before;
                g_config_after = int_of_float config_after;
                g_power_before;
                g_power_after;
              })
          gs
    | _ -> Error "ledger: missing array \"gates\""
  in
  let gates =
    List.sort (fun a b -> compare a.g_index b.g_index) gates |> Array.of_list
  in
  Ok { l_circuit; l_total_before; l_total_after; l_gates = gates }

(* --- diffing --- *)

type gate_drift = {
  gate : string;
  cell : string;
  a_config : int;
  b_config : int;
  a_power : float;
  b_power : float;
}

type value_drift = { metric : string; a_value : float; b_value : float }

type diff = {
  run_a : run;
  run_b : run;
  param_drift : (string * string option * string option) list;
  input_drift : (string * string option * string option) list;
  counters : Regress.violation list;
  flips : gate_drift list;
  power_drift : gate_drift list;
  audit_drift : value_drift list;
  structure : string list;
  notes : string list;
}

(* Timing counters and per-domain scheduling counters measure the
   machine, not the computation; they never participate in a diff. *)
let excluded_counter ignore name =
  String.ends_with ~suffix:"_ns" name
  || String.starts_with ~prefix:"par.domain_" name
  || List.exists (fun p -> String.starts_with ~prefix:p name) ignore

let rel_close rtol a b =
  a = b || Float.abs (a -. b) <= rtol *. Float.max (Float.abs a) (Float.abs b)

let assoc_drift a b =
  let keys =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun key ->
      let va = List.assoc_opt key a and vb = List.assoc_opt key b in
      if va = vb then None else Some (key, va, vb))
    keys

let audit_metrics =
  [
    "mean_density_err_pct"; "max_density_err_pct"; "mean_prob_err";
    "max_prob_err"; "model_total"; "sim_total"; "total_err_pct";
  ]

let diff ?tol ?(rtol = 1e-9) ?(ignore_counters = []) run_a run_b =
  let tol =
    match tol with
    | Some t -> t
    | None -> { Regress.default_tolerance with Regress.check_time = false }
  in
  let structure = ref [] and notes = ref [] in
  let structural msg = structure := msg :: !structure in
  let note msg = notes := msg :: !notes in
  (* Counters from the snapshots, via Regress's inner-join compare. *)
  let target_of run =
    match read_attachment run "snapshot" with
    | Error msg ->
        structural (Printf.sprintf "%s: unreadable snapshot (%s)" run.run_id msg);
        None
    | Ok json ->
        Some
          {
            Regress.name = "run";
            seconds = run.manifest.finished -. run.manifest.started;
            counters =
              Regress.counters_of_snapshot json
              |> List.filter (fun (name, _) ->
                     not (excluded_counter ignore_counters name));
            spans = Regress.spans_of_snapshot json;
          }
  in
  let counters =
    match (target_of run_a, target_of run_b) with
    | Some ta, Some tb -> Regress.compare tol ~baseline:[ ta ] ~current:[ tb ]
    | _ -> []
  in
  (* Ledgers: join gates by index. *)
  let attachment_side name =
    ( List.mem name run_a.manifest.attachments,
      List.mem name run_b.manifest.attachments )
  in
  let load_pair name decode =
    match attachment_side name with
    | false, false -> None
    | true, false ->
        note (Printf.sprintf "%s only in %s" name run_a.run_id);
        None
    | false, true ->
        note (Printf.sprintf "%s only in %s" name run_b.run_id);
        None
    | true, true -> (
        let get run =
          match Result.bind (read_attachment run name) decode with
          | Ok v -> Some v
          | Error msg ->
              structural
                (Printf.sprintf "%s: bad %s attachment (%s)" run.run_id name msg);
              None
        in
        match (get run_a, get run_b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
  in
  let flips = ref [] and power_drift = ref [] and audit_drift = ref [] in
  let value_drift metric a b =
    if not (rel_close rtol a b) then
      audit_drift := { metric; a_value = a; b_value = b } :: !audit_drift
  in
  (match load_pair "ledger" ledger_of_json with
  | None -> ()
  | Some (la, lb) ->
      if la.l_circuit <> lb.l_circuit then
        structural
          (Printf.sprintf "ledger circuits differ: %s vs %s" la.l_circuit
             lb.l_circuit)
      else if Array.length la.l_gates <> Array.length lb.l_gates then
        structural
          (Printf.sprintf "ledger gate counts differ: %d vs %d"
             (Array.length la.l_gates) (Array.length lb.l_gates))
      else begin
        value_drift "ledger.total_before" la.l_total_before lb.l_total_before;
        value_drift "ledger.total_after" la.l_total_after lb.l_total_after;
        Array.iteri
          (fun i ga ->
            let gb = lb.l_gates.(i) in
            let drift =
              {
                gate = ga.g_out;
                cell = ga.g_cell;
                a_config = ga.g_config_after;
                b_config = gb.g_config_after;
                a_power = ga.g_power_after;
                b_power = gb.g_power_after;
              }
            in
            if ga.g_config_after <> gb.g_config_after then
              flips := drift :: !flips
            else if not (rel_close rtol ga.g_power_after gb.g_power_after) then
              power_drift := drift :: !power_drift)
          la.l_gates
      end);
  (* Audit summaries: compare the calibration error metrics. *)
  (match
     load_pair "audit" (fun json ->
         match Trace.Json.member "summary" json with
         | Some _ -> Ok (Json.members "summary" Json.to_float json)
         | None -> Error "audit: missing \"summary\"")
   with
  | None -> ()
  | Some (sa, sb) ->
      List.iter
        (fun metric ->
          match (List.assoc_opt metric sa, List.assoc_opt metric sb) with
          | Some a, Some b -> value_drift ("audit." ^ metric) a b
          | _ -> ())
        audit_metrics);
  {
    run_a;
    run_b;
    param_drift = assoc_drift run_a.manifest.params run_b.manifest.params;
    input_drift = assoc_drift run_a.manifest.inputs run_b.manifest.inputs;
    counters;
    flips = List.rev !flips;
    power_drift = List.rev !power_drift;
    audit_drift = List.rev !audit_drift;
    structure = List.rev !structure;
    notes = List.rev !notes;
  }

let is_clean d =
  d.counters = [] && d.flips = [] && d.power_drift = [] && d.audit_drift = []
  && d.structure = []

let render_diff d =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let opt = function Some v -> v | None -> "(absent)" in
  line "A: %s  (%s, started %.3f)" d.run_a.run_id d.run_a.manifest.subcommand
    d.run_a.manifest.started;
  line "B: %s  (%s, started %.3f)" d.run_b.run_id d.run_b.manifest.subcommand
    d.run_b.manifest.started;
  if d.param_drift <> [] then begin
    line "parameters:";
    List.iter
      (fun (k, va, vb) -> line "  %-16s %s -> %s" k (opt va) (opt vb))
      d.param_drift
  end;
  if d.input_drift <> [] then begin
    line "inputs:";
    List.iter
      (fun (path, va, vb) ->
        line "  %s: %s -> %s" path (opt va) (opt vb))
      d.input_drift
  end;
  List.iter (fun msg -> line "structure: %s" msg) d.structure;
  if d.counters <> [] then begin
    line "counters beyond tolerance:";
    Buffer.add_string b (Regress.render d.counters)
  end;
  if d.flips <> [] then begin
    line "configuration flips:";
    List.iter
      (fun f ->
        line "  %-12s %-10s cfg %d -> %d  (%.4g -> %.4g)" f.gate f.cell
          f.a_config f.b_config f.a_power f.b_power)
      d.flips
  end;
  if d.power_drift <> [] then begin
    line "gate power drift (same configuration):";
    List.iter
      (fun f ->
        line "  %-12s %-10s cfg %d  %.17g -> %.17g" f.gate f.cell f.a_config
          f.a_power f.b_power)
      d.power_drift
  end;
  if d.audit_drift <> [] then begin
    line "value drift:";
    List.iter
      (fun v -> line "  %-28s %.17g -> %.17g" v.metric v.a_value v.b_value)
      d.audit_drift
  end;
  List.iter (fun msg -> line "note: %s" msg) d.notes;
  if is_clean d then line "runs agree within tolerance"
  else
    line "runs differ: %d counter, %d flip, %d power, %d value, %d structure"
      (List.length d.counters) (List.length d.flips)
      (List.length d.power_drift)
      (List.length d.audit_drift)
      (List.length d.structure);
  Buffer.contents b
