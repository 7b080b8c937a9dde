(* Live telemetry: a background sampler domain snapshots the Obs
   registry at a fixed cadence into a bounded ring of samples, renders
   every tick as OpenMetrics text (written atomically, tmp + rename)
   and as a [heartbeat] trace event, and self-measures its own cost in
   the [obs.sample_ns] counter so sampler overhead is regression-gated
   like everything the sampler measures. *)

let c_sample_ns = Obs.counter "obs.sample_ns"

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- progress: phases register total work up-front and tick it --- *)

type progress = {
  phase : string;
  total : int;
  done_ : int;
  percent : float;
  eta_s : float option;
}

(* One global phase slot. [progress_tick] is the hot call (per gate /
   per MC block, possibly from worker domains), so completion is a
   plain atomic; the rarely-written phase identity sits behind a
   mutex. Percent is monotone within a phase: a new [progress_begin]
   starts a new denominator. *)
let prog_lock = Mutex.create ()
let prog_phase = ref ""
let prog_total = ref 0
let prog_t0 = ref 0.
let prog_done = Atomic.make 0

let progress_begin ~phase ~total =
  with_lock prog_lock @@ fun () ->
  prog_phase := phase;
  prog_total := Stdlib.max 0 total;
  prog_t0 := Unix.gettimeofday ();
  Atomic.set prog_done 0

let progress_tick ?(n = 1) () =
  if n > 0 then ignore (Atomic.fetch_and_add prog_done n)

let progress () =
  with_lock prog_lock @@ fun () ->
  let phase = !prog_phase and total = !prog_total in
  let raw_done = Atomic.get prog_done in
  let done_ = if total > 0 then Stdlib.min raw_done total else raw_done in
  let percent =
    if total <= 0 then 0.
    else 100. *. float_of_int done_ /. float_of_int total
  in
  let eta_s =
    if total <= 0 || done_ <= 0 then None
    else if done_ >= total then Some 0.
    else
      let elapsed = Unix.gettimeofday () -. !prog_t0 in
      Some (elapsed *. float_of_int (total - done_) /. float_of_int done_)
  in
  { phase; total; done_; percent; eta_s }

(* --- pool utilization source (installed by Par.Pool at link time;
   inverted so treorder.obs does not depend on treorder.par) --- *)

type pool_slot = {
  ps_slot : int;
  ps_busy_ns : int;
  ps_tasks : int;
  ps_running : bool;
}

let pool_source : (unit -> pool_slot array) ref = ref (fun () -> [||])
let set_pool_source f = pool_source := f

(* --- samples --- *)

type slot_util = { u_slot : int; u_busy_ns : int; u_tasks : int; u_ratio : float }

type sample = {
  s_time : float;
  s_counters : (string * int) array;
  s_rates : (string * float) array;
  s_dists : (string * Obs.dist_stats) list;
  s_spans : (string * Obs.span_stats) list;
  s_gc_minor_delta : float;
  s_gc_major_delta : float;
  s_util : slot_util array;
  s_progress : progress;
}

(* Per-second rates between two name-sorted counter arrays. A counter
   absent from [prev] was created mid-interval, so its previous value
   is 0; negative deltas (an [Obs.reset] between samples) clamp to 0. *)
let rates_of ~prev ~dt cur =
  let np = Array.length prev in
  let out = Array.make (Array.length cur) ("", 0.) in
  let j = ref 0 in
  Array.iteri
    (fun i (name, v) ->
      while !j < np && fst prev.(!j) < name do
        incr j
      done;
      let p = if !j < np && fst prev.(!j) = name then snd prev.(!j) else 0 in
      let rate =
        if dt <= 0. then 0.
        else float_of_int (Stdlib.max 0 (v - p)) /. dt
      in
      out.(i) <- (name, rate))
    cur;
  out

(* --- sampler session --- *)

type state = {
  t_interval : float;
  t_capacity : int;
  t_metrics : string option;
  t_t0 : float;
  ring : sample option array;
  mutable head : int; (* next write index *)
  mutable len : int;
  mutable prev : sample option;
  mutable prev_gc : float * float; (* cumulative snapshot GC words *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable dom : unit Domain.t option;
}

let lock = Mutex.create ()
let current : state option ref = ref None

(* Kept after [stop] so the ring stays inspectable post-run. *)
let last_state : state option ref = ref None

let running () = with_lock lock (fun () -> Option.is_some !current)

let series_of st =
  let out = ref [] in
  for i = st.len - 1 downto 0 do
    let idx = (st.head - 1 - i + (2 * st.t_capacity)) mod st.t_capacity in
    match st.ring.(idx) with Some s -> out := s :: !out | None -> ()
  done;
  List.rev !out

let active_or_last () =
  with_lock lock @@ fun () ->
  match !current with Some _ as s -> s | None -> !last_state

let series () =
  match active_or_last () with
  | None -> []
  | Some st -> with_lock lock (fun () -> series_of st)

let last () =
  match active_or_last () with
  | None -> None
  | Some st -> with_lock lock (fun () -> st.prev)

(* --- OpenMetrics exposition --- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

(* Per-slot pool counters ([par.domain_busy_ns.3], ...) fold into one
   metric family with a [slot] label; everything else maps 1:1. *)
let metric_of_counter name =
  let is_digits s =
    s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
  in
  let par_slot =
    if String.length name > 11 && String.sub name 0 11 = "par.domain_" then
      match String.rindex_opt name '.' with
      | Some i when i > 0 && i < String.length name - 1 ->
          let suffix = String.sub name (i + 1) (String.length name - i - 1) in
          if is_digits suffix then Some (String.sub name 0 i, suffix) else None
      | _ -> None
    else None
  in
  match par_slot with
  | Some (family, slot) -> ("treorder_" ^ sanitize family, [ ("slot", slot) ])
  | None -> ("treorder_" ^ sanitize name, [])

let render_labels b labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b k;
          Buffer.add_string b "=\"";
          String.iter
            (fun c ->
              match c with
              | '\\' -> Buffer.add_string b "\\\\"
              | '"' -> Buffer.add_string b "\\\""
              | '\n' -> Buffer.add_string b "\\n"
              | c -> Buffer.add_char b c)
            v;
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

(* OpenMetrics has spellings for the values JSON lacks. *)
let num x =
  if Float.is_nan x then "NaN"
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if x > 0. then "+Inf"
  else "-Inf"

(* [samples] are (name-suffix, labels, rendered value). *)
let family b ~name ~typ ~help samples =
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
  List.iter
    (fun (suffix, labels, v) ->
      Buffer.add_string b name;
      Buffer.add_string b suffix;
      render_labels b labels;
      Buffer.add_char b ' ';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    samples

let to_openmetrics s =
  let b = Buffer.create 2048 in
  family b ~name:"treorder_sample_time_seconds" ~typ:"gauge"
    ~help:"Seconds since the telemetry session started"
    [ ("", [], num s.s_time) ];
  (* Counters: name-sorted, so the per-slot members of a labeled family
     are consecutive and fold into one # TYPE block. *)
  let i = ref 0 in
  let n = Array.length s.s_counters in
  while !i < n do
    let cname, _ = s.s_counters.(!i) in
    let fam, _ = metric_of_counter cname in
    let members = ref [] in
    while
      !i < n
      &&
      let f, _ = metric_of_counter (fst s.s_counters.(!i)) in
      f = fam
    do
      let name, v = s.s_counters.(!i) in
      let _, labels = metric_of_counter name in
      members := ("_total", labels, string_of_int v) :: !members;
      incr i
    done;
    family b ~name:fam ~typ:"counter" ~help:"Obs counter" (List.rev !members)
  done;
  family b ~name:"treorder_rate_per_second" ~typ:"gauge"
    ~help:"Per-second counter rate over the last sampling interval"
    (List.map
       (fun (name, r) -> ("", [ ("counter", name) ], num r))
       (Array.to_list s.s_rates));
  List.iter
    (fun (name, (d : Obs.dist_stats)) ->
      let fam = "treorder_dist_" ^ sanitize name in
      family b ~name:fam ~typ:"summary"
        ~help:("Obs distribution " ^ name)
        [
          ("", [ ("quantile", "0.5") ], num d.Obs.p50);
          ("", [ ("quantile", "0.9") ], num d.Obs.p90);
          ("", [ ("quantile", "0.99") ], num d.Obs.p99);
          ("_sum", [], num d.Obs.sum);
          ("_count", [], string_of_int d.Obs.count);
        ])
    s.s_dists;
  if s.s_spans <> [] then begin
    family b ~name:"treorder_span_seconds" ~typ:"gauge"
      ~help:"Total wall-clock seconds per Obs span"
      (List.map
         (fun (name, (sp : Obs.span_stats)) ->
           ("", [ ("span", name) ], num sp.Obs.total))
         s.s_spans);
    family b ~name:"treorder_span_calls" ~typ:"gauge"
      ~help:"Call count per Obs span"
      (List.map
         (fun (name, (sp : Obs.span_stats)) ->
           ("", [ ("span", name) ], string_of_int sp.Obs.calls))
         s.s_spans)
  end;
  family b ~name:"treorder_gc_minor_words_delta" ~typ:"gauge"
    ~help:"Minor heap words allocated during the last sampling interval"
    [ ("", [], num s.s_gc_minor_delta) ];
  family b ~name:"treorder_gc_major_words_delta" ~typ:"gauge"
    ~help:"Major heap words allocated during the last sampling interval"
    [ ("", [], num s.s_gc_major_delta) ];
  if Array.length s.s_util > 0 then begin
    let slots f =
      Array.to_list
        (Array.map
           (fun u -> ("", [ ("slot", string_of_int u.u_slot) ], f u))
           s.s_util)
    in
    family b ~name:"treorder_pool_busy" ~typ:"counter"
      ~help:"Cumulative nanoseconds each pool slot spent running tasks"
      (List.map
         (fun (_, l, v) -> ("_total", l, v))
         (slots (fun u -> string_of_int u.u_busy_ns)));
    family b ~name:"treorder_pool_tasks" ~typ:"counter"
      ~help:"Cumulative tasks each pool slot has completed"
      (List.map
         (fun (_, l, v) -> ("_total", l, v))
         (slots (fun u -> string_of_int u.u_tasks)));
    family b ~name:"treorder_pool_busy_ratio" ~typ:"gauge"
      ~help:"Busy fraction of each pool slot over the last interval"
      (slots (fun u -> num u.u_ratio))
  end;
  (if s.s_progress.phase <> "" then
     let p = s.s_progress in
     let l = [ ("phase", p.phase) ] in
     family b ~name:"treorder_progress_percent" ~typ:"gauge"
       ~help:"Percent of the registered work completed in the current phase"
       [ ("", l, num p.percent) ];
     family b ~name:"treorder_progress_done" ~typ:"gauge"
       ~help:"Completed work units in the current phase"
       [ ("", l, string_of_int p.done_) ];
     family b ~name:"treorder_progress_total" ~typ:"gauge"
       ~help:"Registered work units in the current phase"
       [ ("", l, string_of_int p.total) ];
     match p.eta_s with
     | None -> ()
     | Some eta ->
         family b ~name:"treorder_progress_eta_seconds" ~typ:"gauge"
           ~help:"Estimated seconds until the current phase completes"
           [ ("", l, num eta) ]);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* --- strict OpenMetrics line parser (tests, oracle, @check gate) --- *)

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_value : float;
}

let valid_metric_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let valid_label_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name

exception Bad of string

let parse_sample_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do
    incr i
  done;
  let name = String.sub line 0 !i in
  if not (valid_metric_name name) then
    raise (Bad (Printf.sprintf "invalid metric name %S" name));
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let fin = ref false in
    while not !fin do
      if !i >= n then raise (Bad "unterminated label set");
      if line.[!i] = '}' then begin
        incr i;
        fin := true
      end
      else begin
        let j = ref !i in
        while !j < n && line.[!j] <> '=' do
          incr j
        done;
        if !j >= n then raise (Bad "label without '='");
        let lname = String.sub line !i (!j - !i) in
        if not (valid_label_name lname) then
          raise (Bad (Printf.sprintf "invalid label name %S" lname));
        i := !j + 1;
        if !i >= n || line.[!i] <> '"' then
          raise (Bad "label value must be quoted");
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= n then raise (Bad "unterminated label value");
          (match line.[!i] with
          | '\\' ->
              if !i + 1 >= n then raise (Bad "dangling escape");
              (match line.[!i + 1] with
              | '\\' -> Buffer.add_char buf '\\'
              | '"' -> Buffer.add_char buf '"'
              | 'n' -> Buffer.add_char buf '\n'
              | c -> raise (Bad (Printf.sprintf "bad escape '\\%c'" c)));
              i := !i + 2
          | '"' ->
              closed := true;
              incr i
          | c ->
              Buffer.add_char buf c;
              incr i)
        done;
        labels := (lname, Buffer.contents buf) :: !labels;
        if !i < n && line.[!i] = ',' then incr i
        else if !i >= n || line.[!i] <> '}' then
          raise (Bad "expected ',' or '}' after label")
      end
    done
  end;
  if !i >= n || line.[!i] <> ' ' then
    raise (Bad "expected single space before value");
  let value_str = String.sub line (!i + 1) (n - !i - 1) in
  if value_str = "" || String.contains value_str ' ' then
    raise (Bad "malformed value field");
  match float_of_string_opt value_str with
  | None -> raise (Bad (Printf.sprintf "unparseable value %S" value_str))
  | Some v -> { m_name = name; m_labels = List.rev !labels; m_value = v }

let known_types = [ "counter"; "gauge"; "summary"; "histogram"; "info" ]

(* The family a sample name belongs to, given the declared families. *)
let family_of types name =
  let try_strip suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      let fam = String.sub name 0 (ln - ls) in
      if Hashtbl.mem types fam then Some (fam, suffix) else None
    else None
  in
  if Hashtbl.mem types name then Some (name, "")
  else
    List.find_map try_strip [ "_total"; "_sum"; "_count"; "_bucket" ]

let suffix_ok typ suffix has_quantile =
  match (typ, suffix) with
  | "counter", "_total" -> true
  | "counter", _ -> false
  | "gauge", "" -> true
  | "gauge", _ -> false
  | "summary", "" -> has_quantile
  | "summary", ("_sum" | "_count") -> true
  | "summary", _ -> false
  | "histogram", ("_bucket" | "_sum" | "_count") -> true
  | "histogram", _ -> false
  | _, _ -> true

let parse_openmetrics text =
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let out = ref [] in
  let eof = ref false in
  let err = ref None in
  let fail lineno msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if !err = None then
        if !eof then begin
          if line <> "" then fail lineno "content after # EOF"
        end
        else if line = "" then fail lineno "blank line"
        else if line = "# EOF" then eof := true
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail lineno "# HELP without text"
          | Some sp ->
              let name = String.sub line 7 (sp - 7) in
              if not (valid_metric_name name) then
                fail lineno (Printf.sprintf "# HELP for invalid name %S" name)
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail lineno "# TYPE without a type"
          | Some sp ->
              let name = String.sub line 7 (sp - 7) in
              let typ = String.sub line (sp + 1) (String.length line - sp - 1) in
              if not (valid_metric_name name) then
                fail lineno (Printf.sprintf "# TYPE for invalid name %S" name)
              else if not (List.mem typ known_types) then
                fail lineno (Printf.sprintf "unknown type %S" typ)
              else if Hashtbl.mem types name then
                fail lineno (Printf.sprintf "duplicate # TYPE for %S" name)
              else Hashtbl.add types name typ
        end
        else if line.[0] = '#' then fail lineno "unrecognized comment line"
        else
          match parse_sample_line line with
          | exception Bad msg -> fail lineno msg
          | m -> (
              match family_of types m.m_name with
              | None ->
                  fail lineno
                    (Printf.sprintf "sample %S has no declared # TYPE" m.m_name)
              | Some (fam, suffix) ->
                  let typ = Hashtbl.find types fam in
                  let has_quantile = List.mem_assoc "quantile" m.m_labels in
                  if not (suffix_ok typ suffix has_quantile) then
                    fail lineno
                      (Printf.sprintf "sample %S inconsistent with type %s"
                         m.m_name typ)
                  else out := m :: !out))
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      if not !eof then Error "missing # EOF terminator"
      else Ok (List.rev !out)

let metric_value metrics ?(labels = []) name =
  List.find_map
    (fun m ->
      if
        m.m_name = name
        && List.for_all
             (fun (k, v) -> List.assoc_opt k m.m_labels = Some v)
             labels
      then Some m.m_value
      else None)
    metrics

(* --- taking a sample --- *)

let write_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc text;
  close_out oc;
  Sys.rename tmp path

let heartbeat_fields s =
  let p = s.s_progress in
  [ ("phase", Json.Str p.phase); ("percent", Json.Num p.percent) ]
  @ (match p.eta_s with None -> [] | Some eta -> [ ("eta_s", Json.Num eta) ])
  @ [
      ( "rates",
        Json.Obj
          (Array.to_list s.s_rates
          |> List.filter_map (fun (n, r) ->
                 if r > 0. then Some (n, Json.Num r) else None)) );
      ( "util",
        Json.Arr
          (Array.to_list (Array.map (fun u -> Json.Num u.u_ratio) s.s_util)) );
    ]

let take_sample st =
  let t_tick0 = Unix.gettimeofday () in
  let snap = Obs.snapshot () in
  let counters = Array.of_list snap.Obs.counters in
  let slots = !pool_source () in
  let prev, (pg_min, pg_maj) =
    with_lock lock (fun () -> (st.prev, st.prev_gc))
  in
  let t_rel = t_tick0 -. st.t_t0 in
  let dt = match prev with None -> t_rel | Some p -> t_rel -. p.s_time in
  let rates =
    rates_of
      ~prev:(match prev with None -> [||] | Some p -> p.s_counters)
      ~dt counters
  in
  let prev_busy slot =
    match prev with
    | None -> 0
    | Some p ->
        Array.fold_left
          (fun acc u -> if u.u_slot = slot then u.u_busy_ns else acc)
          0 p.s_util
  in
  let util =
    Array.map
      (fun ps ->
        let d_busy = Stdlib.max 0 (ps.ps_busy_ns - prev_busy ps.ps_slot) in
        let ratio =
          if dt <= 0. then 0.
          else Float.min 1. (float_of_int d_busy /. (dt *. 1e9))
        in
        {
          u_slot = ps.ps_slot;
          u_busy_ns = ps.ps_busy_ns;
          u_tasks = ps.ps_tasks;
          u_ratio = ratio;
        })
      slots
  in
  let cum_min = snap.Obs.gc.Obs.minor_words
  and cum_maj = snap.Obs.gc.Obs.major_words in
  let s =
    {
      s_time = t_rel;
      s_counters = counters;
      s_rates = rates;
      s_dists = snap.Obs.distributions;
      s_spans = snap.Obs.spans;
      s_gc_minor_delta = Float.max 0. (cum_min -. pg_min);
      s_gc_major_delta = Float.max 0. (cum_maj -. pg_maj);
      s_util = util;
      s_progress = progress ();
    }
  in
  with_lock lock (fun () ->
      st.ring.(st.head) <- Some s;
      st.head <- (st.head + 1) mod st.t_capacity;
      st.len <- Stdlib.min (st.len + 1) st.t_capacity;
      st.prev <- Some s;
      st.prev_gc <- (cum_min, cum_maj));
  (match st.t_metrics with
  | None -> ()
  | Some path -> write_atomic path (to_openmetrics s));
  if Obs.tracing () then Obs.emit_event ~ev:"heartbeat" (heartbeat_fields s);
  let cost_ns = int_of_float ((Unix.gettimeofday () -. t_tick0) *. 1e9) in
  Obs.add c_sample_ns (Stdlib.max 0 cost_ns);
  s

(* --- lifecycle --- *)

let sampler_loop st =
  let rec go () =
    match Unix.select [ st.stop_r ] [] [] st.t_interval with
    | [], _, _ ->
        ignore (take_sample st);
        go ()
    | _ :: _, _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ?(interval = 0.25) ?(capacity = 1024) ?metrics_file () =
  if capacity < 1 then invalid_arg "Telemetry.start: capacity must be >= 1";
  let fresh =
    with_lock lock @@ fun () ->
    match !current with
    | Some _ -> None (* already running: idempotent no-op *)
    | None ->
        let snap = Obs.snapshot () in
        let stop_r, stop_w = Unix.pipe () in
        let st =
          {
            t_interval = interval;
            t_capacity = capacity;
            t_metrics = metrics_file;
            t_t0 = Unix.gettimeofday ();
            ring = Array.make capacity None;
            head = 0;
            len = 0;
            prev = None;
            prev_gc =
              (snap.Obs.gc.Obs.minor_words, snap.Obs.gc.Obs.major_words);
            stop_r;
            stop_w;
            dom = None;
          }
        in
        current := Some st;
        Some st
  in
  match fresh with
  | None -> ()
  | Some st ->
      (* Interval 0 (or negative) means manual mode: no background
         domain, ticks come from [sample_now] — used by tests and the
         bench harness to make sample counts deterministic. *)
      if interval > 0. then
        st.dom <- Some (Domain.spawn (fun () -> sampler_loop st))

let sample_now () =
  match with_lock lock (fun () -> !current) with
  | None -> None
  | Some st -> Some (take_sample st)

let stop () =
  let st_opt =
    with_lock lock @@ fun () ->
    let s = !current in
    current := None;
    s
  in
  match st_opt with
  | None -> ()
  | Some st ->
      (try ignore (Unix.write st.stop_w (Bytes.of_string "x") 0 1)
       with Unix.Unix_error _ -> ());
      Option.iter Domain.join st.dom;
      st.dom <- None;
      (try Unix.close st.stop_w with Unix.Unix_error _ -> ());
      (try Unix.close st.stop_r with Unix.Unix_error _ -> ());
      (* Final forced sample, taken after the sampler domain has
         joined: the newest ring entry therefore reflects the final
         registry state (modulo obs.sample_ns, whose final-tick cost
         can only land after the tick read the counters). *)
      ignore (take_sample st);
      with_lock lock (fun () -> last_state := Some st)
