(* Domain-safety: counters are Atomic ints (increments commute, so the
   totals under a parallel run equal the sequential totals exactly);
   distributions and span aggregates take a per-instrument mutex; the
   registry tables and the trace sink take their own locks; the span
   nesting depth is domain-local storage so worker spans nest
   independently of the coordinator's. *)

type counter = { c_name : string; c_value : int Atomic.t }

type distribution = {
  d_name : string;
  d_lock : Mutex.t;
  mutable d_count : int;
  mutable d_sum : float;
  mutable d_min : float;
  mutable d_max : float;
  (* Every observed value, kept so snapshots can report true quantiles.
     Distributions are sampled at per-gate granularity (not in the
     per-transistor hot loops), so the buffer stays small. *)
  mutable d_samples : float array;
  mutable d_len : int;
}

type span_agg = {
  s_name : string;
  s_lock : Mutex.t;
  mutable s_calls : int;
  mutable s_total : float;
  mutable s_slowest : float;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let distributions : (string, distribution) Hashtbl.t = Hashtbl.create 16
let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 16

(* Guards the three registry tables (instrument creation can race when
   worker domains force a module's initialization). *)
let registry_lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let counter name =
  with_lock registry_lock @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c

let incr c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg "Obs.add: negative delta";
  ignore (Atomic.fetch_and_add c.c_value n)

let value c = Atomic.get c.c_value

let distribution name =
  with_lock registry_lock @@ fun () ->
  match Hashtbl.find_opt distributions name with
  | Some d -> d
  | None ->
      let d =
        {
          d_name = name;
          d_lock = Mutex.create ();
          d_count = 0;
          d_sum = 0.;
          d_min = 0.;
          d_max = 0.;
          d_samples = [||];
          d_len = 0;
        }
      in
      Hashtbl.add distributions name d;
      d

let observe d x =
  with_lock d.d_lock @@ fun () ->
  if d.d_count = 0 then begin
    d.d_min <- x;
    d.d_max <- x
  end
  else begin
    if x < d.d_min then d.d_min <- x;
    if x > d.d_max then d.d_max <- x
  end;
  d.d_count <- d.d_count + 1;
  d.d_sum <- d.d_sum +. x;
  let cap = Array.length d.d_samples in
  if d.d_len = cap then begin
    let grown = Array.make (if cap = 0 then 16 else 2 * cap) 0. in
    Array.blit d.d_samples 0 grown 0 cap;
    d.d_samples <- grown
  end;
  d.d_samples.(d.d_len) <- x;
  d.d_len <- d.d_len + 1

(* Nearest-rank quantile over the recorded samples: the smallest value
   such that at least [q·count] samples are <= it. *)
let quantile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)))

let span_agg name =
  with_lock registry_lock @@ fun () ->
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = name;
          s_lock = Mutex.create ();
          s_calls = 0;
          s_total = 0.;
          s_slowest = 0.;
        }
      in
      Hashtbl.add spans name s;
      s

(* --- trace sink --- *)

let now = Unix.gettimeofday

type sink = Null | File of { oc : out_channel; t0 : float }

(* Guards both the installed-sink reference and writes through it, so
   events from concurrent domains land as whole lines. *)
let sink_lock = Mutex.create ()
let current_sink = ref Null
let null_sink = Null
let file_sink path = File { oc = open_out path; t0 = now () }

let tracing () =
  with_lock sink_lock @@ fun () ->
  match !current_sink with Null -> false | File _ -> true

let json_string s = Json.print (Json.Str s)

(* One event line, [{"ev":ev,"name":n,"t":s,<fields>,"dom":k}] (no
   "name" when [name] is absent). The caller holds [sink_lock], so lines
   from concurrent domains never interleave. *)
let write_event oc t0 ~ev ?name ~dom fields =
  let named =
    match name with Some n -> [ ("name", Json.Str n) ] | None -> []
  in
  output_string oc
    (Json.ndjson
       [
         Json.Obj
           ((("ev", Json.Str ev) :: named)
           @ (("t", Json.Num (now () -. t0)) :: fields)
           @ [ ("dom", Json.int dom) ]);
       ])

(* Trace lane per domain: lane 0 is the domain that loaded this module
   (the coordinator), workers claim the next free lane on their first
   event. Domain ids themselves are not reused-stable across pools, so
   lanes — dense, first-event-ordered — make nicer Chrome tracks. *)
let lane_next = Atomic.make 0
let lane_key = Domain.DLS.new_key (fun () -> ref (-1))

let domain_lane () =
  let r = Domain.DLS.get lane_key in
  if !r < 0 then r := Atomic.fetch_and_add lane_next 1;
  !r

let () = ignore (domain_lane ())

let emit_span_begin name d =
  let dom = domain_lane () in
  with_lock sink_lock @@ fun () ->
  match !current_sink with
  | Null -> ()
  | File { oc; t0 } ->
      write_event oc t0 ~ev:"span_begin" ~name ~dom [ ("depth", Json.int d) ]

let emit_span_end name d dt =
  let dom = domain_lane () in
  with_lock sink_lock @@ fun () ->
  match !current_sink with
  | Null -> ()
  | File { oc; t0 } ->
      write_event oc t0 ~ev:"span_end" ~name ~dom
        [ ("depth", Json.int d); ("dt", Json.Num dt) ]

let emit_counter_locked c =
  match !current_sink with
  | Null -> ()
  | File { oc; t0 } ->
      write_event oc t0 ~ev:"counter" ~name:c.c_name ~dom:(domain_lane ())
        [ ("value", Json.int (Atomic.get c.c_value)) ]

let sample c = with_lock sink_lock (fun () -> emit_counter_locked c)

(* Custom event. Flushed eagerly — heartbeats are emitted a few times
   per second and must be visible to a live [treorder top] tailing the
   file. *)
let emit_event ~ev fields =
  let dom = domain_lane () in
  with_lock sink_lock @@ fun () ->
  match !current_sink with
  | Null -> ()
  | File { oc; t0 } ->
      write_event oc t0 ~ev ~dom fields;
      flush oc

let set_sink s =
  with_lock sink_lock @@ fun () ->
  (match !current_sink with
  | File { oc; _ } -> close_out oc
  | Null -> ());
  current_sink := s

(* Name-sorted instrument list under a single registry-lock
   acquisition. Readers that iterate the registry (snapshots, the
   telemetry sampler tick, the final counter flush) get a coherent view
   of the name set instead of interleaving one lock round-trip per
   instrument with concurrent registrations. *)
let registered tbl =
  with_lock registry_lock @@ fun () ->
  List.sort
    (fun (a, _) (b, _) -> compare (a : string) b)
    (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])

let close_sink () =
  let regs = registered counters in
  with_lock sink_lock @@ fun () ->
  match !current_sink with
  | Null -> ()
  | File { oc; _ } ->
      List.iter (fun (_, c) -> emit_counter_locked c) regs;
      current_sink := Null;
      close_out oc

(* [Stdlib.exit] (e.g. a Cmdliner usage error after [--trace FILE]
   already opened the sink) does not unwind [Fun.protect] finalizers,
   but it does run [at_exit] — so a sink left open by an early exit is
   still flushed and closed rather than truncated mid-line. *)
let () = at_exit close_sink

(* --- spans --- *)

(* Nesting depth is per domain: a worker task's spans nest relative to
   that worker, not to whatever the coordinator is timing. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let depth () = !(Domain.DLS.get depth_key)

let span name f =
  let s = span_agg name in
  let depth_ref = Domain.DLS.get depth_key in
  let d = !depth_ref in
  emit_span_begin name d;
  depth_ref := d + 1;
  let t_start = now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = now () -. t_start in
      depth_ref := d;
      with_lock s.s_lock (fun () ->
          s.s_calls <- s.s_calls + 1;
          s.s_total <- s.s_total +. dt;
          if dt > s.s_slowest then s.s_slowest <- dt);
      emit_span_end name d dt)
    f

(* --- snapshots --- *)

type dist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type span_stats = { calls : int; total : float; slowest : float }
type gc_stats = { minor_words : float; major_words : float }

(* GC words are reported relative to the last [reset], so a snapshot
   describes the allocation of one measured operation, matching the
   counter/span semantics. Only the snapshotting domain's heap is
   visible here. *)
let gc_base = ref (0., 0.)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let () = gc_base := gc_words ()

type snapshot = {
  counters : (string * int) list;
  distributions : (string * dist_stats) list;
  spans : (string * span_stats) list;
  gc : gc_stats;
}

let snapshot () =
  let minor_now, major_now = gc_words () in
  let minor_base, major_base = !gc_base in
  {
    counters =
      List.map
        (fun (name, c) -> (name, Atomic.get c.c_value))
        (registered counters);
    distributions =
      List.map
        (fun (name, d) ->
          with_lock d.d_lock @@ fun () ->
          let sorted = Array.sub d.d_samples 0 d.d_len in
          Array.sort compare sorted;
          ( name,
            {
              count = d.d_count;
              sum = d.d_sum;
              min = d.d_min;
              max = d.d_max;
              p50 = quantile_of_sorted sorted 0.50;
              p90 = quantile_of_sorted sorted 0.90;
              p99 = quantile_of_sorted sorted 0.99;
            } ))
        (registered distributions);
    spans =
      List.map
        (fun (name, s) ->
          with_lock s.s_lock @@ fun () ->
          (name, { calls = s.s_calls; total = s.s_total; slowest = s.s_slowest }))
        (registered spans);
    gc =
      {
        minor_words = minor_now -. minor_base;
        major_words = major_now -. major_base;
      };
  }

let reset () =
  List.iter
    (fun (_, c) -> Atomic.set c.c_value 0)
    (registered counters);
  List.iter
    (fun (_, d) ->
      with_lock d.d_lock @@ fun () ->
      d.d_count <- 0;
      d.d_sum <- 0.;
      d.d_min <- 0.;
      d.d_max <- 0.;
      d.d_samples <- [||];
      d.d_len <- 0)
    (registered distributions);
  List.iter
    (fun (_, s) ->
      with_lock s.s_lock @@ fun () ->
      s.s_calls <- 0;
      s.s_total <- 0.;
      s.s_slowest <- 0.)
    (registered spans);
  Domain.DLS.get depth_key := 0;
  gc_base := gc_words ()

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let json_of_snapshot snap =
  let obj value fields =
    Json.Obj (List.map (fun (name, v) -> (name, value v)) fields)
  in
  Json.Obj
       [
         ("counters", obj Json.int snap.counters);
         ( "distributions",
           obj
             (fun (d : dist_stats) ->
               Json.Obj
                 [
                   ("count", Json.int d.count);
                   ("sum", Json.Num d.sum);
                   ("min", Json.Num d.min);
                   ("max", Json.Num d.max);
                   ("p50", Json.Num d.p50);
                   ("p90", Json.Num d.p90);
                   ("p99", Json.Num d.p99);
                 ])
             snap.distributions );
         ( "spans",
           obj
             (fun (s : span_stats) ->
               Json.Obj
                 [
                   ("calls", Json.int s.calls);
                   ("total_s", Json.Num s.total);
                   ("slowest_s", Json.Num s.slowest);
                 ])
             snap.spans );
         ( "gc",
           Json.Obj
             [
               ("minor_words", Json.Num snap.gc.minor_words);
               ("major_words", Json.Num snap.gc.major_words);
             ] );
     ]
