(* Bench-side spans for the traced run. They wrap calls into each layer's
   public function from the harness's own code, not the program's
   Obs.span instrument, so the layer table does not depend on how the
   program instruments itself. Events stay in memory and are written
   once, at the end, as the repo's trace NDJSON (span_begin / span_end,
   word deltas as counter events), which `treorder trace report` and
   `trace chrome` read unchanged. *)

(* A completed span; its parent is the enclosing span, which the
   written trace records by nesting. *)
type span = {
  name : string;
  seconds : float;
  minor_words : float;
}

type event =
  | Begin of { name : string; t : float; depth : int }
  | End of { name : string; t : float; depth : int; dt : float }
  | Count of { name : string; t : float; value : int }

type t = {
  workload : string;
  t0 : float;
  mutable depth : int;  (** open spans *)
  mutable events : event list;  (** newest first *)
  mutable spans : span list;  (** completed, newest first *)
}

let create ~workload = { workload; t0 = Usage.now (); depth = 0; events = []; spans = [] }

let major_words () = (Gc.quick_stat ()).Gc.major_words

let span t name f =
  let depth = t.depth in
  t.depth <- depth + 1;
  let minor0 = Gc.minor_words () and major0 = major_words () in
  let start = Usage.now () in
  t.events <- Begin { name; t = start -. t.t0; depth } :: t.events;
  let finish () =
    let stop = Usage.now () in
    let minor = Gc.minor_words () -. minor0 in
    let major = major_words () -. major0 in
    t.depth <- depth;
    let at = stop -. t.t0 in
    t.events <-
      Count { name = name ^ ".major_words"; t = at; value = int_of_float major }
      :: Count { name = name ^ ".minor_words"; t = at; value = int_of_float minor }
      :: End { name; t = at; depth; dt = stop -. start }
      :: t.events;
    t.spans <-
      { name; seconds = stop -. start; minor_words = minor }
      :: t.spans
  in
  Fun.protect ~finally:finish f

(* The last completed span of that name. *)
let find t name =
  match List.find_opt (fun (s : span) -> s.name = name) t.spans with
  | Some s -> s
  | None -> invalid_arg ("Spans.find: no span " ^ name)

let all t name = List.rev (List.filter (fun (s : span) -> s.name = name) t.spans)

let to_ndjson t =
  let b = Buffer.create 4096 in
  let common ev name at =
    Printf.bprintf b "{\"ev\":\"%s\",\"name\":%s,\"t\":%.9f,\"workload\":%s," ev
      (Obs.json_string name) at (Obs.json_string t.workload)
  in
  List.iter
    (function
      | Begin { name; t = at; depth } ->
          common "span_begin" name at;
          Printf.bprintf b "\"depth\":%d,\"dom\":0}\n" depth
      | End { name; t = at; depth; dt } ->
          common "span_end" name at;
          Printf.bprintf b "\"depth\":%d,\"dt\":%.9f,\"dom\":0}\n" depth dt
      | Count { name; t = at; value } ->
          common "counter" name at;
          Printf.bprintf b "\"value\":%d,\"dom\":0}\n" value)
    (List.rev t.events);
  Buffer.contents b
