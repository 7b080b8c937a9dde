(** Offline analysis of the NDJSON traces written by {!Obs.file_sink}.

    The consumer side of [--trace FILE]: parse the event stream back,
    rebuild the span nesting as a tree with self/total wall-clock time
    per path, recover the final counter values, and export Chrome
    trace-event JSON for [chrome://tracing] / Perfetto.

    Parsing is strict about JSON well-formedness but tolerant about
    stream truncation: a trace cut off mid-run (the process died inside
    a span) still yields the tree of the spans that did complete. *)

(** {1 JSON values} *)

module Json = Json
(** The shared JSON reader and printer, under the name trace consumers
    have always used. *)

(** {1 Events} *)

type event =
  | Span_begin of { name : string; t : float; depth : int; dom : int }
  | Span_end of { name : string; t : float; depth : int; dt : float; dom : int }
  | Counter of { name : string; t : float; value : int; dom : int }
      (** [dom] is the emitting domain's {!Obs.domain_lane}. Traces
          written before domain tagging carry no ["dom"] field and
          parse as domain 0 — exact, since they were single-domain. *)
  | Heartbeat of {
      t : float;
      phase : string;  (** [""] when no phase was registered *)
      percent : float;
      eta_s : float option;
      rates : (string * float) list;
          (** per-second counter rates over the sampling interval
              (zero-rate counters omitted by the writer) *)
      util : float list;  (** per-slot pool busy ratios, in [0, 1] *)
      dom : int;
    }
      (** One telemetry sampler tick (see {!Telemetry}): progress plus
          the sampled rates, emitted a few times per second while the
          sampler runs. [treorder top] tails these. *)

val event_of_line : string -> (event, string) result

val events_of_string : string -> (event list, string) result
(** Parse an NDJSON document (blank lines skipped). The error names the
    offending 1-based line. *)

val load : string -> (event list, string) result
(** [events_of_string] over a file's contents; [Error] on I/O failure. *)

(** {1 Span tree} *)

type tree = {
  name : string;
  calls : int;  (** completed spans at this path *)
  total : float;  (** seconds, summed over calls *)
  self : float;  (** [total] minus the children's [total] *)
  children : tree list;  (** sorted by name *)
}

val span_tree : event list -> tree
(** Aggregate spans by {e path} (the stack of enclosing span names), so
    [optimize.gate] under [optimize.run] is distinct from a top-level
    [optimize.gate]. Nesting is tracked per domain (each domain's spans
    nest relative to that domain's own stack) and identical paths from
    different domains aggregate into the same node. The root is
    synthetic: [name = ""], [calls = 0], [total] = sum of the top-level
    spans. Unmatched [Span_end]s and spans left open by a truncated
    trace are dropped. *)

val render_tree : tree -> string
(** Plain-text rendering, one line per path: total, self, calls, and
    the name indented two spaces per nesting level. Deterministic
    (children sorted by name). *)

val final_counters : event list -> (string * int) list
(** Last sampled value per counter name, sorted by name. *)

(** {1 Chrome trace-event export} *)

val to_chrome : event list -> string
(** The events as a Chrome trace-event JSON document
    ([{"traceEvents":[...]}]): spans become [ph:"B"]/[ph:"E"] duration
    events, counter samples become [ph:"C"] counter events, and
    heartbeats become a [progress.percent] counter track, on [pid 1]
    with one thread lane per domain ([tid = dom + 1], so a [--jobs 4]
    run renders four worker tracks plus the coordinator's), timestamps
    in microseconds. Loadable by [chrome://tracing] and Perfetto.
    @raise Invalid_argument when a timestamp in microseconds or a
    heartbeat percent is not a finite number (see {!Json.print}). *)

(** {1 Folded stacks} *)

val to_folded : tree -> string
(** The span tree as folded stacks, one line per path:
    [outer;inner;leaf <self_ns>] with the value in integer nanoseconds
    of {e self} time — the format flamegraph.pl and speedscope consume
    directly. Semicolons and spaces inside span names are replaced by
    [_]; lines appear in deterministic DFS order. *)
