(** Lightweight observability for the optimizer pipeline.

    Three instruments, one global-but-resettable registry:

    - {e counters} — named monotonic integers ([bdd.memo_hit],
      [optimizer.configs_explored], ...). Incrementing is a single field
      update; safe in the hottest loops.
    - {e distributions} — named value accumulators (count / sum / min /
      max) for quantities that are sampled rather than counted.
    - {e spans} — nestable timed regions aggregated per name
      (call count, total and worst wall-clock time).

    Instruments are created once (typically at module initialization)
    and live for the whole process; {!reset} zeroes every value but
    keeps the handles valid, so tests can assert on the work performed
    by a single operation via {!reset} + {!snapshot}.

    Counter names follow the [subsystem.verb_noun] scheme, where
    [subsystem] is the library that increments it (e.g. [bdd.node_alloc],
    [switchsim.event_pop]).

    An optional {e trace sink} turns span begin/end transitions and
    counter samples into NDJSON — one self-contained JSON object per
    line — for offline analysis. With the default {!null_sink}
    installed, no event is materialized: the emit paths test one branch
    and return.

    Every instrument is {e domain-safe} (see {{!page-performance} the
    performance page}): counters are atomic integers, so the totals of
    a parallel run equal the sequential totals exactly (increments
    commute); distributions and span aggregates are mutex-guarded; the
    span nesting depth is per-domain; trace-sink writes are serialized
    so concurrent events land as whole lines. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] registers (or retrieves — counters are keyed by
    name) a monotonic counter. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] bumps by [n] ([n >= 0]; negative deltas are a programming
    error and raise). *)

val value : counter -> int

(** {1 Distributions} *)

type distribution

val distribution : string -> distribution
(** Registers (or retrieves) a value distribution. Distributions keep
    every observed value (buffer doubling, cleared by {!reset}) so
    snapshots report exact nearest-rank quantiles; observe at sampled
    (e.g. per-gate) granularity, not in per-transistor hot loops. *)

val observe : distribution -> float -> unit

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside the named timed region. Spans
    nest; the per-name aggregate accumulates call count and wall-clock
    time, and the trace sink (if any) sees begin/end events. The
    nesting depth is restored even when [f] raises. *)

val depth : unit -> int
(** Current span nesting depth in the calling domain (0 outside any
    span). *)

(** {1 Snapshots} *)

type dist_stats = {
  count : int;
  sum : float;
  min : float;  (** 0 when [count = 0] *)
  max : float;  (** 0 when [count = 0] *)
  p50 : float;  (** nearest-rank quantiles; 0 when [count = 0] *)
  p90 : float;
  p99 : float;
}

type span_stats = {
  calls : int;
  total : float;  (** seconds, summed over calls *)
  slowest : float;  (** seconds, worst single call *)
}

type gc_stats = {
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated in the major heap *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  distributions : (string * dist_stats) list;  (** sorted by name *)
  spans : (string * span_stats) list;  (** sorted by name *)
  gc : gc_stats;  (** allocation since the last {!reset} *)
}

val snapshot : unit -> snapshot
(** Consistent copy of every registered instrument's current value.
    Every list is sorted by instrument name, so rendered snapshots are
    diffable across runs. The instrument set is collected under a
    single registry-lock acquisition, so the snapshot's view of which
    instruments exist is coherent even while worker domains register
    new ones. *)

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid), reset the
    calling domain's span depth and re-baseline the GC statistics.
    Does not touch the trace sink. *)

val counter_value : snapshot -> string -> int
(** Convenience lookup; 0 when the name is not in the snapshot. *)

val json_of_snapshot : snapshot -> Json.t
(** The snapshot as one JSON object:
    [{"counters":{...},"distributions":{...},"spans":{...},"gc":{...}}].
    Distribution objects carry [count]/[sum]/[min]/[max] plus the
    [p50]/[p90]/[p99] quantiles. *)

(** {1 NDJSON trace sink} *)

type sink

val null_sink : sink
(** The default: every emit is a no-op. *)

val file_sink : string -> sink
(** [file_sink path] opens [path] for writing; each event becomes one
    JSON object on its own line. Timestamps ([t], seconds) are relative
    to the moment the sink was created and are monotonically
    non-decreasing. Events are
    [{"ev":"span_begin","name":n,"t":s,"depth":d,"dom":k}],
    [{"ev":"span_end","name":n,"t":s,"depth":d,"dt":s,"dom":k}] and
    [{"ev":"counter","name":n,"t":s,"value":v,"dom":k}], where [dom] is
    the emitting domain's {!domain_lane}. *)

val domain_lane : unit -> int
(** A dense per-domain lane number for trace attribution: 0 for the
    domain that initialized this module (the coordinator), and the next
    unclaimed integer for each further domain on its first call. Stable
    for the lifetime of the domain. *)

val set_sink : sink -> unit
(** Install a sink (closing the previously installed one, if any). *)

val tracing : unit -> bool
(** [true] iff a non-null sink is installed. *)

val sample : counter -> unit
(** Emit a [counter] trace event with the counter's current value.
    No-op when {!tracing} is false. *)

val emit_event : ev:string -> (string * Json.t) list -> unit
(** [emit_event ~ev fields] writes one custom NDJSON event
    [{"ev":ev,"t":s,<fields>,"dom":k}] and flushes the sink (so live
    consumers tailing the file see it immediately). This is how the
    telemetry sampler emits [heartbeat] events. No-op when {!tracing}
    is false.
    @raise Invalid_argument on a non-finite number (see {!Json.print}). *)

val json_string : string -> string
(** The JSON string literal of a string: {!Json.print} of a [Str]. *)

val close_sink : unit -> unit
(** Emit one final [counter] sample per registered counter, then flush
    and close the current sink and reinstall {!null_sink}. No-op when
    no file sink is installed. Also registered as an [at_exit] handler,
    so a process that calls [Stdlib.exit] with a file sink installed
    (e.g. a CLI usage error after [--trace] opened the file) still
    leaves a complete, flushed trace behind. *)
