(** Bench regression gating: compare a fresh [BENCH_obs.json] against a
    stored baseline and report violations.

    Two metric families with different failure semantics:

    - {e counters} are deterministic for a fixed seed, so any drift
      beyond a small tolerance — in either direction — is a behavioural
      change worth flagging (an unexplained drop is as suspicious as a
      jump);
    - {e wall-clock} (per-target seconds and per-span totals) is noisy
      and machine-dependent, so only slowdowns beyond a generous
      relative tolerance fail, and the comparison can be disabled
      outright ([check_time = false]) for cross-machine gates like the
      committed CI fixture. *)

type target = {
  name : string;
  seconds : float;
  counters : (string * float) list;  (** sorted by name *)
  spans : (string * float) list;  (** name, total seconds; sorted *)
}

val counters_of_snapshot : Json.t -> (string * float) list
(** The counter map of an {!Obs.json_of_snapshot} document (a run's
    [snapshot.json], a bench target's [metrics]), sorted by name. *)

val spans_of_snapshot : Json.t -> (string * float) list
(** Span name to total seconds, sorted by name. *)

val targets_of_json : Json.t -> (target list, string) result
(** Decode a [BENCH_obs.json] document ([{"targets":[...]}]). *)

val load : string -> (target list, string) result
(** Read and decode one file. *)

type tolerance = {
  counter_rtol : float;  (** relative counter tolerance (default 0.1) *)
  counter_slack : float;  (** absolute counter slack (default 8) *)
  time_rtol : float;  (** allowed relative slowdown (default 0.5) *)
  time_slack : float;  (** absolute slack, seconds (default 0.02) *)
  check_time : bool;  (** compare seconds/spans at all (default true) *)
}

val default_tolerance : tolerance

type violation = {
  target : string;
  metric : string;  (** e.g. ["counter bdd.memo_hit"], ["seconds"] *)
  baseline : float;
  current : float;
  allowed : float;  (** the bound the current value violated *)
}

val compare : tolerance -> baseline:target list -> current:target list -> violation list
(** Compare every target (and, within a target, every counter/span)
    present in {e both} documents; metrics on one side only are
    ignored, so adding a bench target or a counter does not fail the
    gate. Counters named [*_ns] — including per-slot variants such as
    [par.domain_busy_ns.0] — are wall-clock measurements in disguise
    and are skipped, matching [Runlog.diff]'s exclusion policy. The
    result is sorted by target then metric name. *)

val compared_targets : baseline:target list -> current:target list -> string list
(** The target names the comparison covers (sorted). *)

val render : violation list -> string
(** One human-readable line per violation; [""] when the list is
    empty. *)
