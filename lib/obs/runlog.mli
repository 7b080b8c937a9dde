(** Run provenance: self-contained archives of pipeline runs, and the
    cross-run diff engine over them.

    A {e run record} is a directory holding the full story of one
    pipeline invocation — enough to answer "what exactly was this run,
    and how does it differ from that one?" months later:

    - [manifest.json] — tool version, subcommand and argv, the SHA-256
      of every input file, the knobs that determine behaviour (seed,
      jobs, memo, objective, ...), and start/finish timestamps;
    - [snapshot.json] — the full {!Obs.snapshot} of the run (counters,
      distributions, spans, GC), the same document the bench harness
      writes;
    - optional attachments ([ledger.json], [audit.json], ...) — any
      JSON document the producing subcommand wants preserved.

    Records are written atomically in the sense that [manifest.json] is
    written {e last}: a directory without a manifest is an incomplete
    record and is skipped by {!scan}.

    The {!diff} engine compares two records: manifest parameters and
    input hashes (informational), counters with the {!Regress}
    inner-join/tolerance semantics (timing counters and per-domain
    scheduling counters excluded), the attribution ledgers gate by gate
    (configuration flips and power drift), and the audit summaries
    (error-metric drift). {!is_clean} is the exit-code predicate the
    [treorder runs diff] command uses. *)

(** {1 SHA-256} *)

val sha256_hex : string -> string
(** Lowercase hex SHA-256 digest of a string (pure OCaml; used for
    input-file fingerprints in manifests). *)

val sha256_file : string -> (string, string) result
(** Digest of a file's contents; [Error] on I/O failure. *)

(** {1 Writing records} *)

type pending
(** A run record under construction: created at subcommand start,
    accumulated during the run, written once at the end. *)

val start : ?tool_version:string -> subcommand:string -> argv:string list -> unit -> pending
(** Begin a record; the start timestamp is taken now. [tool_version]
    defaults to ["dev"] — the CLI passes its release version. *)

val add_input : pending -> string -> unit
(** Record an input file: the path plus its SHA-256, hashed {e now}
    (before the run can modify it). Unreadable files are recorded with
    the digest ["unreadable"] rather than failing the run. *)

val set_param : pending -> string -> string -> unit
(** Record one behaviour-determining parameter (e.g. ["seed"], ["jobs"],
    ["memo"], ["objective"]). Last write per key wins. *)

val attach : pending -> name:string -> json:string -> unit
(** Attach a pre-rendered JSON document to the record; it is written to
    [<name>.json] in the run directory. [name] must be a plain filename
    component (no separators). *)

val write :
  ?id:string -> dir:string -> snapshot_json:string -> pending -> (string, string) result
(** Finalize: create [dir] (and parents) if needed, pick a run id
    ([subcommand]-[UTC timestamp] by default, uniquified with a numeric
    suffix; an explicit [id] overwrites any existing record of that id),
    write the snapshot and every attachment, then the manifest last.
    Returns the run directory path. *)

(** {1 Reading records} *)

type manifest = {
  version : int;  (** record format version; currently 1 *)
  tool_version : string;
  subcommand : string;
  argv : string list;
  inputs : (string * string) list;  (** path, sha256 *)
  params : (string * string) list;  (** sorted by key *)
  started : float;  (** epoch seconds *)
  finished : float;
  attachments : string list;  (** attachment names, sorted *)
}

type run = { run_dir : string; run_id : string; manifest : manifest }

val read_manifest : string -> (manifest, string) result
(** Parse one [manifest.json] file. *)

val load_run : string -> (run, string) result
(** Load the record in a run directory. *)

val scan : string -> (run list, string) result
(** All complete records directly under an archive directory, sorted by
    start time then id. Directories without a readable manifest are
    skipped silently; [Error] only if the archive itself is unreadable. *)

val resolve : string -> (run, string) result
(** Accept either a run directory or an archive root: a directory with
    a [manifest.json] loads directly, otherwise the latest-started run
    underneath it is used. *)

val read_attachment : run -> string -> (Trace.Json.t, string) result
(** Load and parse [<name>.json] from the run directory. *)

(** {1 Ledger access} *)

type ledger_gate = {
  g_index : int;
  g_out : string;
  g_cell : string;
  g_config_before : int;  (** configuration index *)
  g_config_after : int;
  g_power_before : float;
  g_power_after : float;
}

type ledger = {
  l_circuit : string;
  l_total_before : float;
  l_total_after : float;
  l_gates : ledger_gate array;  (** ordered by gate index *)
}

val ledger_of_json : Trace.Json.t -> (ledger, string) result
(** Decode an [Attrib.to_json] document down to the per-gate power and
    configuration facts the diff engine needs. *)

(** {1 Diffing} *)

val audit_metrics : string list
(** The audit-summary error metrics watched across runs: {!diff}
    compares them, and the fleet history ({!History}) charts them as
    [audit.<metric>]. *)

type gate_drift = {
  gate : string;  (** output net name *)
  cell : string;
  a_config : int;  (** chosen configuration index in each run *)
  b_config : int;
  a_power : float;
  b_power : float;
}

type value_drift = { metric : string; a_value : float; b_value : float }

type diff = {
  run_a : run;
  run_b : run;
  param_drift : (string * string option * string option) list;
      (** key, value in A, value in B — informational *)
  input_drift : (string * string option * string option) list;
      (** path, sha256 in A, sha256 in B — informational *)
  counters : Regress.violation list;
  flips : gate_drift list;  (** chosen configuration differs *)
  power_drift : gate_drift list;  (** same configuration, power moved *)
  audit_drift : value_drift list;
  structure : string list;  (** incomparable-shape errors; failing *)
  notes : string list;  (** tolerated omissions (missing attachment, ...) *)
}

val diff :
  ?tol:Regress.tolerance ->
  ?rtol:float ->
  ?ignore_counters:string list ->
  run ->
  run ->
  diff
(** Compare two records. Counters are inner-joined and checked with
    [tol] (default: {!Regress.default_tolerance} with
    [check_time = false]); names ending in [_ns], names starting with
    [par.domain_], and names starting with any [ignore_counters] prefix
    are excluded (they measure scheduling, not behaviour). Ledger gates
    are joined by index: a different chosen configuration is a flip; the
    same configuration with relative power gap beyond [rtol] (default
    [1e-9]) is power drift. Audit summaries compare their error metrics
    with the same [rtol]. A missing attachment on either side is a
    {e note}, not a failure; malformed attachments and mismatched gate
    counts are {e structure} errors. *)

val is_clean : diff -> bool
(** No counter violations, flips, power drift, audit drift or structure
    errors. Parameter/input drift and notes are informational only. *)

val render_diff : diff -> string
(** Human-readable report: run identities, parameter and input drift,
    then each failing section; ends with a one-line verdict. *)
