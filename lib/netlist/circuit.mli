(** Gate-level combinational circuits over the {!Cell.Gate} library.

    A circuit is a DAG of gate instances connected by nets. Every net is
    driven either by exactly one gate output or by a primary input; a
    gate instance carries the index of its chosen transistor
    configuration (into [Cell.Config.all]), which is what the optimizer
    rewrites. Construct circuits with {!Builder} or {!Io}; direct
    construction goes through {!create}, which checks every structural
    invariant. *)

type net = int

type gate = {
  cell : Cell.Gate.t;
  config : int;  (** index into [Cell.Config.all cell] *)
  fanins : net array;  (** length = arity; [fanins.(pin)] *)
  output : net;
}

type t

type driver = Primary_input | Driven_by of int  (** gate index *)

exception Invalid of string
(** Raised by {!create} with a description of the violated invariant. *)

val create :
  name:string ->
  net_names:string array ->
  primary_inputs:net list ->
  primary_outputs:net list ->
  gates:gate list ->
  t
(** Validates: arities match, configuration indices are in range, each
    net has exactly one driver (gate output or primary input), names are
    unique and non-empty, primary outputs exist, and the gate graph is
    acyclic. @raise Invalid otherwise. *)

(** {1 Accessors} *)

val name : t -> string
val net_count : t -> int
val gate_count : t -> int
val gates : t -> gate array
(** Fresh copy; gate indices are positions in this array. *)

val gate_at : t -> int -> gate
val primary_inputs : t -> net list
val primary_outputs : t -> net list
val net_name : t -> net -> string
val net_of_name : t -> string -> net option
val driver : t -> net -> driver
val readers : t -> net -> (int * int) list
(** Gates reading a net, as [(gate index, pin)] pairs. *)

val fanout : t -> net -> int list
(** Gates reading the net — {!readers} deduplicated by gate, ascending
    by gate index. Precomputed at {!create}; O(1) per call. *)

val fanout_count : t -> net -> int
(** Number of gate input pins the net drives (a multi-input gate
    reading the net twice counts twice). *)

val fanout_cone : t -> net list -> bool array
(** [fanout_cone t nets] marks every gate in the union of the
    transitive fan-out cones of [nets]: gate [g] is marked iff some
    path of driver→reader edges leads from a seed net to [g]. The
    result is indexed by gate; reconvergent fan-out is visited once.
    @raise Invalid on an unknown net. *)

val is_primary_output : t -> net -> bool
(** O(1): a per-net flag computed at {!create}. *)

(** {1 Analysis} *)

val topological_order : t -> int list
(** Gate indices such that every gate appears after the drivers of all
    its fanins (the order OBTAIN_PROBABILITIES traverses, Fig. 3). *)

val levels : t -> int array
(** Per-gate logic depth: 1 + max level of fanin gates, 1 for gates fed
    only by primary inputs. Computed once at {!create}; a fresh copy. *)

val depth : t -> int
(** Max level; 0 for an empty circuit. O(1). *)

val transistor_count : t -> int

(** {1 Rewriting} *)

val with_configs : t -> int array -> t
(** Same structure with new per-gate configuration indices.
    @raise Invalid on length or range errors. *)

val with_name : t -> string -> t

val rename_net : t -> net -> string -> t
(** @raise Invalid if the name is empty or already taken. *)

val stats : t -> (string * int) list
(** Gate-name histogram, ascending by name. *)

val cone : t -> net list -> t
(** The transitive-fanin sub-circuit of the given nets: only the gates
    (and primary inputs) the targets depend on survive; the targets
    become the primary outputs. Net names are preserved; configuration
    choices are preserved.
    @raise Invalid on an unknown net or an empty target list. *)

val pp_summary : Format.formatter -> t -> unit
