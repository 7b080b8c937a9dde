(** Series-parallel transistor networks.

    A static CMOS gate is a pull-up and a pull-down network, each a
    series-parallel composition of transistors. Leaves carry the index of
    the gate input driving the transistor; the device polarity (NMOS /
    PMOS) is a property of the whole network, not of the leaf.

    The {e order} of the children of a [Series] node is electrically
    meaningful — it decides which transistor sits next to the output and
    which next to the supply rail, and therefore which internal nodes
    exist. The order of [Parallel] children is electrically irrelevant.
    A {e transistor reordering} of a gate (the paper's §4.3) is a choice
    of child order for every series node of both networks. *)

type t = private
  | Leaf of int  (** transistor driven by gate input [i] *)
  | Series of t list  (** ≥ 2 children, none itself [Series] *)
  | Parallel of t list  (** ≥ 2 children, none itself [Parallel] *)

type polarity = Nmos | Pmos

(** {1 Construction} *)

val leaf : int -> t
(** @raise Invalid_argument on a negative input index. *)

val series : t list -> t
(** Smart constructor: flattens nested series, returns the child alone
    for a singleton list.
    @raise Invalid_argument on an empty list. *)

val parallel : t list -> t
(** Smart constructor, dual of {!series}. *)

(** {1 Observation} *)

val inputs : t -> int list
(** Distinct input indices, ascending. *)

val transistor_count : t -> int
(** Number of leaves. *)

val internal_node_count : t -> int
(** Number of internal circuit nodes the network creates when laid out
    between two terminal nodes: one per gap between adjacent children of
    each series node, summed recursively. *)

val depth : t -> int
(** Longest series chain (number of stacked transistors) — the
    worst-case resistive path length. *)

val equal : t -> t -> bool
(** Structural equality (order-sensitive everywhere). *)

val canonical : t -> t
(** Canonical representative of the electrical equivalence class:
    parallel children sorted structurally, series order preserved. Two
    configurations are electrically identical iff their canonical forms
    are {!equal}. *)

val compare : t -> t -> int
(** Total structural order (used by {!canonical}). *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [(b . (a1 | a2))] — [.] series, [|] parallel. *)

val to_string : ?names:(int -> string) -> t -> string

(** {1 Electrical semantics} *)

val dual : t -> t
(** Swap series and parallel everywhere: the pull-up network of a
    complementary gate is the dual of its pull-down network. *)

val conduction : Bdd.manager -> polarity -> t -> Bdd.t
(** Boolean condition under which the network conducts end-to-end: an
    NMOS device conducts when its input is 1, a PMOS device when it is
    0; series = conjunction, parallel = disjunction. *)

val conducts : polarity -> (int -> bool) -> t -> bool
(** Direct evaluation of {!conduction} under an input assignment. *)

(** {1 Reordering exploration} *)

val orderings : t -> t list
(** All electrically distinct transistor reorderings, by exhaustive
    permutation of every series node's children with canonical-form
    deduplication. The input's own configuration is included. *)

val count_orderings : t -> int
(** [List.length (orderings t)], computed without enumeration when all
    leaves are distinct (product of factorials over series nodes);
    falls back to enumeration otherwise. *)

val pivot : t -> int -> t
(** [pivot t k] applies the paper's pivoting step (Fig. 4) on the [k]-th
    internal node (0-based, depth-first order): the two sub-networks
    adjacent to that node along its series chain are exchanged.
    @raise Invalid_argument if [k] is out of range. *)

val pivot_search :
  pivot:('a -> int -> 'a) ->
  key:('a -> 'k) ->
  nodes:int ->
  ?trace:(int -> 'a -> unit) ->
  'a ->
  'a list
(** The paper's pivot-and-search (Fig. 4) over any configuration type
    with [nodes] internal nodes: the start, then each configuration
    whose [key] is new, in discovery order, [trace]d with the node
    pivoted to reach it. *)

val pivot_orderings : ?trace:(int -> t -> unit) -> t -> t list
(** {!pivot_search} from [t] with {!pivot} and {!canonical}: every
    reordering, [t] first. Must agree with {!orderings} up to order
    (tested). *)
