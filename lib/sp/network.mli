(** Flattened transistor-level graph of a static CMOS gate — the paper's
    Fig. 2(a) representation.

    The graph has one vertex per circuit node — [Vdd], [Vss], the gate
    [Output] and the internal nodes created by series chains — and one
    edge per transistor. This representation retains the transistor
    order information of a configuration, and supports the paper's
    H/G path-function extraction (Fig. 2(b)).

    It is the one indexed form of a configuration: node capacitances,
    Elmore delays and the Monte-Carlo engine read it, and [Cell.Config]
    builds one per library cell configuration, on the cell's first use,
    and from it the H/G truth tables the power model, the switch-level
    simulator and E13 read.
    Devices are numbered [0 .. device_count - 1] in lay order (see
    {!of_networks}), nodes by {!index}, and each node's adjacency is
    built once with the network. A network is never mutated after it
    is built, so any number of domains may read one. *)

type node = Vdd | Vss | Output | Internal of int

type device = {
  input : int;  (** gate input index driving the transistor *)
  polarity : Sp_tree.polarity;
  a : node;
  b : node;  (** the two source/drain terminals (electrically symmetric) *)
}

type t

val of_networks : pull_up:Sp_tree.t -> pull_down:Sp_tree.t -> t
(** Lays [pull_down] (NMOS devices) between [Output] and [Vss], then
    [pull_up] (PMOS devices) between [Vdd] and [Output]. Devices are
    numbered in that order, each network depth first and left to right;
    so are internal nodes, the pull-down ones first. *)

val complementary_gate : pull_down:Sp_tree.t -> t
(** [of_networks ~pull_up:(Sp_tree.dual pull_down) ~pull_down]: the
    standard fully-complementary static CMOS realization. *)

val devices : t -> device array
(** Device [d] is [(devices t).(d)], in lay order. The array is the
    network's own: read it, never write it. *)

val device_count : t -> int

val internal_count : t -> int
(** Number of internal nodes (the paper's [p]). *)

val internal_nodes : t -> node list
(** [Internal 0 .. Internal (p-1)]. *)

val power_nodes : t -> node list
(** The nodes whose charging consumes power: the output node, then the
    internal nodes. *)

val inputs : t -> int list
(** Distinct gate input indices, ascending. *)

(** {1 Node indices and adjacency} *)

val index : node -> int
(** The one node numbering: [Vdd] 0, [Vss] 1, [Output] 2 and
    [Internal i] [3 + i]. *)

val node_of_index : int -> node
(** Inverse of {!index}.
    @raise Invalid_argument on a negative index. *)

val node_count : t -> int
(** [3 + internal_count t]: indices [0 .. node_count t - 1]. *)

val adjacency : t -> int -> (int * int) array
(** [adjacency t i]: a [(device, far node)] pair, by index, for every
    device terminal on node [i], in ascending device order. Built with
    the network; read it, never write it. *)

val node_degree : t -> node -> int
(** Number of transistor source/drain terminals attached to the node —
    drives the junction-capacitance model. The length of its
    {!adjacency}. *)

(** {1 Path functions}

    The symbolic form of H and G, by the paper's Fig. 2(b) path search.
    The library's truth tables are held to it in the tests. *)

val h_function : Bdd.manager -> t -> node -> Bdd.t
(** [h_function m t n] is the paper's [H_n]: the Boolean condition (over
    gate inputs) that at least one conducting path links [n] to [Vdd].
    Paths may cross the output node but not the opposite rail. The
    search follows {!adjacency}, so its BDD operations come in device
    order.
    @raise Invalid_argument when [n] is [Vdd] or [Vss]. *)

val g_function : Bdd.manager -> t -> node -> Bdd.t
(** [G_n]: conducting paths from [n] to [Vss]. *)

val output_function : Bdd.manager -> t -> Bdd.t
(** The logic function computed at the output ([H_Output]). *)

val is_complementary : Bdd.manager -> t -> bool
(** [H_Output = not G_Output]: the output is always driven, never
    shorted. *)

val has_short : Bdd.manager -> t -> bool
(** [true] iff some node can be connected to both rails at once
    ([H_n ∧ G_n] satisfiable) — never the case for a well-formed
    complementary gate. *)

val node_name : node -> string
(** [vdd], [vss], [y], [n0], [n1], ...: the names {!to_dot} and the
    SPICE export print. *)

val pp_node : Format.formatter -> node -> unit

val to_dot : ?name:string -> ?input_names:(int -> string) -> t -> string
(** Graphviz rendering of the transistor graph: circuit nodes as
    vertices, transistors as labeled edges (PMOS dashed), the rails
    highlighted — the Fig. 2(a) picture. *)
