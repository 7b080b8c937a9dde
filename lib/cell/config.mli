(** A full transistor-level configuration of a gate: a chosen ordering
    for the pull-up and the pull-down networks together.

    This is the unit the optimizer explores: the paper's Fig. 5 pivots
    over the internal nodes of the {e whole} gate graph, so the joint
    exploration lives here rather than in {!Sp.Sp_tree}. *)

type t = { pull_up : Sp.Sp_tree.t; pull_down : Sp.Sp_tree.t }

val reference : Gate.t -> t
(** The library's as-declared configuration. *)

val all : Gate.t -> t list
(** Every electrically distinct configuration (cartesian product of the
    two networks' orderings, reference first). Its length equals
    {!Gate.config_count}. *)

val pivot_all : ?trace:(int -> t -> unit) -> t -> t list
(** {!Sp.Sp_tree.pivot_search} on the whole gate: internal-node indices
    cover first the pull-down gaps, then the pull-up gaps. [trace] gives
    the reproduction of Fig. 5. Agrees with {!all} as a set (tested). *)

val network : t -> Sp.Network.t
(** Flattened transistor graph (Fig. 2(a)), built afresh. A library
    cell's configurations have theirs built once: {!nth_network}. *)

val internal_node_count : t -> int

val equal : t -> t -> bool
(** Electrical equality (canonical forms of both networks). *)

val compare : t -> t -> int

val index_in : t list -> t -> int
(** Position of an electrically equal configuration in a list.
    @raise Not_found if absent. *)

val same_shape : t -> t -> bool
(** [true] when the two configurations differ only by an input
    permutation (their label-erased network shapes coincide) — i.e.
    they are realizable by the same layout instance, so restricting the
    optimizer to [same_shape] candidates is exactly the classical
    {e input reordering} technique the paper generalizes (§2). *)

val pp : Format.formatter -> t -> unit
val to_string : ?names:(int -> string) -> t -> string
(** Prints as [PU=(b | (a1 . a2)) PD=((a1 | a2) . b)]. *)

(** {1 The per-cell table}

    Each cell's configurations, in {!all}'s order, their transistor
    graphs, their switch-level truth tables and their output-to-rail
    paths are built together on the cell's first use by any function
    below, never at process start, and kept for the life of the
    process. Nothing in the table is mutated
    once built, and a read takes no lock, so every domain shares it: two
    domains that first use a cell at once may both build it, and one
    copy is kept. A cell is found by the gate value, not its kind: the
    netlist's gates are {!Gate.library}'s values, and a gate made apart
    from the library with {!Gate.make} gets a table of its own. Index
    [k] is the configuration index a netlist gate carries. *)

val nth : Gate.t -> int -> t
(** [nth cell k]: the [k]-th element of [all cell].
    @raise Invalid_argument when [k] is out of range. *)

val nth_network : Gate.t -> int -> Sp.Network.t
(** [network (nth cell k)], built once with the table: every reader of
    configuration [k]'s transistor graph gets this one.
    @raise Invalid_argument when [k] is out of range. *)

type tables = { h : int64 array; g : int64 array }
(** A configuration's switch-level model, the paper's H and G (§3.3,
    Fig. 2(b)) as truth tables: one entry per powered node, in
    {!Sp.Network.power_nodes} order (the output first). Bit [v] of
    [h.(j)] is set when input vector [v] (pin [i] is bit [i] of [v])
    joins node [j] to vdd through conducting devices, and bit [v] of
    [g.(j)] when it joins it to vss. A node with neither bit set is
    isolated and holds its charge. No cell has more than 6 pins, so 64
    bits always suffice; bits from [2{^arity}] up are 0. The tables
    equal {!Sp.Network.h_function} and {!Sp.Network.g_function}
    evaluated at every vector (tested), and no vector sets both bits of
    a node. *)

val nth_tables : Gate.t -> int -> tables
(** Configuration [k]'s truth tables, built once with the table from
    {!nth_network}, for all input vectors at once: read them, never
    write them.
    @raise Invalid_argument when [k] is out of range. *)

type path = { pins : int array; nodes : Sp.Network.node array }
(** A path's devices from the output: [pins.(j)] drives the [j]-th and
    [nodes.(j)] is the node past it. *)

type paths = { network : Sp.Network.t; vdd : path array; vss : path array }
(** The output's {!Sp.Network.rail_paths} in [network], the
    configuration's {!nth_network}: through PMOS devices to vdd, through
    NMOS devices to vss. The Elmore delays walk them, reading each
    node's capacitance off [network]. *)

val nth_paths : Gate.t -> int -> paths
(** Configuration [k]'s paths, built once with the table from
    {!nth_network}: read them, never write them.
    @raise Invalid_argument when [k] is out of range. *)

val pin_table : int -> int64
(** [pin_table i]: pin [i]'s own truth table in the {!tables} format,
    bit [v] set when bit [i] of [v] is, for [0 <= i < 6]. *)

val at : int64 -> int -> bool
(** [at table v]: bit [v] of [table], the function's value on input
    vector [v]. *)

val input_reorderings : Gate.t -> int list
(** The configurations {!same_shape} as the reference, ascending: what
    input reordering alone can reach. Always holds 0. *)

val instance_count : Gate.t -> int
(** Number of layout instances needed to reach every configuration by
    input permutation alone: the {!same_shape} classes of the cell's
    configurations, the paper's [\[A,B,...\]] annotations (Table 2). *)
