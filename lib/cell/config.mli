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

val lookup : unit -> Gate.t -> int -> t
(** [lookup ()] is a fresh [fun cell k -> List.nth (all cell) k] that
    enumerates each cell's configurations once, on its first call for
    that cell, and indexes them after. Make one per pass over a
    circuit; its table is not shared between domains.
    @raise Invalid_argument when [k] is out of range. *)

val pivot_all : ?trace:(int -> t -> unit) -> t -> t list
(** The paper's Fig. 4 algorithm on the whole gate: internal-node
    indices cover first the pull-down gaps, then the pull-up gaps.
    [trace] reports each newly discovered configuration with the pivoted
    node index — the reproduction of Fig. 5. Agrees with {!all} as a set
    (tested). *)

val network : t -> Sp.Network.t
(** Flattened transistor graph (Fig. 2(a)). *)

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
