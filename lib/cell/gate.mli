(** The paper's Table-2 gate library.

    Every cell is a fully-complementary static CMOS gate defined by its
    pull-down network; the pull-up network is the series-parallel dual.
    Input pins are numbered [0 .. arity-1]. *)

type t

type kind =
  | Inv
  | Nand of int  (** fan-in *)
  | Nor of int
  | Aoi of int list  (** AND-group sizes, e.g. [Aoi [2;2;1]] = aoi221 *)
  | Oai of int list  (** OR-group sizes *)

val make : kind -> t
(** @raise Invalid_argument for fan-in < 2, group sizes < 1, or fewer
    than two groups in an AOI/OAI. *)

val of_name : string -> t
(** Parses ["inv"], ["nand3"], ["nor2"], ["aoi221"], ["oai21"], ...
    @raise Not_found on an unknown name. *)

val library : t list
(** The paper's Table 2: inv, nand2-4, nor2-4, aoi/oai 21, 22, 31, 211,
    221, 222 and 311 — ascending arity. *)

val name : t -> string
val kind : t -> kind
val arity : t -> int

val pull_down : t -> Sp.Sp_tree.t
(** Reference pull-down network (groups in declaration order, inputs
    assigned left to right). *)

val function_bdd : Bdd.manager -> t -> Bdd.t
(** Logic function over BDD variables [0 .. arity-1]. *)

val transistor_count : t -> int
(** Devices in the whole gate (pull-up + pull-down). *)

val config_count : t -> int
(** Number of electrically distinct transistor reorderings of the whole
    gate — the paper's Table-2 [#C] column. *)

val pin_devices : t -> int -> int
(** [pin_devices t i]: the transistors, pull-up and pull-down, whose
    gates input pin [i] drives. The same for every configuration;
    precomputed by {!make}.
    @raise Invalid_argument if [i] is not a pin. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
