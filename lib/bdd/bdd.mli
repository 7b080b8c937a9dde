(** Reduced ordered binary decision diagrams (ROBDDs).

    A small, self-contained BDD engine sized for gate-level work: the
    functions manipulated are over a gate's handful of inputs or a cone
    of logic. Nodes are hash-consed inside a {!manager}; two functions
    built in the same manager are equivalent iff their roots are
    physically equal ({!equal}). Logic functions, the exact-propagation
    backend and the symbolic H/G path search build on it; the power
    model reads its diagrams off the cells' truth tables instead, and
    evaluates them as {!probability} does.

    Variables are identified by integers; the variable order is the
    natural integer order (smaller index closer to the root). *)

type manager
(** Owns the unique-node table and the operation caches. *)

type t
(** A Boolean function (a node in some manager). Operations mixing nodes
    from different managers are a programming error and raise. *)

val manager : ?cache_size:int -> unit -> manager
(** Fresh manager. [cache_size] is the initial hash table capacity. *)

val node_count : manager -> int
(** Number of live hash-consed nodes (diagnostics). *)

(** {1 Constants and variables} *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
(** [var m i] is the projection function of variable [i].
    @raise Invalid_argument if [i < 0]. *)

val nvar : manager -> int -> t
(** Complement of {!var}. *)

(** {1 Combinators} *)

val not_ : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val xor : t -> t -> t
val xnor : t -> t -> t
val imply : t -> t -> t
val ite : t -> t -> t -> t
(** [ite c t e] is if-then-else. *)

val conj : manager -> t list -> t
(** N-ary conjunction ([one] for the empty list). *)

val disj : manager -> t list -> t
(** N-ary disjunction ([zero] for the empty list). *)

(** {1 Structure} *)

val equal : t -> t -> bool
(** Function equivalence (constant time thanks to hash-consing). *)

val is_zero : t -> bool
val is_one : t -> bool

val top_var : t -> int option
(** Root variable, [None] on constants. *)

val size : t -> int
(** Number of distinct internal nodes reachable from this root. *)

val support : t -> int list
(** Variables the function actually depends on, ascending. *)

(** {1 Cofactors and quantification} *)

val restrict : t -> int -> bool -> t
(** [restrict f i b] is the cofactor f|(xi = b). *)

val compose : t -> int -> t -> t
(** [compose f i g] substitutes function [g] for variable [i] in [f]. *)

val exists : t -> int -> t
(** Existential quantification over one variable. *)

val forall : t -> int -> t

val boolean_difference : t -> int -> t
(** [boolean_difference f i] is [f|xi=1 xor f|xi=0] — the paper's
    [∂f/∂xi]: true on the input vectors where toggling [xi] toggles [f]. *)

(** {1 Evaluation and probability} *)

val eval : t -> (int -> bool) -> bool
(** [eval f env] evaluates under the assignment [env]. *)

val probability : t -> (int -> float) -> float
(** [probability f p] is the exact probability that [f] is true when
    each variable [i] is independently 1 with probability [p i]
    (Parker-McCluskey on the BDD: linear in {!size}).
    @raise Invalid_argument if any [p i] is outside [\[0, 1\]]. *)

val sat_count : t -> nvars:int -> float
(** Number of satisfying assignments over variables [0..nvars-1].
    Requires every support variable to be [< nvars]. *)

val any_sat : t -> (int * bool) list option
(** One satisfying partial assignment (unconstrained variables omitted),
    or [None] for the zero function. *)

(** {1 Iteration and export} *)

val fold_paths :
  t -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Folds [f] over the cubes of a disjoint cover of the on-set (one cube
    per root-to-[one] path). Cubes list (variable, polarity) pairs in
    ascending variable order. *)

val to_string : names:(int -> string) -> t -> string
(** Sum-of-products rendering of the disjoint path cover, e.g.
    ["a.b' + a'.c"]. Constants print as ["0"] / ["1"]. *)
