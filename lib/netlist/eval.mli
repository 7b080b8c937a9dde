(** Zero-delay functional evaluation of a circuit.

    Used by tests and examples to check that generated circuits compute
    what they claim, and to cross-validate the switch-level simulator
    (whose settled node values must agree with functional evaluation on
    every input vector). *)

val nets : Circuit.t -> inputs:(Circuit.net -> bool) -> bool array
(** Value of every net under the given primary-input assignment. *)

val outputs : Circuit.t -> inputs:(Circuit.net -> bool) -> bool list
(** Primary-output values, in declaration order. *)

val gate_function : Bdd.manager -> Circuit.gate -> Bdd.t array -> Bdd.t
(** [gate_function m gate funcs]: the gate's output function, its cell's
    function with each pin's variable replaced by [funcs.(net)] of the
    net on that pin. The composition is capture-free whatever variables
    [funcs] uses below 1,000,000. *)

val output_bdds : Bdd.manager -> Circuit.t -> (Circuit.net * Bdd.t) list
(** Symbolic functions of the primary outputs over BDD variables indexed
    by position in [Circuit.primary_inputs] (global functional
    equivalence checking for small circuits). *)
