(** Text formats for circuits.

    {b Native format} (round-trips exactly):
    {v
    # comment
    circuit adder4
    input a0 a1 b0 b1
    gate nand2 t0 = a0 b0
    gate inv   t1 = t0 [0]
    output t1
    v}
    [gate <cell> <out> = <in...> [k]] instantiates cell with optional
    configuration index [k] (default 0). Nets may be referenced before
    the line that drives them.

    {b BLIF subset}: [.model/.inputs/.outputs/.gate/.end] with
    pin bindings [A= B= C= ... O=] (formal input pins in alphabetical
    order, output pin [O]); enough to import technology-mapped MCNC
    netlists expressed over the Table-2 library. [.names], [.latch] and
    multiple models are rejected with a clear error. *)

exception Parse_error of { line : int; message : string }

val to_string : Circuit.t -> string
val of_string : string -> Circuit.t
(** Every error a line shows raises {!Parse_error} with that 1-based
    source line: an unknown cell or directive, a malformed line, a
    fanin list that does not match the cell's arity, a configuration
    index out of the cell's range, a net declared twice (an [input] or
    gate output reusing a name), or a reference to a net nothing
    declares.
    @raise Parse_error on malformed input;
    @raise Circuit.Invalid on the one structural violation no single
    line shows, a combinational cycle. *)

val of_blif : string -> Circuit.t
(** @raise Parse_error / @raise Circuit.Invalid as {!of_string}. *)

val save : Circuit.t -> string -> unit
(** [save c path] writes the native format. *)

val load : string -> Circuit.t
(** Reads native format ([.blif] extension switches to {!of_blif}). *)
