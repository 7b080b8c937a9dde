(** Shared context for the experiment drivers: one process, one power
    model table, one delay table. Every driver loads primary outputs
    with {!Netlist.Load.default_external}. *)

type t = {
  proc : Cell.Process.t;
  power : Power.Model.table;
  delay : Delay.Elmore.table;
}

val create : ?proc:Cell.Process.t -> unit -> t

val input_names : string array -> int -> string
(** Pin-index to name lookup with ["x<i>"] fallback — used when printing
    gate configurations. *)
