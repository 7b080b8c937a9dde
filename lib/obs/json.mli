(** JSON values, the one reader and the one printer.

    Every document the tool reads or writes goes through this module:
    traces, run archives, attribution ledgers, audits, fleet history
    and bench records. Writers build a {!t} and {!print} it; readers
    {!parse} text back into the same type.

    The printer has one number format, [%.17g], which round-trips every
    finite double bit for bit through {!parse}. JSON has no [nan] or
    infinity, so printing one raises rather than writing a stand-in. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields print in list order *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Whole-string parse; the error carries a character offset. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_float : t -> float option
val to_string : t -> string option

val members : string -> (t -> 'a option) -> t -> (string * 'a) list
(** [members key decode json]: the fields of the object at [key] in
    [json] that [decode] accepts, in document order; [[]] when [key]
    holds no object. *)

val read_file : string -> (string, string) result
(** A file's whole contents; [Error] carries the system's message. *)

(** {1 Printing} *)

val int : int -> t
(** [Num] of the integer; prints as its decimal digits up to 2{^53}. *)

val print : t -> string
(** Compact JSON text, no whitespace. Strings escape the double quote,
    the backslash and every control character; numbers print as
    [%.17g].
    @raise Invalid_argument on a [nan] or infinite [Num], naming the
    innermost object key that holds it. *)

val print_streaming : (string * t) list -> string -> t Seq.t -> string
(** [print_streaming fields key items] is
    [print (Obj (fields @ [ (key, Arr (List.of_seq items)) ]))], but it
    builds and prints one item at a time, so a long array (a ledger's
    gates) is never in memory as one value. *)

val ndjson : t list -> string
(** One {!print}ed value per line, each ended by a newline. *)
