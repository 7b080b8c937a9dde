(** Elmore RC delay of a gate configuration, per input pin.

    For a falling output, the pull-down network discharges the output
    through some conducting path; symmetrically for a rising output
    through the pull-up. When pin [i] switches {e last} (the worst case
    static timing uses), the internal nodes between [i]'s transistor and
    the supply rail are already at the rail potential, so only the
    capacitance between the output and that transistor still has to
    move — which is precisely why transistor order affects delay: a
    critical input placed next to the output sees the least capacitance
    (the rule of thumb quoted in §5), while placing it next to the rail
    is what the power optimization tends to prefer.

    For a path [y = n₀ -R₁- n₁ ... -R_k- rail] through pin [i]'s device
    [R_j]: [τ = Σ_{m<j} C(n_m) · Σ_{t=m+1..k} R_t]. The pin delay is the
    maximum over all simple output-to-rail paths through the pin's
    device; it is affine in the output load, and the affine coefficients
    are cached per (cell, configuration, pin). *)

type table

val table : Cell.Process.t -> table
(** An empty cache of each configuration's pin models, each built on
    first use from the configuration's shared transistor graph
    ({!Cell.Config.nth_network}). It is an unsynchronized [Hashtbl]:
    share it between domains only behind a lock. *)

val process : table -> Cell.Process.t

val pin_delay_rise_fall :
  table -> Cell.Gate.t -> config:int -> pin:int -> load:float -> float * float
(** [(rise, fall)] worst-case output transition delays (seconds) when
    [pin] switches last, with [load] Farads on the output beyond the
    gate's own diffusion.
    @raise Invalid_argument on a bad pin, configuration or negative
    load. *)

val pin_delay :
  table -> Cell.Gate.t -> config:int -> pin:int -> load:float -> float
(** [max rise fall]. *)

val worst_delay : table -> Cell.Gate.t -> config:int -> load:float -> float
(** Max over pins — the gate's standalone worst-case delay. *)
