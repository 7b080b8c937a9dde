module N = Sp.Network

type table = Cell.Process.t

let table proc = proc
let process t = t

(* Each path's walk from the output raises [delays.(pin)], for every pin
   on it, to the path's delay when [pin] switches last. The node terms
   and the resistance total are summed from the output, then C(y)'s and
   the load's terms added: one order for every query. *)
let walk proc network polarity (paths : Cell.Config.path array) ~load delays =
  let r = Cell.Process.device_resistance proc polarity in
  let c_out = Cell.Process.node_capacitance proc network N.Output in
  for p = 0 to Array.length paths - 1 do
    let { Cell.Config.pins; nodes } = paths.(p) in
    let last = Array.length pins - 1 in
    let total = ref 0. in
    for _ = 0 to last do
      total := !total +. r
    done;
    let downstream = ref !total and above = ref 0. in
    for j = 0 to last do
      let pin = pins.(j) in
      delays.(pin) <-
        Float.max delays.(pin)
          (!above +. (c_out *. !total) +. (!total *. load));
      if j < last then begin
        downstream := !downstream -. r;
        let c = Cell.Process.node_capacitance proc network nodes.(j) in
        above := !above +. (c *. !downstream)
      end
    done
  done

(* Per pin, the max from 0 over the pull-up paths through its device
   into [rise], and over the pull-down ones into [fall]. *)
let delays proc cell ~config ~load ~rise ~fall =
  if load < 0. then invalid_arg "Delay.Elmore: negative load";
  if config < 0 || config >= Cell.Gate.config_count cell then
    invalid_arg "Delay.Elmore: configuration index out of range";
  let { Cell.Config.network; vdd; vss } = Cell.Config.nth_paths cell config in
  walk proc network Sp.Sp_tree.Pmos vdd ~load rise;
  walk proc network Sp.Sp_tree.Nmos vss ~load fall

let at_pin cell pin values =
  if pin < 0 || pin >= Cell.Gate.arity cell then
    invalid_arg "Delay.Elmore: pin out of range";
  values.(pin)

let pin_delays t cell ~config ~load =
  let d = Array.make (Cell.Gate.arity cell) 0. in
  delays t cell ~config ~load ~rise:d ~fall:d;
  d

let pin_delay_rise_fall t cell ~config ~pin ~load =
  let arity = Cell.Gate.arity cell in
  let rise = Array.make arity 0. and fall = Array.make arity 0. in
  delays t cell ~config ~load ~rise ~fall;
  (at_pin cell pin rise, at_pin cell pin fall)

let pin_delay t cell ~config ~pin ~load =
  at_pin cell pin (pin_delays t cell ~config ~load)

let worst_delay t cell ~config ~load =
  Array.fold_left Float.max 0. (pin_delays t cell ~config ~load)
