type t = {
  proc : Cell.Process.t;
  power : Power.Model.table;
  delay : Delay.Elmore.table;
}

let create ?(proc = Cell.Process.default) () =
  { proc; power = Power.Model.table proc; delay = Delay.Elmore.table proc }

let input_names names i =
  if i >= 0 && i < Array.length names then names.(i)
  else "x" ^ string_of_int i
