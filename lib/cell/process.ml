type t = {
  vdd : float;
  c_gate : float;
  c_junction : float;
  c_wire : float;
  r_nmos : float;
  r_pmos : float;
}

let make ~vdd ~c_gate ~c_junction ~c_wire ~r_nmos ~r_pmos =
  let positive x = x > 0. && Float.is_finite x in
  if
    not
      (positive vdd && positive c_gate && positive c_junction
     && positive c_wire && positive r_nmos && positive r_pmos)
  then invalid_arg "Process.make: parameters must be positive";
  { vdd; c_gate; c_junction; c_wire; r_nmos; r_pmos }

let default =
  make ~vdd:5.0 ~c_gate:10e-15 ~c_junction:6e-15 ~c_wire:15e-15 ~r_nmos:5e3
    ~r_pmos:10e3

let device_resistance t = function
  | Sp.Sp_tree.Nmos -> t.r_nmos
  | Sp.Sp_tree.Pmos -> t.r_pmos

let node_capacitance t network node =
  let junction =
    float_of_int (Sp.Network.node_degree network node) *. t.c_junction
  in
  match node with
  | Sp.Network.Output -> junction +. t.c_wire
  | Sp.Network.Internal _ -> junction
  | Sp.Network.Vdd | Sp.Network.Vss ->
      invalid_arg "Process.node_capacitance: supply rail"

let input_pin_capacitance t cell pin =
  float_of_int (Gate.pin_devices cell pin) *. t.c_gate
