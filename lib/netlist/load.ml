let default_external = 20e-15

let output proc ?(external_load = default_external) circuit g =
  let net = (Circuit.gate_at circuit g).Circuit.output in
  let pins =
    List.fold_left
      (fun acc (reader, pin) ->
        acc
        +. Cell.Process.input_pin_capacitance proc
             (Circuit.gate_at circuit reader).Circuit.cell pin)
      0. (Circuit.readers circuit net)
  in
  if Circuit.is_primary_output circuit net then pins +. external_load else pins
