module N = Sp.Network

let subckt ?name gate ~config =
  if config < 0 || config >= Gate.config_count gate then
    invalid_arg "Spice.subckt: configuration index out of range";
  let cfg = Config.nth gate config in
  let subckt_name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s_cfg%d" (Gate.name gate) config
  in
  let pins =
    List.init (Gate.arity gate) (fun i -> "x" ^ string_of_int i)
    @ [ "y"; "vdd"; "vss" ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "* %s: %s\n" subckt_name (Config.to_string cfg));
  Buffer.add_string buf
    (Printf.sprintf ".subckt %s %s\n" subckt_name (String.concat " " pins));
  Array.iteri
    (fun i (d : N.device) ->
      (* MOS line: M<name> drain gate source bulk model. The source/
         drain orientation is symmetric for our purposes; bulk ties to
         the matching rail. *)
      let model, prefix, bulk =
        match d.polarity with
        | Sp.Sp_tree.Pmos -> ("pmos", "MP", "vdd")
        | Sp.Sp_tree.Nmos -> ("nmos", "MN", "vss")
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%d %s x%d %s %s %s\n" prefix i (N.node_name d.a)
           d.input (N.node_name d.b) bulk model))
    (N.devices (Config.nth_network gate config));
  Buffer.add_string buf ".ends\n";
  Buffer.contents buf

let library_deck () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "* treorder gate library, every transistor reordering\n";
  List.iter
    (fun gate ->
      for config = 0 to Gate.config_count gate - 1 do
        Buffer.add_string buf (subckt gate ~config);
        Buffer.add_char buf '\n'
      done)
    Gate.library;
  Buffer.contents buf
