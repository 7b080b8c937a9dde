type row = {
  gate : string;
  arity : int;
  transistors : int;
  configurations : int;
  instances : int;
  pivot_configurations : int;
}

type t = row list

let run () =
  List.map
    (fun gate ->
      {
        gate = Cell.Gate.name gate;
        arity = Cell.Gate.arity gate;
        transistors = Cell.Gate.transistor_count gate;
        configurations = Cell.Gate.config_count gate;
        instances = Cell.Config.instance_count gate;
        pivot_configurations =
          List.length (Cell.Config.pivot_all (Cell.Config.reference gate));
      })
    Cell.Gate.library

let instance_letters n =
  if n <= 1 then ""
  else
    "["
    ^ String.concat ","
        (List.init n (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))))
    ^ "]"

let render t =
  let table =
    Report.Table.create
      ~columns:
        [
          ("gate", Report.Table.Left);
          ("inputs", Report.Table.Right);
          ("transistors", Report.Table.Right);
          ("#C", Report.Table.Right);
          ("instances", Report.Table.Left);
          ("#C (pivot)", Report.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [
          r.gate ^ instance_letters r.instances;
          string_of_int r.arity;
          string_of_int r.transistors;
          string_of_int r.configurations;
          string_of_int r.instances;
          string_of_int r.pivot_configurations;
        ])
    t;
  "Table 2 — gate library and configuration counts\n"
  ^ Report.Table.render table
