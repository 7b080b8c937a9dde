exception Parse_error of { line : int; message : string }

let parse_error line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let to_string c =
  let buf = Buffer.create 1024 in
  let net n = Circuit.net_name c n in
  Buffer.add_string buf ("circuit " ^ Circuit.name c ^ "\n");
  List.iter
    (fun n -> Buffer.add_string buf ("input " ^ net n ^ "\n"))
    (Circuit.primary_inputs c);
  Array.iter
    (fun (g : Circuit.gate) ->
      Buffer.add_string buf
        (Printf.sprintf "gate %s %s = %s [%d]\n"
           (Cell.Gate.name g.cell) (net g.output)
           (String.concat " " (List.map net (Array.to_list g.fanins)))
           g.config))
    (Circuit.gates c);
  List.iter
    (fun n -> Buffer.add_string buf ("output " ^ net n ^ "\n"))
    (Circuit.primary_outputs c);
  Buffer.contents buf

(* Each physical line with its 1-based number. *)
let numbered_lines text =
  List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text)

(* Tokenized line with its 1-based source position. *)
let significant_lines lines =
  lines
  |> List.filter_map (fun (i, l) ->
         let l = match String.index_opt l '#' with
           | Some j -> String.sub l 0 j
           | None -> l
         in
         let words =
           String.split_on_char ' ' l
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         if words = [] then None else Some (i, words))

type pending_gate = {
  line : int;
  cell : Cell.Gate.t;
  out_name : string;
  in_names : string list;
  config : int;
}

(* The names on one declaration line, each with that line, onto a
   reversed list. *)
let add_names line names into =
  List.iter (fun n -> into := (line, n) :: !into) names

(* Net ids: primary inputs first, then gate outputs in file order;
   fanins and outputs may reference either. Every name carries the line
   that mentions it, so the only error left to Circuit.create is one no
   line shows, a combinational cycle. *)
let assemble ~name ~inputs ~outputs pending =
  let ids = Hashtbl.create 64 in
  let names = ref [] in
  let next = ref 0 in
  let declare line what n =
    if Hashtbl.mem ids n then parse_error line "net %S declared twice (%s)" n what;
    Hashtbl.add ids n !next;
    names := n :: !names;
    incr next
  in
  List.iter (fun (line, n) -> declare line "input" n) inputs;
  List.iter (fun pg -> declare pg.line "gate output" pg.out_name) pending;
  let resolve (line, n) =
    match Hashtbl.find_opt ids n with
    | Some id -> id
    | None -> parse_error line "undeclared net %S" n
  in
  let gates =
    List.map
      (fun pg ->
        {
          Circuit.cell = pg.cell;
          config = pg.config;
          fanins =
            Array.of_list (List.map (fun n -> resolve (pg.line, n)) pg.in_names);
          output = resolve (pg.line, pg.out_name);
        })
      pending
  in
  Circuit.create ~name
    ~net_names:(Array.of_list (List.rev !names))
    ~primary_inputs:(List.map resolve inputs)
    ~primary_outputs:(List.map resolve outputs)
    ~gates

let of_string text =
  let name = ref "circuit" in
  let inputs = ref [] (* (line, name), reversed *) in
  let outputs = ref [] in
  let pending = ref [] in
  let parse_gate line = function
    | cell_name :: out_name :: "=" :: rest ->
        let cell =
          try Cell.Gate.of_name cell_name
          with Not_found -> parse_error line "unknown cell %S" cell_name
        in
        let in_names, config =
          match List.rev rest with
          | last :: before
            when String.length last > 2
                 && last.[0] = '['
                 && last.[String.length last - 1] = ']' -> begin
              let k = String.sub last 1 (String.length last - 2) in
              match int_of_string_opt k with
              | Some k -> (List.rev before, k)
              | None -> parse_error line "bad configuration index %S" last
            end
          | _ -> (rest, 0)
        in
        let arity = Cell.Gate.arity cell in
        if List.length in_names <> arity then
          parse_error line "%s %s: %d fanins, but %s has arity %d" cell_name
            out_name (List.length in_names) cell_name arity;
        let configs = Cell.Gate.config_count cell in
        if config < 0 || config >= configs then
          parse_error line "%s %s: configuration %d out of range (%s has %d)"
            cell_name out_name config cell_name configs;
        pending := { line; cell; out_name; in_names; config } :: !pending
    | _ -> parse_error line "expected: gate <cell> <out> = <in...> [k]"
  in
  List.iter
    (fun (line, words) ->
      match words with
      | "circuit" :: [ n ] -> name := n
      | "circuit" :: _ -> parse_error line "expected: circuit <name>"
      | "input" :: names when names <> [] -> add_names line names inputs
      | "output" :: names when names <> [] -> add_names line names outputs
      | "gate" :: rest -> parse_gate line rest
      | keyword :: _ -> parse_error line "unknown directive %S" keyword
      | [] -> ())
    (significant_lines (numbered_lines text));
  assemble ~name:!name ~inputs:(List.rev !inputs) ~outputs:(List.rev !outputs)
    (List.rev !pending)

(* --- BLIF subset --- *)

(* Formal input pins A..F map to pin indices 0..5; the output pin is O
   (Y and Z accepted). Case-insensitive. *)
let pin_index line formal =
  match String.uppercase_ascii formal with
  | "A" -> `In 0
  | "B" -> `In 1
  | "C" -> `In 2
  | "D" -> `In 3
  | "E" -> `In 4
  | "F" -> `In 5
  | "O" | "Y" | "Z" -> `Out
  | _ -> parse_error line "unknown formal pin %S" formal

(* Join "\<newline>" continuation lines; a joined line keeps the number
   of the physical line it starts on. *)
let join_continuations lines =
  let rec go acc = function
    | (i, l) :: (_, next) :: rest when String.ends_with ~suffix:"\\" l ->
        go acc ((i, String.sub l 0 (String.length l - 1) ^ " " ^ next) :: rest)
    | line :: rest -> go (line :: acc) rest
    | [] -> List.rev acc
  in
  go [] lines

let of_blif text =
  let name = ref "blif" in
  let inputs = ref [] and outputs = ref [] and pending = ref [] in
  let seen_end = ref false in
  List.iter
    (fun (line, words) ->
      if not !seen_end then
        match words with
        | ".model" :: [ n ] -> name := n
        | ".model" :: _ -> parse_error line "expected: .model <name>"
        | ".inputs" :: names -> add_names line names inputs
        | ".outputs" :: names -> add_names line names outputs
        | ".end" :: _ -> seen_end := true
        | ".names" :: _ ->
            parse_error line ".names is not supported: map the circuit onto the gate library first"
        | ".latch" :: _ -> parse_error line "sequential elements are not supported"
        | ".gate" :: cell_name :: bindings ->
            let cell =
              try Cell.Gate.of_name cell_name
              with Not_found -> parse_error line "unknown cell %S" cell_name
            in
            let arity = Cell.Gate.arity cell in
            let ins = Array.make arity "" in
            let out = ref "" in
            List.iter
              (fun b ->
                match String.index_opt b '=' with
                | None -> parse_error line "expected pin=net, got %S" b
                | Some i ->
                    let formal = String.sub b 0 i in
                    let actual = String.sub b (i + 1) (String.length b - i - 1) in
                    begin match pin_index line formal with
                    | `In k when k < arity -> ins.(k) <- actual
                    | `In _ -> parse_error line "pin %S beyond %s arity" formal cell_name
                    | `Out -> out := actual
                    end)
              bindings;
            if !out = "" then parse_error line "missing output pin binding";
            Array.iteri
              (fun k n ->
                if n = "" then
                  parse_error line "missing binding for input pin %d of %s" k
                    cell_name)
              ins;
            pending :=
              {
                line;
                cell;
                out_name = !out;
                in_names = Array.to_list ins;
                config = 0;
              }
              :: !pending
        | ".gate" :: _ -> parse_error line "expected: .gate <cell> <pin=net...>"
        | w :: _ when String.length w > 0 && w.[0] = '.' ->
            parse_error line "unsupported BLIF directive %S" w
        | _ -> parse_error line "unexpected tokens outside a directive")
    (significant_lines (join_continuations (numbered_lines text)));
  assemble ~name:!name ~inputs:(List.rev !inputs) ~outputs:(List.rev !outputs)
    (List.rev !pending)

let save c path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string c))

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix path ".blif" then of_blif text else of_string text
