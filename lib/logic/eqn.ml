type t = {
  name : string;
  inputs : string list;
  equations : (string * Expr.t) list;
  outputs : string list;
}

exception Parse_error of { line : int; message : string }

let parse_error line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* --- lexer --- *)

type token = Ident of string | Zero | One | Tilde | Amp | Bar | Caret | LParen | RParen

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize line text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | ' ' | '\t' -> go (i + 1) acc
      | '~' -> go (i + 1) (Tilde :: acc)
      | '&' -> go (i + 1) (Amp :: acc)
      | '|' -> go (i + 1) (Bar :: acc)
      | '^' -> go (i + 1) (Caret :: acc)
      | '(' -> go (i + 1) (LParen :: acc)
      | ')' -> go (i + 1) (RParen :: acc)
      | '0' -> go (i + 1) (Zero :: acc)
      | '1' -> go (i + 1) (One :: acc)
      | c when is_ident_start c ->
          let j = ref i in
          while !j < n && is_ident_char text.[!j] do
            incr j
          done;
          go !j (Ident (String.sub text i (!j - i)) :: acc)
      | c -> parse_error line "unexpected character %C" c
  in
  go 0 []

(* --- recursive-descent parser: or < xor < and < not --- *)

let parse_expr line tokens =
  let rest = ref tokens in
  let peek () = match !rest with [] -> None | t :: _ -> Some t in
  let advance () = match !rest with [] -> () | _ :: r -> rest := r in
  let rec or_level () =
    let first = xor_level () in
    let rec more acc =
      match peek () with
      | Some Bar ->
          advance ();
          more (xor_level () :: acc)
      | _ -> acc
    in
    match more [ first ] with [ single ] -> single | many -> Expr.or_ (List.rev many)
  and xor_level () =
    let first = and_level () in
    let rec more acc =
      match peek () with
      | Some Caret ->
          advance ();
          more (Expr.xor acc (and_level ()))
      | _ -> acc
    in
    more first
  and and_level () =
    let first = factor () in
    let rec more acc =
      match peek () with
      | Some Amp ->
          advance ();
          more (factor () :: acc)
      | _ -> acc
    in
    match more [ first ] with [ single ] -> single | many -> Expr.and_ (List.rev many)
  and factor () =
    match peek () with
    | Some Tilde ->
        advance ();
        Expr.not_ (factor ())
    | Some Zero ->
        advance ();
        Expr.const false
    | Some One ->
        advance ();
        Expr.const true
    | Some (Ident v) ->
        advance ();
        Expr.var v
    | Some LParen ->
        advance ();
        let e = or_level () in
        (match peek () with
        | Some RParen -> advance ()
        | _ -> parse_error line "missing closing parenthesis");
        e
    | Some (Amp | Bar | Caret | RParen) | None ->
        parse_error line "expected an operand"
  in
  let e = or_level () in
  if !rest <> [] then parse_error line "trailing tokens after expression";
  e

(* --- file structure --- *)

let significant_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) ->
         let l =
           match String.index_opt l '#' with
           | Some j -> String.sub l 0 j
           | None -> l
         in
         if String.trim l = "" then None else Some (i, l))

let of_string ?(name = "eqn") text =
  let inputs = ref [] and outputs = ref [] and equations = ref [] in
  let declared_inputs = ref false in
  List.iter
    (fun (line, raw) ->
      match String.index_opt raw '=' with
      | Some eq ->
          let lhs_text = String.trim (String.sub raw 0 eq) in
          let lhs =
            match tokenize line lhs_text with
            | [ Ident v ] -> v
            | _ -> parse_error line "left-hand side must be one identifier"
          in
          let rhs_text = String.sub raw (eq + 1) (String.length raw - eq - 1) in
          let rhs = parse_expr line (tokenize line rhs_text) in
          equations := (line, lhs, rhs) :: !equations
      | None -> (
          match tokenize line raw with
          | Ident "input" :: rest ->
              declared_inputs := true;
              List.iter
                (function
                  | Ident v -> inputs := v :: !inputs
                  | _ -> parse_error line "input expects identifiers")
                rest
          | Ident "output" :: rest ->
              List.iter
                (function
                  | Ident v -> outputs := v :: !outputs
                  | _ -> parse_error line "output expects identifiers")
                rest
          | _ -> parse_error line "expected input/output/equation"))
    (significant_lines text);
  let equations = List.rev !equations in
  let inputs = List.rev !inputs in
  let outputs = List.rev !outputs in
  (* Duplicate definitions and input/definition clashes. *)
  let defined = Hashtbl.create 16 in
  List.iter
    (fun (line, lhs, _) ->
      if Hashtbl.mem defined lhs then parse_error line "%S defined twice" lhs;
      if List.mem lhs inputs then
        parse_error line "%S is declared as an input" lhs;
      Hashtbl.add defined lhs ())
    equations;
  (* Reference discipline: a variable must be an input or an earlier
     definition; free variables become inputs only when no input line
     was given. *)
  let all_lhs = Hashtbl.copy defined in
  let available = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace available v ()) inputs;
  let inferred = ref [] in
  List.iter
    (fun (line, lhs, rhs) ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem available v) then
            if Hashtbl.mem all_lhs v then
              parse_error line "%S used before its definition" v
            else if !declared_inputs then
              parse_error line "undefined name %S" v
            else begin
              Hashtbl.replace available v ();
              inferred := v :: !inferred
            end)
        (Expr.variables rhs);
      Hashtbl.replace available lhs ())
    equations;
  let inputs = inputs @ List.rev !inferred in
  let equations = List.map (fun (_, lhs, rhs) -> (lhs, rhs)) equations in
  (* Default outputs: defined names no equation references. *)
  let outputs =
    if outputs <> [] then begin
      List.iter
        (fun v ->
          if not (Hashtbl.mem defined v) then
            parse_error 0 "output %S is never defined" v)
        outputs;
      outputs
    end
    else begin
      let used = Hashtbl.create 16 in
      List.iter
        (fun (_, rhs) ->
          List.iter (fun v -> Hashtbl.replace used v ()) (Expr.variables rhs))
        equations;
      List.filter_map
        (fun (lhs, _) -> if Hashtbl.mem used lhs then None else Some lhs)
        equations
    end
  in
  if equations = [] then parse_error 0 "no equations";
  if outputs = [] then parse_error 0 "no outputs (every definition is consumed)";
  { name; inputs; equations; outputs }

let to_string t =
  let buf = Buffer.create 256 in
  if t.inputs <> [] then
    Buffer.add_string buf ("input " ^ String.concat " " t.inputs ^ "\n");
  List.iter
    (fun (lhs, rhs) ->
      Buffer.add_string buf (lhs ^ " = " ^ Expr.to_string rhs ^ "\n"))
    t.equations;
  Buffer.add_string buf ("output " ^ String.concat " " t.outputs ^ "\n");
  Buffer.contents buf

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_string ~name:(Filename.remove_extension (Filename.basename path)) text
