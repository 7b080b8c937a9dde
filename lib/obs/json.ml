(* JSON values: the one reader and the one printer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some _ | None -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          Buffer.contents b
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'u' ->
              advance ();
              let hex = Buffer.create 4 in
              for _ = 1 to 4 do
                match peek () with
                | Some (('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as c) ->
                    advance ();
                    Buffer.add_char hex c
                | Some _ | None -> fail "bad \\u escape"
              done;
              let code = int_of_string ("0x" ^ Buffer.contents hex) in
              (* The printer only escapes control characters, so a plain
                 byte for the BMP-latin subset is enough. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
              go ()
          | Some _ | None -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control character"
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "0123456789-+.eE" s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some x -> Num x
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  (* The items of an array or object up to [close], [item] reading one
     and the whitespace before it. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec items acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            items acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | Some _ | None -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      items []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let key = string_lit () in
               skip_ws ();
               expect ':';
               (key, value ())))
    | Some '[' -> Arr (sequence ']' value)
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_string = function Str s -> Some s | _ -> None

let members key decode json =
  match member key json with
  | Some (Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (decode v))
        fields
  | _ -> []

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

(* --- printing --- *)

let int n = Num (float_of_int n)

(* Printf's own "%.17g" ends in this primitive; calling it directly
   skips the format interpretation and gives the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_quoted b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

let add_items b opening closing add_item items =
  Buffer.add_char b opening;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char b ',';
      add_item item)
    items;
  Buffer.add_char b closing

(* [key] is the innermost enclosing object key, named by the error a
   non-finite number raises. *)
let rec add b key = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x when Float.is_finite x -> Buffer.add_string b (format_float "%.17g" x)
  | Num x ->
      invalid_arg
        (Printf.sprintf "Json: %s is not a JSON number (%s)" (Float.to_string x)
           (match key with
           | Some k -> Printf.sprintf "key %S" k
           | None -> "outside any object"))
  | Str s -> add_quoted b s
  | Arr vs -> add_items b '[' ']' (add b key) vs
  | Obj fields -> add_items b '{' '}' (add_field b) fields

and add_field b (k, v) =
  add_quoted b k;
  Buffer.add_char b ':';
  add b (Some k) v

let print v =
  let b = Buffer.create 1024 in
  add b None v;
  Buffer.contents b

let print_streaming fields key items =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iter
    (fun field ->
      add_field b field;
      Buffer.add_char b ',')
    fields;
  add_quoted b key;
  Buffer.add_string b ":[";
  Seq.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      add b (Some key) v)
    items;
  Buffer.add_string b "]}";
  Buffer.contents b

let ndjson vs =
  let b = Buffer.create 1024 in
  List.iter
    (fun v ->
      add b None v;
      Buffer.add_char b '\n')
    vs;
  Buffer.contents b
