(* NDJSON trace reader, span-tree aggregation and Chrome export. *)

module Json = struct
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
                (* The sink only escapes control characters, so a plain
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
      let numeric = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numeric c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with
      | Some x -> Num x
      | None -> fail (Printf.sprintf "bad number %S" text)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let key = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | Some _ | None -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | Some _ | None -> fail "expected ',' or ']'"
            in
            elements []
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
end

(* --- events --- *)

type event =
  | Span_begin of { name : string; t : float; depth : int; dom : int }
  | Span_end of { name : string; t : float; depth : int; dt : float; dom : int }
  | Counter of { name : string; t : float; value : int; dom : int }
  | Heartbeat of {
      t : float;
      phase : string;
      percent : float;
      eta_s : float option;
      rates : (string * float) list;
      util : float list;
      dom : int;
    }

let event_of_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> (
      let str key = Option.bind (Json.member key json) Json.to_string in
      let num key = Option.bind (Json.member key json) Json.to_float in
      (* Traces written before domain tagging have no "dom" field; they
         are single-domain by construction, so lane 0 is exact. *)
      let dom =
        match num "dom" with Some d -> int_of_float d | None -> 0
      in
      match (str "ev", str "name", num "t") with
      | Some "span_begin", Some name, Some t -> (
          match num "depth" with
          | Some depth ->
              Ok (Span_begin { name; t; depth = int_of_float depth; dom })
          | None -> Error "span_begin without depth")
      | Some "span_end", Some name, Some t -> (
          match (num "depth", num "dt") with
          | Some depth, Some dt ->
              Ok (Span_end { name; t; depth = int_of_float depth; dt; dom })
          | _ -> Error "span_end without depth/dt")
      | Some "counter", Some name, Some t -> (
          match num "value" with
          | Some v -> Ok (Counter { name; t; value = int_of_float v; dom })
          | None -> Error "counter without value")
      | Some ev, _, _ -> (
          match (ev, num "t") with
          | "heartbeat", Some t ->
              let phase = Option.value (str "phase") ~default:"" in
              let percent = Option.value (num "percent") ~default:0. in
              let rates =
                match Json.member "rates" json with
                | Some (Json.Obj fields) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun x -> (k, x)) (Json.to_float v))
                      fields
                | _ -> []
              in
              let util =
                match Json.member "util" json with
                | Some (Json.Arr xs) -> List.filter_map Json.to_float xs
                | _ -> []
              in
              Ok (Heartbeat { t; phase; percent; eta_s = num "eta_s"; rates; util; dom })
          | "heartbeat", None -> Error "heartbeat without t"
          | _ -> Error (Printf.sprintf "unknown event type %S" ev))
      | None, _, _ -> Error "event without \"ev\" field")

let events_of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else (
          match event_of_line line with
          | Ok ev -> go (lineno + 1) (ev :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> events_of_string text
  | exception Sys_error msg -> Error msg

(* --- span tree --- *)

type tree = {
  name : string;
  calls : int;
  total : float;
  self : float;
  children : tree list;
}

(* Mutable accumulation node; frozen into [tree] at the end. *)
type node = {
  n_name : string;
  mutable n_calls : int;
  mutable n_total : float;
  n_children : (string, node) Hashtbl.t;
}

let fresh name =
  { n_name = name; n_calls = 0; n_total = 0.; n_children = Hashtbl.create 4 }

let span_tree events =
  let root = fresh "" in
  (* One stack of open spans per domain (innermost first, the shared
     root at the bottom): a worker's spans nest relative to that
     worker, while identical paths from different domains aggregate
     into the same tree nodes. *)
  let stacks : (int, node list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = ref [ root ] in
        Hashtbl.add stacks dom s;
        s
  in
  let descend parent name =
    match Hashtbl.find_opt parent.n_children name with
    | Some child -> child
    | None ->
        let child = fresh name in
        Hashtbl.add parent.n_children name child;
        child
  in
  List.iter
    (fun ev ->
      match ev with
      | Span_begin { name; dom; _ } ->
          let stack = stack_of dom in
          let parent = List.hd !stack in
          stack := descend parent name :: !stack
      | Span_end { name; dt; dom; _ } -> (
          let stack = stack_of dom in
          match !stack with
          | top :: rest when top.n_name = name && rest <> [] ->
              top.n_calls <- top.n_calls + 1;
              top.n_total <- top.n_total +. dt;
              stack := rest
          | _ -> (* unmatched end: corrupt or truncated trace *) ())
      | Counter _ | Heartbeat _ -> ())
    events;
  let rec freeze node =
    let children =
      Hashtbl.fold (fun _ child acc -> freeze child :: acc) node.n_children []
      (* A span left open by a truncated trace froze with no completed
         calls; drop it unless completed descendants need its path. *)
      |> List.filter (fun c -> c.calls > 0 || c.children <> [])
      |> List.sort (fun a b -> compare a.name b.name)
    in
    let child_total = List.fold_left (fun acc c -> acc +. c.total) 0. children in
    let total =
      (* The synthetic root (and any span still open when the trace was
         cut) has no recorded time of its own: its children define it. *)
      if node.n_calls = 0 then child_total else node.n_total
    in
    {
      name = node.n_name;
      calls = node.n_calls;
      total;
      self = Float.max 0. (total -. child_total);
      children;
    }
  in
  freeze root

let cell_seconds s =
  if s >= 1. then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let render_tree tree =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%10s %10s %8s  %s\n" "total" "self" "calls" "span");
  let rec go indent node =
    Buffer.add_string b
      (Printf.sprintf "%10s %10s %8d  %s%s\n"
         (cell_seconds node.total) (cell_seconds node.self) node.calls
         (String.make (2 * indent) ' ')
         node.name);
    List.iter (go (indent + 1)) node.children
  in
  if tree.name = "" then (
    (* skip the synthetic root's own line when it only aggregates *)
    Buffer.add_string b
      (Printf.sprintf "%10s %10s %8s  %s\n" (cell_seconds tree.total) "" ""
         "(trace total)");
    List.iter (go 0) tree.children)
  else go 0 tree;
  Buffer.contents b

let final_counters events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (function
      | Counter { name; value; _ } -> Hashtbl.replace tbl name value
      | Span_begin _ | Span_end _ | Heartbeat _ -> ())
    events;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- Chrome trace-event export --- *)

let to_chrome events =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"traceEvents\":[";
  let us t = t *. 1e6 in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_char b ',';
        Buffer.add_string b s)
      fmt
  in
  (* One Chrome thread lane per domain; lane 0 (the coordinator, and
     everything in a pre-domain-tagging trace) stays tid 1. *)
  List.iter
    (fun ev ->
      match ev with
      | Span_begin { name; t; dom; _ } ->
          emit "{\"name\":%s,\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
            (Obs.json_string name) (us t) (dom + 1)
      | Span_end { name; t; dom; _ } ->
          emit "{\"name\":%s,\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
            (Obs.json_string name) (us t) (dom + 1)
      | Counter { name; t; value; dom } ->
          emit
            "{\"name\":%s,\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"value\":%d}}"
            (Obs.json_string name) (us t) (dom + 1) value
      | Heartbeat { t; percent; dom; _ } ->
          emit
            "{\"name\":\"progress.percent\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"value\":%.3f}}"
            (us t) (dom + 1) percent)
    events;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

(* --- folded stacks (flamegraph.pl / speedscope) --- *)

let to_folded tree =
  let b = Buffer.create 256 in
  let frame name =
    String.map (fun c -> if c = ';' || c = ' ' then '_' else c) name
  in
  (* One line per path, value = self time in integer nanoseconds, DFS
     order (children are name-sorted, so output is deterministic).
     Zero-self interior frames still get a line: flamegraph.pl derives
     their width from descendant sums either way, and keeping them
     makes the file greppable per path. *)
  let rec go rev_path node =
    let rev_path = if node.name = "" then rev_path else frame node.name :: rev_path in
    (if rev_path <> [] then
       let ns = int_of_float (Float.max 0. (node.self *. 1e9)) in
       Buffer.add_string b (String.concat ";" (List.rev rev_path));
       Buffer.add_char b ' ';
       Buffer.add_string b (string_of_int ns);
       Buffer.add_char b '\n');
    List.iter (go rev_path) node.children
  in
  go [] tree;
  Buffer.contents b
