(* NDJSON trace reader, span-tree aggregation and Chrome export. *)

module Json = Json

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
              let rates = Json.members "rates" Json.to_float json in
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

let load path = Result.bind (Json.read_file path) events_of_string

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
  (* One Chrome thread lane per domain; lane 0 (the coordinator, and
     everything in a pre-domain-tagging trace) stays tid 1. *)
  let event ?value name ph t dom =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("ts", Json.Num (t *. 1e6));
         ("pid", Json.int 1);
         ("tid", Json.int (dom + 1));
       ]
      @
      match value with
      | Some v -> [ ("args", Json.Obj [ ("value", v) ]) ]
      | None -> [])
  in
  let chrome = function
    | Span_begin { name; t; dom; _ } -> event name "B" t dom
    | Span_end { name; t; dom; _ } -> event name "E" t dom
    | Counter { name; t; value; dom } ->
        event ~value:(Json.int value) name "C" t dom
    | Heartbeat { t; percent; dom; _ } ->
        event ~value:(Json.Num percent) "progress.percent" "C" t dom
  in
  Json.print
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map chrome events));
         ("displayTimeUnit", Json.Str "ms");
       ])

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
