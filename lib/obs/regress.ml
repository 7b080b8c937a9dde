(* Baseline comparison for BENCH_obs.json documents. *)

type target = {
  name : string;
  seconds : float;
  counters : (string * float) list;
  spans : (string * float) list;
}

let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counters_of_snapshot json =
  sorted (Json.members "counters" Json.to_float json)

let spans_of_snapshot json =
  let total_s v = Option.bind (Json.member "total_s" v) Json.to_float in
  sorted (Json.members "spans" total_s json)

let target_of_json json =
  let str key = Option.bind (Json.member key json) Json.to_string in
  let num key = Option.bind (Json.member key json) Json.to_float in
  match (str "name", num "seconds", Json.member "metrics" json) with
  | Some name, Some seconds, Some metrics ->
      Ok
        {
          name;
          seconds;
          counters = counters_of_snapshot metrics;
          spans = spans_of_snapshot metrics;
        }
  | _ -> Error "target without name/seconds/metrics"

let targets_of_json json =
  match Json.member "targets" json with
  | Some (Json.Arr targets) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> (
            match target_of_json t with
            | Ok target -> go (target :: acc) rest
            | Error _ as e -> e)
      in
      go [] targets
  | _ -> Error "document has no \"targets\" array"

let load path =
  let ( let* ) = Result.bind in
  let* text = Json.read_file path in
  let* json = Json.parse text in
  targets_of_json json

type tolerance = {
  counter_rtol : float;
  counter_slack : float;
  time_rtol : float;
  time_slack : float;
  check_time : bool;
}

let default_tolerance =
  {
    counter_rtol = 0.1;
    counter_slack = 8.;
    time_rtol = 0.5;
    time_slack = 0.02;
    check_time = true;
  }

type violation = {
  target : string;
  metric : string;
  baseline : float;
  current : float;
  allowed : float;
}

(* Inner join of two name-sorted assoc lists. *)
let join a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (ka, va) :: ra, (kb, vb) :: rb ->
        let c = compare ka kb in
        if c = 0 then go ((ka, va, vb) :: acc) ra rb
        else if c < 0 then go acc ra b
        else go acc a rb
  in
  go [] a b

let check_counter tol ~target ~metric ~baseline ~current acc =
  let slack = Float.max (tol.counter_rtol *. Float.abs baseline) tol.counter_slack in
  if Float.abs (current -. baseline) > slack then
    { target; metric; baseline; current; allowed = slack } :: acc
  else acc

let check_slower tol ~target ~metric ~baseline ~current acc =
  let limit = (baseline *. (1. +. tol.time_rtol)) +. tol.time_slack in
  if current > limit then
    { target; metric; baseline; current; allowed = limit } :: acc
  else acc

(* Counters named *_ns (par.domain_busy_ns.0, obs.sample_ns, ...) are
   wall-clock measurements in disguise: machine-dependent, so gating
   them would make the committed fixture flaky. Same policy as
   Runlog.diff. *)
let is_time_counter name =
  let suffix = "_ns" in
  let nl = String.length name and sl = String.length suffix in
  let ends_at i = i >= sl && String.sub name (i - sl) sl = suffix in
  ends_at nl
  || match String.rindex_opt name '.' with Some i -> ends_at i | None -> false

let compare_target tol (name, base, cur) acc =
  let acc =
    List.fold_left
      (fun acc (counter, baseline, current) ->
        if is_time_counter counter then acc
        else
          check_counter tol ~target:name
            ~metric:("counter " ^ counter)
            ~baseline ~current acc)
      acc
      (join base.counters cur.counters)
  in
  if not tol.check_time then acc
  else
    let acc =
      check_slower tol ~target:name ~metric:"seconds" ~baseline:base.seconds
        ~current:cur.seconds acc
    in
    List.fold_left
      (fun acc (span, baseline, current) ->
        check_slower tol ~target:name
          ~metric:("span " ^ span)
          ~baseline ~current acc)
      acc
      (join base.spans cur.spans)

let by_name targets =
  sorted (List.map (fun t -> (t.name, t)) targets)

let compare tol ~baseline ~current =
  let joined = join (by_name baseline) (by_name current) in
  let violations = List.fold_left (fun acc t -> compare_target tol t acc) [] joined in
  List.sort
    (fun a b -> Stdlib.compare (a.target, a.metric) (b.target, b.metric))
    violations

let compared_targets ~baseline ~current =
  List.map (fun (name, _, _) -> name) (join (by_name baseline) (by_name current))

let render violations =
  String.concat ""
    (List.map
       (fun v ->
         Printf.sprintf "REGRESSION %s / %s: baseline %.6g, now %.6g (allowed %.6g)\n"
           v.target v.metric v.baseline v.current v.allowed)
       violations)
