(* Fleet history analytics: extract per-run metric values out of Runlog
   archives (and the bench NDJSON history), align them into
   like-for-like series, and run a deterministic changepoint detector.
   See history.mli for the model. *)

(* --- records --- *)

type record = {
  r_id : string;
  r_source : string;
  r_label : string;
  r_circuit : string option;
  r_time : float;
  r_argv : string list;
  r_fingerprint : string;
  r_metrics : (string * float) list;
}

let series_fingerprint (m : Runlog.manifest) =
  let b = Buffer.create 256 in
  Buffer.add_string b m.subcommand;
  Buffer.add_char b '\x00';
  List.iter
    (fun (k, v) ->
      if k <> "jobs" then begin
        Buffer.add_string b k;
        Buffer.add_char b '\x01';
        Buffer.add_string b v;
        Buffer.add_char b '\x00'
      end)
    (List.sort compare m.params);
  List.iter
    (fun sha ->
      Buffer.add_string b sha;
      Buffer.add_char b '\x00')
    (List.sort compare (List.map snd m.inputs));
  Runlog.sha256_hex (Buffer.contents b)

(* Flat metric map of one parsed snapshot.json document: counters
   verbatim, dist.<name>.<stat>, span.<name>, memo hit rate. *)
let metrics_of_snapshot json =
  let acc = ref [] in
  let put name v = acc := (name, v) :: !acc in
  let counters = Regress.counters_of_snapshot json in
  List.iter (fun (name, v) -> put name v) counters;
  (match Trace.Json.member "distributions" json with
  | Some (Trace.Json.Obj dists) ->
      List.iter
        (fun (name, d) ->
          let stat key =
            Option.bind (Trace.Json.member key d) Trace.Json.to_float
          in
          let emit key = function
            | Some v -> put (Printf.sprintf "dist.%s.%s" name key) v
            | None -> ()
          in
          emit "count" (stat "count");
          emit "min" (stat "min");
          emit "max" (stat "max");
          emit "p50" (stat "p50");
          emit "p90" (stat "p90");
          emit "p99" (stat "p99");
          match (stat "count", stat "sum") with
          | Some n, Some s when n > 0. ->
              put (Printf.sprintf "dist.%s.mean" name) (s /. n)
          | _ -> ())
        dists
  | _ -> ());
  List.iter
    (fun (name, total_s) -> put ("span." ^ name) total_s)
    (Regress.spans_of_snapshot json);
  (match
     ( List.assoc_opt "optimizer.memo_hits" counters,
       List.assoc_opt "optimizer.memo_misses" counters )
   with
  | Some h, Some m when h +. m > 0. ->
      put "memo.hit_rate_pct" (100. *. h /. (h +. m))
  | _ -> ());
  !acc

let record_of_run (run : Runlog.run) =
  let m = run.manifest in
  let acc = ref [ ("wall_s", m.finished -. m.started) ] in
  let put name v = acc := (name, v) :: !acc in
  (match Runlog.read_attachment run "snapshot" with
  | Ok json -> List.iter (fun (n, v) -> put n v) (metrics_of_snapshot json)
  | Error _ -> ());
  (if List.mem "ledger" m.attachments then
     match
       Result.bind
         (Runlog.read_attachment run "ledger")
         Runlog.ledger_of_json
     with
     | Ok l ->
         put "ledger.total_before" l.l_total_before;
         put "ledger.total_after" l.l_total_after;
         if l.l_total_before <> 0. then
           put "ledger.reduction_pct"
             (100. *. (l.l_total_before -. l.l_total_after)
             /. l.l_total_before)
     | Error _ -> ());
  (if List.mem "audit" m.attachments then
     match Runlog.read_attachment run "audit" with
     | Ok json ->
         let summary = Json.members "summary" Json.to_float json in
         List.iter
           (fun metric ->
             Option.iter
               (put ("audit." ^ metric))
               (List.assoc_opt metric summary))
           Runlog.audit_metrics
     | Error _ -> ());
  {
    r_id = run.run_id;
    r_source = run.run_dir;
    r_label = m.subcommand;
    r_circuit = List.assoc_opt "circuit" m.params;
    r_time = m.started;
    r_argv = m.argv;
    r_fingerprint = series_fingerprint m;
    r_metrics = List.sort compare !acc;
  }

let load_archive root =
  Result.map (List.map record_of_run) (Runlog.scan root)

(* --- bench history --- *)

let bench_record ~source json =
  let str key = Option.bind (Trace.Json.member key json) Trace.Json.to_string
  and num key = Option.bind (Trace.Json.member key json) Trace.Json.to_float in
  match (str "target", num "seconds") with
  | Some target, Some seconds ->
      let metrics =
        match Trace.Json.member "metrics" json with
        | Some snap -> metrics_of_snapshot snap
        | None -> []
      in
      let argv =
        match Trace.Json.member "argv" json with
        | Some (Trace.Json.Arr items) ->
            List.filter_map Trace.Json.to_string items
        | _ -> []
      in
      Some
        {
          r_id = target;
          r_source = source;
          r_label = "bench:" ^ target;
          r_circuit = None;
          r_time = Option.value (num "time") ~default:0.;
          r_argv = argv;
          r_fingerprint = Runlog.sha256_hex ("bench:" ^ target);
          r_metrics =
            List.sort compare (("wall_s", seconds) :: metrics);
        }
  | _ -> None

let load_bench_history path =
  match Json.read_file path with
  | Error msg -> Error msg
  | Ok text ->
      let skipped = ref 0 in
      let records =
        String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               let line = String.trim line in
               if line = "" then None
               else
                 match Trace.Json.parse line with
                 | Ok json -> (
                     match bench_record ~source:path json with
                     | Some r -> Some r
                     | None ->
                         incr skipped;
                         None)
                 | Error _ ->
                     incr skipped;
                     None)
      in
      let records =
        List.stable_sort
          (fun a b -> compare (a.r_time, a.r_id) (b.r_time, b.r_id))
          records
      in
      Ok (records, !skipped)

(* --- trends --- *)

type trend = {
  t_n : int;
  t_first : float;
  t_last : float;
  t_min : float;
  t_max : float;
  t_mean : float;
  t_rate : float;
  t_ewma : float;
}

let trend ?(alpha = 0.3) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "History.trend: empty series";
  let mn = ref xs.(0) and mx = ref xs.(0) and sum = ref 0. in
  let ewma = ref xs.(0) in
  Array.iteri
    (fun i x ->
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      sum := !sum +. x;
      if i > 0 then ewma := (alpha *. x) +. ((1. -. alpha) *. !ewma))
    xs;
  {
    t_n = n;
    t_first = xs.(0);
    t_last = xs.(n - 1);
    t_min = !mn;
    t_max = !mx;
    t_mean = !sum /. float_of_int n;
    t_rate =
      (if n < 2 then 0.
       else (xs.(n - 1) -. xs.(0)) /. float_of_int (n - 1));
    t_ewma = !ewma;
  }

(* --- changepoints --- *)

type direction = Up | Down
type shift = {
  sh_index : int;
  sh_before : float;
  sh_after : float;
  sh_score : float;
  sh_direction : direction;
}

let mean_slice xs lo hi =
  (* inclusive bounds; hi >= lo *)
  let sum = ref 0. in
  for i = lo to hi do
    sum := !sum +. xs.(i)
  done;
  !sum /. float_of_int (hi - lo + 1)

(* Standardized two-sided mean-shift statistic for splitting [lo..hi]
   at t (t is the first point of the candidate new regime):

     |mean(right) - mean(left)| * sqrt(n1 n2 / (n1 + n2)) / sigma

   — the maximized-CUSUM form of binary segmentation. The sqrt factor
   makes the score comparable across split positions, so a genuine
   step scores far above an off-center split of the same segment. *)
let split_score xs lo hi ~sigma t =
  let n1 = t - lo and n2 = hi - t + 1 in
  let m1 = mean_slice xs lo (t - 1) and m2 = mean_slice xs t hi in
  Float.abs (m2 -. m1)
  *. sqrt (float_of_int n1 *. float_of_int n2 /. float_of_int (n1 + n2))
  /. sigma

let detect ?(threshold = 5.0) xs =
  let n = Array.length xs in
  if n < 4 then []
  else begin
    let diffs = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
    let zeros =
      Array.fold_left (fun a d -> if d = 0. then a + 1 else a) 0 diffs
    in
    let raw =
      if 2 * zeros >= Array.length diffs then
        (* Piecewise-constant series (deterministic counters): every
           change of value is an exact changepoint. *)
        List.concat
          (List.init (n - 1) (fun i ->
               if diffs.(i) = 0. then []
               else
                 [
                   ( i + 1,
                     (if diffs.(i) > 0. then Up else Down),
                     2. *. threshold );
                 ]))
      else begin
        let abs_sorted = Array.map Float.abs diffs in
        Array.sort compare abs_sorted;
        let median = abs_sorted.(Array.length abs_sorted / 2) in
        let sigma = 1.4826 *. median /. sqrt 2. in
        if sigma <= 0. then []
        else begin
          let out = ref [] in
          let rec segment lo hi =
            if hi - lo + 1 >= 4 then begin
              let best_t = ref lo and best = ref 0. in
              for t = lo + 1 to hi do
                let s = split_score xs lo hi ~sigma t in
                (* strict >: ties resolve to the earliest split *)
                if s > !best then begin
                  best := s;
                  best_t := t
                end
              done;
              if !best > threshold && !best_t > lo then begin
                let cp = !best_t in
                let dir =
                  if mean_slice xs cp hi > mean_slice xs lo (cp - 1) then Up
                  else Down
                in
                out := (cp, dir, !best) :: !out;
                segment lo (cp - 1);
                segment cp hi
              end
            end
          in
          segment 0 (n - 1);
          !out
        end
      end
    in
    let raw = List.sort_uniq compare raw in
    (* Regime means bounded by the neighbouring changepoints. *)
    let indices = List.map (fun (cp, _, _) -> cp) raw in
    List.map
      (fun (cp, dir, score) ->
        let prev =
          List.fold_left (fun a i -> if i < cp then max a i else a) 0 indices
        in
        let next =
          List.fold_left
            (fun a i -> if i > cp then min a i else a)
            n indices
        in
        {
          sh_index = cp;
          sh_before = mean_slice xs prev (cp - 1);
          sh_after = mean_slice xs cp (next - 1);
          sh_score = score;
          sh_direction = dir;
        })
      raw
  end

(* --- orientation --- *)

type orientation = Higher_worse | Lower_worse | Neutral

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  nn > 0 && go 0

let has_prefix p s =
  String.length s >= String.length p
  && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let ns = String.length s and nf = String.length suf in
  ns >= nf && String.sub s (ns - nf) nf = suf

let orientation name =
  if
    contains name "hit_rate" || contains name "reduction"
    || contains name "speedup"
    (* progress only regresses by stalling/resetting downward *)
    || has_prefix "heartbeat." name
  then Lower_worse
  else if
    name = "wall_s" || has_suffix "_ns" name || has_prefix "span." name
    || contains name "err" || contains name "time"
    || has_prefix "ledger.total" name
    || contains name "power"
  then Higher_worse
  else Neutral

(* --- reports --- *)

type point = {
  p_run : string;
  p_time : float;
  p_argv : string list;
  p_source : string;
  p_value : float;
}

type series = {
  se_metric : string;
  se_points : point array;
  se_trend : trend;
  se_shifts : shift list;
}

type group = {
  g_label : string;
  g_fingerprint : string;
  g_circuit : string option;
  g_series : series list;
}

type report = {
  groups : group list;
  threshold : float;
  requested : string list;
}

let default_metrics =
  [
    "wall_s"; "ledger.total_before"; "ledger.total_after";
    "ledger.reduction_pct"; "audit.mean_density_err_pct";
    "memo.hit_rate_pct";
  ]

let build ?(metrics = default_metrics) ?(threshold = 5.0) records =
  let requested = List.sort_uniq compare metrics in
  let tbl : (string * string, record list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let keys = ref [] in
  List.iter
    (fun r ->
      let key = (r.r_label, r.r_fingerprint) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := r :: !cell
      | None ->
          Hashtbl.add tbl key (ref [ r ]);
          keys := key :: !keys)
    records;
  let groups =
    List.sort compare !keys
    |> List.map (fun ((label, fingerprint) as key) ->
           let members =
             List.stable_sort
               (fun a b -> compare (a.r_time, a.r_id) (b.r_time, b.r_id))
               (List.rev !(Hashtbl.find tbl key))
           in
           let circuit =
             List.fold_left
               (fun acc r ->
                 match acc with Some _ -> acc | None -> r.r_circuit)
               None members
           in
           let series =
             List.filter_map
               (fun metric ->
                 let points =
                   List.filter_map
                     (fun r ->
                       match List.assoc_opt metric r.r_metrics with
                       | Some v ->
                           Some
                             {
                               p_run = r.r_id;
                               p_time = r.r_time;
                               p_argv = r.r_argv;
                               p_source = r.r_source;
                               p_value = v;
                             }
                       | None -> None)
                     members
                 in
                 match points with
                 | [] -> None
                 | _ ->
                     let points = Array.of_list points in
                     let values =
                       Array.map (fun p -> p.p_value) points
                     in
                     Some
                       {
                         se_metric = metric;
                         se_points = points;
                         se_trend = trend values;
                         se_shifts = detect ~threshold values;
                       })
               requested
           in
           {
             g_label = label;
             g_fingerprint = fingerprint;
             g_circuit = circuit;
             g_series = series;
           })
  in
  { groups; threshold; requested }

type regression = { rg_group : group; rg_series : series; rg_shift : shift }

let regressions report =
  let all =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun s ->
            let orient = orientation s.se_metric in
            List.filter_map
              (fun sh ->
                let bad =
                  match (orient, sh.sh_direction) with
                  | Higher_worse, Up | Lower_worse, Down -> true
                  | Neutral, _ -> true
                  | _ -> false
                in
                if bad then
                  Some { rg_group = g; rg_series = s; rg_shift = sh }
                else None)
              s.se_shifts)
          g.g_series)
      report.groups
  in
  List.stable_sort
    (fun a b ->
      compare
        ( -.Float.abs a.rg_shift.sh_score,
          a.rg_group.g_label,
          a.rg_series.se_metric,
          a.rg_shift.sh_index )
        ( -.Float.abs b.rg_shift.sh_score,
          b.rg_group.g_label,
          b.rg_series.se_metric,
          b.rg_shift.sh_index ))
    all

let direction_name = function Up -> "up" | Down -> "down"

let render ?(top = 10) report =
  let b = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  if report.groups = [] then line "no runs found"
  else begin
    List.iter
      (fun g ->
        let runs =
          List.fold_left
            (fun acc s -> max acc (Array.length s.se_points))
            0 g.g_series
        in
        line "%s%s  [%s]  %d run%s" g.g_label
          (match g.g_circuit with
          | Some c -> Printf.sprintf " (%s)" c
          | None -> "")
          (String.sub g.g_fingerprint 0 12)
          runs
          (if runs = 1 then "" else "s");
        line "  %-36s %4s %12s %12s %12s %8s %6s" "metric" "n" "first"
          "last" "ewma" "rate" "shifts";
        List.iter
          (fun s ->
            let t = s.se_trend in
            line "  %-36s %4d %12.6g %12.6g %12.6g %8.3g %6d"
              s.se_metric t.t_n t.t_first t.t_last t.t_ewma t.t_rate
              (List.length s.se_shifts))
          g.g_series;
        line "")
      report.groups;
    let regs = regressions report in
    if regs = [] then
      line "no regressions detected (threshold %g)" report.threshold
    else begin
      line "regressions (threshold %g, worst first):" report.threshold;
      List.iteri
        (fun i r ->
          if i < top then begin
            let sh = r.rg_shift in
            let p = r.rg_series.se_points.(sh.sh_index) in
            line "  %2d. %s %s: %s %.6g -> %.6g (score %.1f) at run %s"
              (i + 1) r.rg_group.g_label r.rg_series.se_metric
              (direction_name sh.sh_direction)
              sh.sh_before sh.sh_after sh.sh_score p.p_run;
            if p.p_argv <> [] then
              line "      argv: %s" (String.concat " " p.p_argv)
          end)
        regs;
      if List.length regs > top then
        line "  ... and %d more" (List.length regs - top)
    end
  end;
  Buffer.contents b

(* --- JSON / NDJSON --- *)

let json_of_trend t =
  Json.Obj
    [
      ("n", Json.int t.t_n);
      ("first", Json.Num t.t_first);
      ("last", Json.Num t.t_last);
      ("min", Json.Num t.t_min);
      ("max", Json.Num t.t_max);
      ("mean", Json.Num t.t_mean);
      ("rate", Json.Num t.t_rate);
      ("ewma", Json.Num t.t_ewma);
    ]

let strings l = Json.Arr (List.map (fun s -> Json.Str s) l)

(* A point's fields, shared by the report and the NDJSON point lines. *)
let point_fields p =
  [
    ("run", Json.Str p.p_run);
    ("t", Json.Num p.p_time);
    ("v", Json.Num p.p_value);
  ]

let json_of_point p =
  Json.Obj
    (point_fields p
    @ [ ("source", Json.Str p.p_source); ("argv", strings p.p_argv) ])

(* A changepoint's fields after its group and metric, shared by the
   report and the NDJSON shift lines. *)
let shift_fields points sh =
  [
    ("index", Json.int sh.sh_index);
    ("run", Json.Str points.(sh.sh_index).p_run);
    ("before", Json.Num sh.sh_before);
    ("after", Json.Num sh.sh_after);
    ("score", Json.Num sh.sh_score);
    ("direction", Json.Str (direction_name sh.sh_direction));
  ]

let json_of_series s =
  Json.Obj
    [
      ("metric", Json.Str s.se_metric);
      ("trend", json_of_trend s.se_trend);
      ( "points",
        Json.Arr (Array.to_list (Array.map json_of_point s.se_points)) );
      ( "shifts",
        Json.Arr
          (List.map
             (fun sh -> Json.Obj (shift_fields s.se_points sh))
             s.se_shifts) );
    ]

let json_of_group g =
  let runs =
    List.fold_left
      (fun acc s -> max acc (Array.length s.se_points))
      0 g.g_series
  in
  Json.Obj
    [
      ("label", Json.Str g.g_label);
      ("fingerprint", Json.Str g.g_fingerprint);
      ( "circuit",
        match g.g_circuit with Some c -> Json.Str c | None -> Json.Null );
      ("runs", Json.int runs);
      ("series", Json.Arr (List.map json_of_series g.g_series));
    ]

let to_json report =
  Json.print
    (Json.Obj
       [
         ("history_version", Json.int 1);
         ("threshold", Json.Num report.threshold);
         ("metrics", strings report.requested);
         ("groups", Json.Arr (List.map json_of_group report.groups));
       ])

let to_ndjson report =
  Json.ndjson
    (List.concat_map
       (fun g ->
         List.concat_map
           (fun s ->
             let line kind fields =
               Json.Obj
                 ([
                    ("kind", Json.Str kind);
                    ("group", Json.Str g.g_label);
                    ("fingerprint", Json.Str g.g_fingerprint);
                    ("metric", Json.Str s.se_metric);
                  ]
                 @ fields)
             in
             Array.to_list
               (Array.map (fun p -> line "point" (point_fields p)) s.se_points)
             @ List.map
                 (fun sh -> line "shift" (shift_fields s.se_points sh))
                 s.se_shifts)
           g.g_series)
       report.groups)
