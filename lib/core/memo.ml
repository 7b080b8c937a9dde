module Stats = Stoch.Signal_stats

let c_hits = Obs.counter "optimizer.memo_hits"
let c_misses = Obs.counter "optimizer.memo_misses"

type t = { lock : Mutex.t; table : (string, int) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 256 }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let size t = with_lock t.lock (fun () -> Hashtbl.length t.table)

let prob_buckets = 32
let log_buckets_per_decade = 4

let quantize_prob p =
  let p = Float.min 1. (Float.max 0. p) in
  int_of_float (Float.round (p *. float_of_int prob_buckets))

let representative_prob b = float_of_int b /. float_of_int prob_buckets

let quantize_log v =
  if v <= 0. then None
  else
    Some
      (int_of_float
         (Float.round (Float.log10 v *. float_of_int log_buckets_per_decade)))

let representative_log = function
  | None -> 0.
  | Some b -> 10. ** (float_of_int b /. float_of_int log_buckets_per_decade)

let log_bucket_string = function
  | None -> "z"
  | Some b -> string_of_int b

let key ~cell ~maximize ~input_only ~groups ~input_stats ~load =
  let b = Buffer.create 64 in
  Buffer.add_string b (Cell.Gate.name cell);
  Buffer.add_char b (if maximize then '^' else 'v');
  Buffer.add_char b (if input_only then 'i' else 'a');
  Array.iter
    (fun g ->
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int g))
    groups;
  Buffer.add_char b '|';
  Array.iter
    (fun s ->
      Buffer.add_string b (string_of_int (quantize_prob (Stats.prob s)));
      Buffer.add_char b ':';
      Buffer.add_string b (log_bucket_string (quantize_log (Stats.density s)));
      Buffer.add_char b ';')
    input_stats;
  Buffer.add_char b '|';
  Buffer.add_string b (log_bucket_string (quantize_log load));
  Buffer.contents b

let representative_stats input_stats =
  Array.map
    (fun s ->
      Stats.make
        ~prob:(representative_prob (quantize_prob (Stats.prob s)))
        ~density:(representative_log (quantize_log (Stats.density s))))
    input_stats

let representative_load load = representative_log (quantize_log load)

let lookup t k =
  let r = with_lock t.lock (fun () -> Hashtbl.find_opt t.table k) in
  (match r with Some _ -> Obs.incr c_hits | None -> Obs.incr c_misses);
  r

let store t k v =
  with_lock t.lock @@ fun () ->
  if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k v
