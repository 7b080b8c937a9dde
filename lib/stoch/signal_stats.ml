type t = { prob : float; density : float }

let c_stats_made = Obs.counter "stoch.stats_made"

let make ~prob ~density =
  Obs.incr c_stats_made;
  let finite x = Float.is_finite x in
  if not (finite prob && finite density) then
    invalid_arg "Signal_stats.make: non-finite value";
  if prob < 0. || prob > 1. then
    invalid_arg "Signal_stats.make: prob outside [0, 1]";
  if density < 0. then invalid_arg "Signal_stats.make: negative density";
  { prob; density }

let prob t = t.prob
let density t = t.density

let constant b = { prob = (if b then 1. else 0.); density = 0. }

let latched = { prob = 0.5; density = 0.5 }

let is_constant t = t.density = 0.

let mean_holding_times t =
  if is_constant t then
    invalid_arg "Signal_stats.mean_holding_times: constant signal";
  (2. *. (1. -. t.prob) /. t.density, 2. *. t.prob /. t.density)

let flip_probs t ~dt =
  if t.density <= 0. then None
  else
    let p = t.prob and half = t.density *. dt /. 2. in
    let p01 = if p >= 1. then 1. else Float.min 1. (half /. (1. -. p)) in
    let p10 = if p <= 0. then 1. else Float.min 1. (half /. p) in
    Some (p01, p10)

let equal ?(eps = 1e-9) a b =
  Float.abs (a.prob -. b.prob) <= eps
  && Float.abs (a.density -. b.density) <= eps

let pp ppf t = Format.fprintf ppf "P=%.3f D=%.3g" t.prob t.density
