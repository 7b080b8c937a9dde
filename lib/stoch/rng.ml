type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: add the gamma, then mix with the
   murmur-inspired finalizer (variant 13 of Stafford's mixers). *)
let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix64 (next_seed t)

let split t = { state = bits64 t }

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The state stays in a local while the buffer fills: one boxed store
   per call instead of one per word. *)
let fill_bits64 t buf =
  let state = ref t.state in
  for i = 0 to (Bytes.length buf / 8) - 1 do
    state := Int64.add !state golden_gamma;
    set64 buf (8 * i) (mix64 !state)
  done;
  t.state <- !state

(* 53 random mantissa bits scaled into [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: n is always tiny compared to 2^62,
     so modulo bias is negligible; we still mask to a non-negative int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t p = float t < p

let exponential t mean =
  assert (mean > 0.);
  (* Inverse CDF; 1 - u avoids log 0. *)
  let u = float t in
  -.mean *. log (1. -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
