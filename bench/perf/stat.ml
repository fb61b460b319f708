(** Exact order statistics over measured samples — never histogram
    buckets. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least a fraction [p] of all
   samples at or below it.  +infinity (a failed request) sorts last. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* A percentile is reported only when at least ten samples lie beyond it. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))
let supported n p = beyond n p >= 10

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, as Python's [statistics.quantiles(v, n=4)]
   computes them (the default "exclusive" method), so the benchmark's own
   spreads match the ones an external check takes over the same values. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let ratio num den = if den = 0.0 then 0.0 else num /. den
