(* Order statistics for verdict times.

   Percentiles use the nearest-rank rule in integer arithmetic: the
   [p]-th percentile of [n] sorted samples is the sample at 0-based
   rank [ceil (p * n / 100) - 1], so p90 of 100 samples leaves exactly
   10 samples above it, and no float rounding moves the rank. *)

let rank ~pct n =
  if n <= 0 then invalid_arg "Stats.rank: no samples"
  else max 0 (min (n - 1) ((((pct * n) + 99) / 100) - 1))

let percentile ~pct sorted = sorted.(rank ~pct (Array.length sorted))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
