(* The percentile rule every reported timing follows: the nearest-rank
   rule of Rtnet_stats.Summary, over int samples. *)

module Summary = Rtnet_stats.Summary

(* Nearest-rank [p]-percentile (0 < p < 1) of unsorted int samples. *)
let percentile p samples =
  if Array.length samples = 0 then invalid_arg "Quantile.percentile: no samples";
  let a = Array.copy samples in
  Array.sort compare a;
  Summary.percentile a (100. *. p)

(* Samples lying strictly beyond the [p]-percentile of [n] distinct
   samples. *)
let beyond p n = n - 1 - percentile p (Array.init n Fun.id)

(* Samples a percentile needs: at least ten of them must lie strictly
   beyond it, so p99 needs 1000 samples and p99.9 about 10000. *)
let min_samples p =
  if p <= 0. || p >= 1. then invalid_arg "Quantile.min_samples";
  let rec go n = if beyond p n >= 10 then n else go (n + 1) in
  go (int_of_float (Float.ceil ((10. /. (1. -. p)) -. 1e-9)))

let supported ~n p = n >= min_samples p

(* A tail percentile, refused when the sample cannot support it. *)
let tail p samples =
  let n = Array.length samples in
  if not (supported ~n p) then
    invalid_arg
      (Printf.sprintf "Quantile.tail: p%g needs %d samples, got %d"
         (100. *. p) (min_samples p) n);
  percentile p samples

(* Median of a run's per-replicate figures: the lower middle value,
   the same rank Summary gives p50. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  let a = Array.copy xs in
  Array.sort compare a;
  a.((n - 1) / 2)
