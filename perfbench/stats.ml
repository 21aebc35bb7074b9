(* Order statistics, computed exactly as Python's [statistics] module
   does, so that figures printed here agree to the last digit with
   summaries of them computed in Python. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=n)] with the default "exclusive" method:
   the n-1 cut points, interpolated between order statistics at rank
   i(m+1)/n and clamped to the sample range. *)
let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n)

(* The p-th percentile (1 <= p <= 99) with linear interpolation between
   order statistics, as [statistics.quantiles(xs, n=100,
   method="inclusive")]: it stays within the sample, where the exclusive
   method extrapolates past the largest of a few samples. *)
let percentile p xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.percentile: no samples";
  if ld = 1 then a.(0)
  else
    let j = p * (ld - 1) / 100 and delta = p * (ld - 1) mod 100 in
    ((a.(j) *. float (100 - delta)) +. (a.(j + 1) *. float delta)) /. 100.

(* Interquartile range as a share of the median: the spread the benchmark
   is held to. *)
let rel_iqr xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q3 -. q1) /. median xs
  | _ -> assert false
