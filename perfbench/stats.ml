(* Order statistics over float samples (nearest-rank, so every reported
   quantile is a value that was actually measured). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [quantile q a] over a sorted array: the smallest sample with at least
   a share [q] of the samples at or below it. Empty input gives 0. *)
let quantile q a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median_of xs = quantile 0.5 (sorted xs)
let p99_of xs = quantile 0.99 (sorted xs)
let sum = List.fold_left ( +. ) 0.0
let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
