(* Order statistics used by every metric the benchmark prints. *)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]: the
   smallest value with at least [p]% of the sample at or below it. *)
let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (rank - 1))

let median values = percentile values 50.

(* Geometric mean of strictly positive values: every template weighs the
   same whatever its absolute cost. *)
let geomean values =
  let n = List.length values in
  if n = 0 then invalid_arg "Stats.geomean: empty list";
  if List.exists (fun v -> not (v > 0.)) values then
    invalid_arg "Stats.geomean: non-positive value";
  exp (List.fold_left (fun acc v -> acc +. log v) 0. values /. float_of_int n)

(* [a / b], or 0 when nothing was attempted. *)
let ratio a b = if b = 0. then 0. else a /. b
