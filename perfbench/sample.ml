(* Order statistics for every number the benchmark reports. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile [q] in [0, 1] of a sorted, non-empty
   array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Sample.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else
    let frac = pos -. float_of_int i in
    s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = quantile_sorted (sorted a) 0.5

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* A timing summary as the metric names carry it: the median, the
   highest of p99/p90 that has at least ten samples beyond it, and the
   sample count.  Empty input yields only the count. *)
let summary name ~unit_ samples =
  let n = Array.length samples in
  let s = sorted samples in
  let tail =
    if float_of_int n *. 0.01 >= 10. then [ (name ^ "_p99", quantile_sorted s 0.99, unit_) ]
    else if float_of_int n *. 0.1 >= 10. then [ (name ^ "_p90", quantile_sorted s 0.9, unit_) ]
    else []
  in
  (if n = 0 then [] else [ (name ^ "_p50", quantile_sorted s 0.5, unit_) ])
  @ tail
  @ [ (name ^ "_n", float_of_int n, "count") ]

(* Monotonic seconds with nanosecond resolution: a double holding the
   epoch time cannot resolve the sub-microsecond calls timed here. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio num den = if den <= 0. then 0. else num /. den
