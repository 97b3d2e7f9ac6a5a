(* The benchmark's one clock: CLOCK_MONOTONIC through bechamel's stub,
   in seconds.  Nanoseconds since boot fit a double's mantissa exactly. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
