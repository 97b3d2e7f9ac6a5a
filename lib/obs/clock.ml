(* Nanoseconds since boot fit a double's mantissa exactly. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let now () = now_ns () *. 1e-9

let now_us () = now_ns () *. 1e-3

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
