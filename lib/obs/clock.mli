(** The library's one clock: [CLOCK_MONOTONIC] through bechamel's stub.

    The time of day jumps when the system clock is adjusted; every
    duration the engine, the server, the CLI and the benches report is
    taken from this clock instead.  Readings count
    from an arbitrary origin (the boot), so only differences mean
    anything. *)

val now : unit -> float
(** Seconds since the clock's origin. *)

val now_us : unit -> float
(** {!now} in microseconds. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed seconds. *)
