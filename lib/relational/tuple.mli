(** Tuples: positional arrays of values, interpreted through a schema. *)

type t = Value.t array

val empty : t

val concat : t -> t -> t

val project : t -> int array -> t

val equal : t -> t -> bool
(** Grouping equality (NULLs compare equal), positionwise. *)

val compare : t -> t -> int
(** Lexicographic extension of {!Value.compare}: a total order in which
    a strict prefix sorts before its extensions.  It inherits
    {!Value.compare}'s float conventions (NaN = NaN, [-0.] = [0.],
    [Int]/[Float] promotion), so sorted relation output — and the
    deterministic {!Diag} ordering derived from it — is stable across
    runs. *)

val pp : Format.formatter -> t -> unit
