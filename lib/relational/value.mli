(** SQL values and their three-valued comparison semantics.

    Values are dynamically typed at the cell level; the [ty] type is the
    static column type recorded in schemas.  [Null] inhabits every column
    type.  Integers and floats are mutually comparable (numeric
    promotion); all other cross-type comparisons raise {!Type_error}. *)

type ty = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)

val ty_of : t -> ty option
(** [None] for [Null]. *)

val ty_to_string : ty -> string

val pp_ty : Format.formatter -> ty -> unit

val equal_ty : ty -> ty -> bool

val conforms : t -> ty -> bool
(** Does the value inhabit the column type?  [Null] conforms to all. *)

val is_null : t -> bool

(** {1 Grouping semantics}

    Structural equality/ordering/hash in which [Null = Null]; used for
    GROUP BY keys, DISTINCT, set operations and index keys — mirroring
    SQL's "nulls group together" rule.  Distinct from the 3VL comparison
    below. *)

val equal : t -> t -> bool
(** [equal a b] is [compare a b = 0] — so [Int 1 = Float 1.],
    [Float nan = Float nan], and [Float (-0.) = Float 0.]. *)

val compare : t -> t -> int
(** Total order: [Null] sorts first, then numerics ([Int]/[Float]
    jointly, compared numerically after promotion), then strings, then
    booleans.  On floats this is [Float.compare]'s total order, not raw
    IEEE: NaN equals NaN and sorts below every other number (including
    every [Int]), and [-0.] equals [0.].  This is the one order the
    engine sorts, groups, and deduplicates by — deterministic output
    (and the deterministic {!Diag} emission built on sorted results)
    depends on it being total. *)

val hash : t -> int
(** Consistent with {!equal}: an [Int] strictly inside (-2{^53}, 2{^53})
    hashes as that int, and an integral [Float] in the same range as the
    same int, so the cross-type numeric classes collide as required
    without boxing a float.  Every other number hashes as a float, and
    OCaml's float hash normalizes the sign of zero and all NaN payloads.  The spill
    partitioner routes rows to partitions by this hash, so two values
    that compare equal {e must} hash equal or a group would be split
    across spill files. *)

(** {1 SQL comparison semantics (3VL)} *)

val cmp3 : t -> t -> int option
(** [cmp3 a b] is [None] when either side is [Null] (comparison is
    unknown), otherwise [Some c] with [c] negative/zero/positive.
    @raise Type_error on incomparable types. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Division by zero yields [Null] (documented engine-wide choice that
    keeps randomly generated queries total). *)

val modulo : t -> t -> t
val neg : t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s rendering. *)

val to_string : t -> string
(** Floats print with ["%g"], with the non-finite cases canonicalized:
    every NaN prints ["nan"] (never ["-nan"] — the sign bit and payload
    are unobservable through {!compare}, so printing must not leak
    them), infinities print ["inf"]/["-inf"], and negative zero keeps
    its sign as ["-0"] even though [compare (Float (-0.)) (Float 0.)]
    is [0]. *)

val to_csv_string : t -> string

val of_csv_string : ty -> string -> t
(** Parse a CSV cell given the column type; the empty string is [Null].
    @raise Type_error on malformed input. *)
