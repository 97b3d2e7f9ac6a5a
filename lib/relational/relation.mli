(** Multiset relations: a schema plus an array of rows.

    Relations follow SQL bag semantics — duplicates are preserved unless
    an explicit DISTINCT/set operation removes them. *)

type t

val create : ?check:bool -> Schema.t -> Tuple.t array -> t
(** [create schema rows].  With [check] (default [true]) every row is
    verified to have the right arity and cell types.
    @raise Invalid_argument on a malformed row. *)

val of_list : ?check:bool -> Schema.t -> Tuple.t list -> t

val empty : Schema.t -> t

val schema : t -> Schema.t

val rows : t -> Tuple.t array
(** The underlying row array; treat as read-only. *)

val cardinality : t -> int

val is_empty : t -> bool

val row : t -> int -> Tuple.t

val iter : (Tuple.t -> unit) -> t -> unit

val iteri : (int -> Tuple.t -> unit) -> t -> unit

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val filter : (Tuple.t -> bool) -> t -> t

val rename : string -> t -> t
(** Alias the relation: requalify every attribute. *)

val equal_as_multiset : t -> t -> bool
(** Same bare-name schema (positionally) and same rows as a multiset.
    Used pervasively by the test suites to compare engines. *)

val pp : Format.formatter -> t -> unit
(** Aligned ASCII table. *)
