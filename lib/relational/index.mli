(** Hash indexes on column subsets.

    Keys are projected value tuples compared with grouping equality
    ({!Value.equal}).  Each key column is either plain or null-safe.  A
    row with a NULL in a plain key column is excluded: an SQL
    equi-condition can never be true on a NULL key, so such a row cannot
    match through the index, and a probe with a NULL there finds
    nothing.  On a null-safe column ([<=>]) NULL matches NULL.

    The index is chained over the row array it was built from: bucket
    heads plus one link per row, so probing allocates nothing and finds
    matching rows in insertion order. *)

type t

val build : ?null_safe:bool array -> Relation.t -> int array -> t
(** [build rel cols] indexes [rel] on the column positions [cols].
    [null_safe] has one flag per key column (default: all plain).
    @raise Invalid_argument if [null_safe] and [cols] differ in length. *)

val build_rows : ?null_safe:bool array -> Tuple.t array -> int array -> t
(** Index a bare row array, which the index keeps (do not mutate it). *)

val probe_row_iter : t -> Tuple.t -> int array -> (int -> unit) -> unit
(** [probe_row_iter idx row cols f] calls [f] on the position of every
    indexed row whose key equals the values of [row] at [cols], in
    insertion order.  The key is hashed and compared where it sits in
    [row]: no key tuple is built. *)

val probe : t -> Tuple.t -> int list
(** [probe idx key] returns the row positions whose key equals [key]
    (a tuple of exactly the key columns), in insertion order. *)

val probe_iter : t -> Tuple.t -> (int -> unit) -> unit

val key_of : t -> Tuple.t -> Tuple.t option
(** Extract the key columns of a full row; [None] if a plain key column
    is NULL. *)

val cardinality : t -> int
(** Number of distinct keys among the indexed rows. *)
