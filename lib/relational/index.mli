(** Hash indexes on column subsets, one group per distinct key.

    Keys are compared with grouping equality ({!Value.equal}) where they
    sit in a row: no key tuple is built to probe.  Each key column is
    either plain or null-safe.  A row with a NULL in a plain key column
    is excluded: an SQL equi-condition can never be true on a NULL key,
    so such a row cannot match through the index, and a probe with a
    NULL there finds nothing.  On a null-safe column ([<=>]) NULL
    matches NULL.

    Groups are numbered densely, [0 .. cardinality - 1].  A {e built}
    index keys its groups by the row array itself and numbers them in
    the order of their first rows; it is chained over the rows, so
    probing allocates nothing and finds matching rows in insertion
    order.  A {e growing} index
    holds only groups, in first-seen order — the slot table of GROUP
    BY. *)

type t

val build_rows : ?null_safe:bool array -> Tuple.t array -> int array -> t
(** [build_rows rows cols] indexes [rows] (kept: do not mutate them) on
    the columns [cols], with one null-safety flag per column (default:
    all plain).
    @raise Invalid_argument if [null_safe] and [cols] differ in length. *)

val growing : int array -> t
(** An empty growing index over rows keyed at the given columns,
    null-safe on every column (NULLs group together, as in GROUP BY). *)

val find : t -> Tuple.t -> int array -> int
(** [find idx row cols] is the group whose key equals the values of
    [row] at [cols], or [-1]; its rows are not walked. *)

val find_or_add : t -> Tuple.t -> int
(** A growing index's group for [row]'s key, inserted last when new —
    only then is the key projected out of [row] (or [row] kept whole). *)

val probe_row_iter : t -> Tuple.t -> int array -> (int -> unit) -> unit
(** [probe_row_iter idx row cols f] calls [f] on every row position of
    a built index whose key equals [row]'s at [cols], in order. *)

val cardinality : t -> int
(** Number of distinct keys: the groups. *)

val group_of : t -> int -> int
(** A built index's group of its row [i]; [-1] for an excluded row. *)

val keys : t -> Tuple.t array
(** Each group's key row: a growing index's projected keys, a built
    index's first rows. *)

val key_hash : Tuple.t -> int array -> int
(** The hash of [row]'s key at [cols], a positionwise fold of
    {!Value.hash} — consistent with {!Value.equal}, which the spill
    partitioner requires: equal keys land in the same partition. *)
