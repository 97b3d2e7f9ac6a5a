(** The relational operator suite, one entry point per operator, over
    pull-based chunk streams ({!Chunk.Source.t}).

    - {b Pipelined} operators ([select], [project], [project_cols],
      [project_rel], [rename], [add_rownum], [union_all]) map a source
      to a source, chunk in, chunk out; each compiles its kernel once
      per call.
    - {b Build/probe} operators ([join], [product], [diff_all]) take
      their right input whole as [~build] and stream the left input as
      the probe side.  The build side's access path (hash index or
      monus budget) is built once, when the operator is
      called; the output is then the probe stream mapped chunk by chunk,
      so left-row order is kept and nothing but the build is held.
    - {b Breakers} ([group_by], [sort]) fold a source into a
      {!Relation.t}.  DISTINCT is [group_by] on every column with no
      aggregates, and the global aggregate is [group_by ~keys:\[\]].

    Join-like operators take a [strategy]: [`Hash] extracts the [=] and
    null-safe [<=>] keys from the condition and probes a hash index (the
"indexed" plans of the paper's experiments); [`Nested_loop]
    compares every pair (the "no useful index" situation).  Both produce
    identical results in identical order. *)

type join_strategy = [ `Hash | `Nested_loop ]

(** What a join emits per left row: [Inner] every matching pair;
    [Left_outer] the same, padding an unmatched left row with NULLs on
    the right; [Semi] the left row iff it has a match; [Anti] the left
    row iff it has none.  Semi and anti joins emit left columns only. *)
type join_kind = Inner | Left_outer | Semi | Anti

(** {1 Pipelined} *)

val select : Expr.t -> Chunk.Source.t -> Chunk.Source.t
(** Keep the rows on which the predicate is [true] (3VL truncation). *)

val project : (Expr.t * string) list -> Chunk.Source.t -> Chunk.Source.t
(** Computed projection; output attributes are unqualified. *)

val project_cols : (string option * string) list -> Chunk.Source.t -> Chunk.Source.t
(** Column projection preserving attribute metadata. *)

val project_rel : string list -> Chunk.Source.t -> Chunk.Source.t
(** Keep exactly the columns qualified with one of the aliases. *)

val rename : string -> Chunk.Source.t -> Chunk.Source.t
(** Requalify every attribute to the alias, sharing row storage. *)

val add_rownum : string -> Chunk.Source.t -> Chunk.Source.t
(** Append an unqualified int column holding the 0-based row position —
    the surrogate key used by outer-join unnesting. *)

val union_all : Chunk.Source.t -> Chunk.Source.t -> Chunk.Source.t
(** @raise Invalid_argument if the schemas differ positionally. *)

(** {1 Build/probe} *)

val join :
  ?strategy:join_strategy ->
  kind:join_kind ->
  Expr.t ->
  build:Relation.t ->
  Chunk.Source.t ->
  Chunk.Source.t
(** [join ~kind cond ~build probe]: [cond] is typed over (probe, build);
    the output schema is probe then build columns ([Inner],
    [Left_outer]) or the probe's ([Semi], [Anti]). *)

val product : build:Relation.t -> Chunk.Source.t -> Chunk.Source.t

val diff_all : build:Relation.t -> Chunk.Source.t -> Chunk.Source.t
(** Multiset difference (monus) [probe − build]: each build occurrence
    cancels the first uncancelled equal probe occurrence.
    @raise Invalid_argument if the schemas differ positionally. *)

(** {1 Breakers} *)

val group_by :
  ?keys:(string option * string) list ->
  aggs:Aggregate.spec list ->
  Chunk.Source.t ->
  Relation.t
(** SQL GROUP BY: keys group with NULLs equal; output schema is the key
    attributes followed by one unqualified column per aggregate, groups
    in first-seen order.  [keys] defaults to every column, so
    [group_by ~aggs:\[\]] is DISTINCT.  An empty input yields an empty
    output, except with [~keys:\[\]]: the global aggregate always
    yields exactly one row, even on empty input (COUNT yields 0,
    SUM/MIN/MAX/AVG yield NULL). *)

val group_schema :
  ?keys:(string option * string) list ->
  aggs:Aggregate.spec list ->
  Schema.t ->
  int array * Schema.t
(** The positions of [group_by]'s key columns in its input schema, and
    its output schema — [keys] as in {!group_by}.
    @raise Schema.Unknown_attribute or [Schema.Ambiguous_attribute] if a
    key does not resolve. *)

val sort :
  by:((string option * string) * [ `Asc | `Desc ]) list ->
  ?limit:int ->
  Chunk.Source.t ->
  Relation.t
(** Stable sort on the keys (NULLs first ascending), then the first
    [limit] rows; [by = \[\]] keeps the input order, so it is LIMIT
    alone.  An untouched whole-relation source is read without a
    copy. *)

(** {1 Resumable grouping state}

    The slot table behind GROUP BY and DISTINCT as a first-class value:
    each group is one slot of an {!Subql_relational.Aggregate.states},
    numbered as its group in a growing {!Index}; a chunk's rows are
    mapped to slots, then the aggregates step over the (row, slot)
    pairs ({!Subql_relational.Aggregate.fold_pairs}).  The spill path freezes one at a memory budget and routes overflow
    rows to temp heap files; the parallel executor hash-partitions rows
    by key, runs one per domain and concatenates their key-disjoint
    results.  {!group_by} is a thin wrapper over it. *)

module Group_acc : sig
  type t

  val create : ?keys:(string option * string) list -> aggs:Aggregate.spec list -> Schema.t -> t
  (** [keys] as in {!group_by}; when the key is every column, a row is
      its own key (never projected), and with no aggregates a group's
      output row is its key row.  With [~keys:\[\]] the one group is
      slot 0 from the start. *)

  val size : t -> int
  (** Groups held. *)

  val fold_chunk : t -> capacity:int -> overflow:(Tuple.t -> unit) -> Chunk.t -> unit
  (** Fold a chunk's rows in, in order.  A row of a new key creates its
      group while fewer than [capacity] groups are held; past that it
      is {e not} consumed but handed to [overflow] — the spill path's
      freeze. *)

  val result : t -> Relation.t
  (** Groups in first-seen order, keys then aggregate columns. *)
end
