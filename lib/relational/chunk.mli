(** Tuple batches and pull-based streams of them.

    A {!t} is a read-only window ([off], [len]) over a backing tuple
    array, so slicing a relation into chunks never copies rows.  A chunk
    may instead hold its rows as column vectors, as a heap-file scan
    decodes a page ({!of_columns}): its rows are then built from the
    vectors the first time an operator asks for them ({!buffer}, {!get},
    {!iter}, {!fold}, {!to_rows}), at most once per chunk, and a
    consumer that reads the vectors ({!column}) builds none.  (Two
    domains asking at once may each build them; the rows are equal.)  A
    {!Source.t} is a pull-based stream of chunks — the unit of work of
    the streaming executor: operators consume a source chunk-at-a-time
    instead of materializing whole relations between plan nodes.

    Chunks alias their backing array; treat the rows as immutable, as
    with {!Relation.rows}. *)

type t

(** The codes of one dictionary-coded column: equal codes under one
    [dictionary] are equal values, so a consumer may key per-value work
    by code instead of hashing the value. *)
type codes = {
  dictionary : int;  (** identity of the dictionary the codes index *)
  bound : int;  (** every code is below it; a NULL cell's code is [bound - 1] *)
  values : Value.t array;  (** per code of a non-NULL cell, its value, shared *)
  codes : int array;  (** one per row *)
}

(** One column of a vector chunk, a cell per row from row 0 (a vector
    chunk's offset is 0, so its row [r] is also its buffer's); a NULL
    bitmap ([nulls]) has bit [r] set when row [r] is NULL, and is empty
    when no row is. *)
type column =
  | Coded of codes
  | Ints of { ints : int array; nulls : Bytes.t }  (** a NULL cell holds 0 *)
  | Floats of { floats : float array; nulls : Bytes.t }
  | Cells of Value.t array  (** any other column, its cells as values *)

val default_rows : int
(** Rows per chunk when a relation is sliced ([1024]). *)

val of_array : ?off:int -> ?len:int -> Schema.t -> Tuple.t array -> t
(** A window over [buffer]; defaults cover the whole array (zero-copy).
    @raise Invalid_argument if the range is out of bounds. *)

val of_rows : Schema.t -> Tuple.t array -> t
(** The whole array as one chunk. *)

val of_columns : Schema.t -> len:int -> column array -> t
(** The first [len] rows of the columns, one per attribute of the
    schema, as a chunk whose rows are not built yet.  {!with_schema}
    keeps the columns; every operator that builds new rows drops them.
    @raise Invalid_argument on an arity mismatch or a column shorter
    than [len]. *)

val column : t -> int -> column option
(** Column [i] of a vector chunk; [None] for a chunk of rows. *)

val cell : column -> int -> Value.t
(** Row [r]'s cell of a column, as the built row would hold it. *)

val null_at : Bytes.t -> int -> bool
(** Whether a NULL bitmap marks row [r]: never when it is empty. *)

val rows_built : unit -> int
(** Rows built from column vectors since the process started, over
    every domain. *)

val whole : Relation.t -> t
(** A relation's rows as one chunk (zero-copy). *)

val schema : t -> Schema.t

val length : t -> int

val is_empty : t -> bool

val buffer : t -> Tuple.t array
(** The backing array — rows live at [offset .. offset + length - 1];
    a vector chunk's rows, built now if they were not.  Exposed so hot
    accumulation loops (GMDJ) can index directly. *)

val offset : t -> int

val get : t -> int -> Tuple.t
(** @raise Invalid_argument if the index is out of bounds. *)

val with_schema : Schema.t -> t -> t
(** Re-label the rows (e.g. alias renaming) without copying; the
    columns stay, shared with [t].
    @raise Invalid_argument on arity mismatch. *)

val iter : (Tuple.t -> unit) -> t -> unit

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val to_rows : t -> Tuple.t array
(** The chunk's rows; the backing array itself when the window covers
    it entirely, a fresh copy otherwise. *)

val to_relation : t -> Relation.t

(** Pull-based chunk streams: [next] yields chunks until [None], after
    which the source has closed itself.  [close] is idempotent and safe
    mid-stream (used for early exit, e.g. GMDJ completion). *)
module Source : sig
  type chunk = t

  type t

  val create :
    ?close:(unit -> unit) ->
    ?narrow:(int array -> t) ->
    schema:Schema.t ->
    (unit -> chunk option) ->
    t
  (** [create ~schema next] wraps a pull function.  [close] runs exactly
      once — on [close], or when [next] first returns [None].

      [narrow], when given, is the projection capability: [narrow cols]
      must return a fresh, unpulled copy of this stream that carries
      only the columns at positions [cols] (strictly ascending) of
      [schema], in order, under the correspondingly narrowed schema — a
      storage scan uses it to decode only those columns.  The copy must
      not depend on this source's [close], which {!narrow} runs. *)

  val schema : t -> Schema.t

  val next : t -> chunk option

  val close : t -> unit

  val of_relation : ?chunk_rows:int -> Relation.t -> t
  (** Stream a relation's rows in windows of [chunk_rows] (zero-copy).
      Until the first pull, {!origin} exposes the relation itself so
      consumers that want the whole thing can skip re-collection. *)

  val empty : Schema.t -> t

  val origin : t -> Relation.t option
  (** [Some r] iff this source is an unconsumed whole-relation stream
      over [r] — the materialization shortcut: [to_relation] returns [r]
      without copying, and executors can treat the input as already
      materialized. *)

  val narrow : t -> int array Lazy.t -> t
  (** [narrow s cols] is the narrowed copy of [s] for the column
      positions [cols] when [s] was created with a [narrow] capability
      and has not been pulled yet; [s] is then closed and must not be
      used again.  Otherwise it is [s] itself and [cols] is never
      forced.  Sources without the capability — relations, {!map},
      {!tap}, {!concat} — are always returned unchanged.

      A consumer that asks for fewer columns must resolve them by name
      against {!schema} of the result, never by position in the
      original schema: then a wrong column set fails loudly as an
      unknown attribute instead of reading the wrong column. *)

  val fold : ('a -> chunk -> 'a) -> 'a -> t -> 'a
  (** Drains the source (and hence closes it). *)

  val iter : (chunk -> unit) -> t -> unit

  val map : ?schema:Schema.t -> (chunk -> chunk) -> t -> t
  (** Per-chunk transform; empty result chunks are skipped.  [schema]
      defaults to the input's. *)

  val concat : t -> t -> t
  (** All chunks of the first source, then all of the second.
      @raise Invalid_argument on arity mismatch. *)

  val tap : (int -> unit) -> t -> t
  (** Observe the row count of every chunk pulled through, preserving
      the {!origin} shortcut (a shortcut consumer sees no chunks). *)

  val to_relation : t -> Relation.t
  (** Drain into a relation — the {!origin} relation itself when the
      source is an untouched whole-relation stream. *)
end

(** Exchange: partition one chunk stream across N OCaml domains.

    The coordinator owns the pull side (so storage scans, buffer pools
    and the metrics registry stay single-domain) and routes chunks to
    [domains] workers over bounded queues — round-robin by default, or
    by a hash of each row when [partition] is given (equal keys always
    meet on the same domain).  Each worker runs [init] / [fold] /
    [finish] entirely on its own domain, so compiled expression closures
    and hash indexes (which carry private mutable buffers) are built
    where they are used; chunks themselves alias immutable tuple arrays
    and are safe to share.

    Observability contract: workers count into their
    {!Subql_obs.Metrics.Scratch} ([exchange.chunks] / [exchange.rows]
    built in, plus whatever the closures add via [worker_ctx.scratch])
    and trace onto their own domain; at join the coordinator merges
    every scratch into {!Subql_obs.Metrics.default} and absorbs the
    worker spans under its open ["exchange"] span — so no count or span
    is lost, and the registry only ever sees single-domain writes. *)
module Exchange : sig
  type worker_ctx = { index : int; scratch : Subql_obs.Metrics.Scratch.t }

  val fold :
    ?queue_depth:int ->
    ?partition:(Tuple.t -> int) ->
    ?stop:('acc -> bool) ->
    domains:int ->
    init:(worker_ctx -> 'acc) ->
    fold:('acc -> t -> 'acc) ->
    finish:('acc -> 'res) ->
    Source.t ->
    'res list
  (** Drain the source through [domains] workers and return their
      results in worker order.  [queue_depth] bounds each worker's
      in-flight chunks (default 8), bounding coordinator read-ahead.
      [domains = 1] runs inline on the calling domain — same contract,
      no spawn.  A worker exception is re-raised on the coordinator
      after all domains join.  The source is fully drained, except that
      inline, [stop] (default: never) is checked before every pull and,
      once it holds, the source is closed without another pull — the
      early storage exit of a saturated fold.  With [domains > 1],
      [stop] is ignored.
      @raise Invalid_argument if [domains <= 0]. *)
end
