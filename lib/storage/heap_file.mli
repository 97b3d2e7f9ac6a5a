(** Appendable heap files: a relation stored as fixed-size pages.

    Layout: a one-page header (magic, page size, arity, tuple count)
    followed by data pages, each holding a 16-bit tuple count and the
    tuples in {!Codec} encoding.  Reads go through a {!Buffer_pool}, so
    scans account page I/O exactly.

    Files grow by {!append}: new rows pack into the free payload of the
    current last page, then into fresh pages.  An append rewrites the
    tail in place and {e invalidates} the affected frames in every live
    buffer pool ({!Buffer_pool.invalidate_all}), so a pool shared across
    an append never serves a stale last-page image.  Encoding on the
    append path is schema-checked ({!Codec.check_tuple}).

    Every handle carries a {!Codec.plan} compiled once from its schema
    at open time.  In the default [Specialized] codec mode, page decodes
    and append encodes run through the plan's fixed per-column loop
    ({!Codec.decode_tuple_plan}/{!Codec.encode_tuple_plan}); [Generic]
    keeps the original per-cell tag dispatch as the fallback and oracle
    (a column-pruned {!source} decodes such pages in full, then
    projects).
    Both read and write the same byte format, so the mode is a pure
    open-time choice — files are interchangeable.  Corrupt pages raise
    {!Diag.Fail} with an [STO0xx] code whose [path] leads with
    ["<file>: page <n>"]. *)

open Subql_relational

type t

type delta = {
  first_page : int;  (** first page the append touched (or would touch) *)
  skip : int;  (** pre-existing rows in that page — skip them when streaming the delta *)
  rows : int;  (** rows actually appended *)
}
(** Where an append landed: [source_range ~first_page ~skip] streams
    exactly the appended rows. *)

val write : path:string -> ?page_size:int -> ?codec:Codec.mode -> Relation.t -> t
(** Serialize the relation to [path] (page size defaults to 8192 bytes)
    and return an open, writable handle in the given codec mode
    (default [Specialized]).
    @raise Invalid_argument if a single tuple exceeds the page payload. *)

val openfile : path:string -> ?writable:bool -> ?codec:Codec.mode -> schema:Schema.t -> unit -> t
(** Open an existing heap file; [writable] (default [false]) opens it
    read-write so {!append} works.  The stored arity must match [schema]
    (column names/types are the caller's contract, as with CSV — though
    in the default [Specialized] codec mode a type lie is caught at scan
    time as [STO003]).
    @raise Invalid_argument on a bad magic or arity mismatch. *)

val close : t -> unit

val path : t -> string

val schema : t -> Schema.t

val codec_mode : t -> Codec.mode
(** The codec this handle was opened with. *)

val pages : t -> int
(** Data pages (header excluded); grows under {!append}. *)

val row_count : t -> int

val append : t -> Tuple.t array -> delta
(** Append a batch of rows: fill the last page's free payload, then add
    pages; rewrite the header row count; drop the rewritten tail from
    every live buffer pool.  The whole batch is schema-checked before
    any page is written, so a malformed row leaves the file untouched.
    @raise Invalid_argument on a read-only handle, a schema-invalid row,
    or a tuple exceeding the page payload. *)

val append_source : t -> Chunk.Source.t -> delta
(** {!append} draining a chunk stream — the batch is never materialized
    (rows are validated as they are encoded, so a failure mid-stream can
    leave previously streamed rows of this batch on full pages; the
    header row count is only advanced on success). *)

val scan : t -> pool:Buffer_pool.t -> (Tuple.t -> unit) -> unit
(** Visit every tuple in storage order, fetching pages through the pool. *)

val scan_pages : t -> pool:Buffer_pool.t -> (Tuple.t array -> unit) -> unit
(** Page-at-a-time variant. *)

val source : ?columns:int array -> t -> pool:Buffer_pool.t -> Chunk.Source.t
(** A pull-based stream over the file: one chunk per data page, each
    fetched through the pool as it is pulled.  The page count and the
    row count are snapshotted at creation, and the stream stops after
    that many rows: rows appended while the stream is live are not
    included, even those an append packs into the snapshot's last page
    in place.  Closing the source early simply stops fetching (the
    handle stays open) — peak memory is one decoded page, not the
    relation.

    [columns] (strictly ascending stored positions; default: all)
    decodes only those columns and streams the correspondingly narrowed
    schema; the other cells are skipped by length with the full
    decode's corruption checks ({!Codec.project}).  The source also
    carries the {!Chunk.Source.narrow} capability, so an executor that
    knows which columns a plan reads can narrow it before the first
    pull.
    @raise Invalid_argument on an out-of-range or unordered position. *)

val source_range : t -> pool:Buffer_pool.t -> first_page:int -> skip:int -> Chunk.Source.t
(** Stream from [first_page] to the current end of file, skipping the
    first [skip] rows of the first page — with an {!append}'s {!delta}
    this yields exactly the appended rows, one chunk per page, without
    ever materializing the batch.
    @raise Invalid_argument on negative positions. *)

val to_relation : t -> pool:Buffer_pool.t -> Relation.t
