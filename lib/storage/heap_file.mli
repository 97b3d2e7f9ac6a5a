(** Appendable heap files: a relation stored as fixed-size pages.

    Layout: a one-page header (the magic ["SUBQLHF2"], page size, arity,
    tuple count) followed by data pages, each one {!Codec} page: a row
    count, a directory of column segments, and one segment per column —
    fixed-width cells behind a NULL bitmap, strings as end offsets plus
    bytes.  A scan decodes only the segments of the columns it reads.
    A file with another magic (such as the row-major ["SUBQLHF1"]) is
    refused at {!openfile}.  Reads go through a {!Buffer_pool}, so scans
    account page I/O exactly.

    A heap file has one write path and one read path.  {!write} lays
    down the header and then packs the relation exactly as {!append}
    packs a batch: the current last page's rows are decoded and packed
    again ahead of the new rows, which then fill that page and fresh
    ones.  An append rewrites the tail in place and {e invalidates} the
    affected frames in every live buffer pool
    ({!Buffer_pool.invalidate_all}), so a pool shared across an append
    never serves a stale last-page image.  Every read — a full scan, a
    column-pruned scan, or the rows of one append ({!delta}) — is a
    {!source}.

    Every handle carries a {!Codec.plan} compiled once from its schema
    at open time; every page is packed ({!Codec.add}, which type-checks
    each row, and {!Codec.encode_page}) and decoded
    ({!Codec.decode_page}) through it.  Every decode checks the
    structure of every segment, read or skipped, so a corrupt page
    raises {!Diag.Fail} with the same [STO0xx] code whichever columns a
    scan keeps; its [path] leads with ["<file>: page <n>"]. *)

open Subql_relational

type t

type delta = {
  first_page : int;  (** first page the append touched (or would touch) *)
  skip : int;  (** pre-existing rows in that page — skip them when streaming the delta *)
  first_row : int;  (** the file's row count before the append *)
  rows : int;  (** rows actually appended *)
}
(** Where an append landed: [source ~from:delta] streams the rows from
    the append's first row on. *)

val write : path:string -> ?page_size:int -> Relation.t -> t
(** Serialize the relation to [path] (page size defaults to 8192 bytes)
    and return an open, writable handle.  Rows are type-checked as they
    are encoded, so [write] accepts exactly the rows its scans can
    decode.
    @raise Invalid_argument if a row does not fit the relation's schema
    or a single tuple exceeds the page payload. *)

val openfile : path:string -> ?writable:bool -> schema:Schema.t -> unit -> t
(** Open an existing heap file; [writable] (default [false]) opens it
    read-write so {!append} works.  The stored arity must match [schema]
    (column names/types are the caller's contract, as with CSV — a type
    lie is caught at scan time as [STO003]).
    @raise Invalid_argument on a bad magic (including an older layout's)
    or arity mismatch. *)

val close : t -> unit

val path : t -> string

val schema : t -> Schema.t

val pages : t -> int
(** Data pages (header excluded); grows under {!append}. *)

val row_count : t -> int

val append : t -> Tuple.t array -> delta
(** Append a batch of rows: pack the last page's rows and the batch
    into that page and fresh ones; rewrite the header row count; drop
    the rewritten tail from every live buffer pool.  The whole batch is
    schema-checked before any page is written, so a malformed row leaves
    the file untouched.
    @raise Invalid_argument on a read-only handle, a schema-invalid row,
    or a tuple exceeding the page payload. *)

val source : ?columns:int array -> ?from:delta -> t -> pool:Buffer_pool.t -> Chunk.Source.t
(** A pull-based stream over the file: one chunk per data page, each
    fetched through the pool as it is pulled.  The page count and the
    row count are snapshotted at creation, and the stream stops after
    the snapshot's last row: rows appended while the stream is live are
    not included, even those an append packs into the snapshot's last
    page in place.  Closing the source early simply stops fetching (the
    handle stays open) — peak memory is one decoded page, not the
    relation.

    [from] starts the stream at an {!append}'s first row instead of the
    file's, so [source ~from:delta] streams exactly that append's rows
    and every later one up to the snapshot.

    [columns] (strictly ascending stored positions; default: all)
    decodes only those columns' segments and streams the
    correspondingly narrowed schema; the other segments get the full
    decode's structural checks and are not decoded ({!Codec.project}).  The source also
    carries the {!Chunk.Source.narrow} capability, so an executor that
    knows which columns a plan reads can narrow it before the first
    pull.
    @raise Invalid_argument on an out-of-range or unordered position. *)
