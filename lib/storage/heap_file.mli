(** Appendable heap files: a relation stored as fixed-size pages.

    Layout: a one-page header (the magic ["SUBQLHF3"], page size, arity,
    tuple count, data-page count, dictionary-page count, first dictionary
    page) followed by the data pages and, past them, the dictionary
    pages.  Each data page is one
    {!Codec} page: a row count, a directory of column segments, and one
    segment per column — fixed-width cells behind a NULL bitmap, strings
    as 16-bit codes into the column's dictionary or, when a page holds a
    string the dictionary does not, as end offsets plus bytes.  Each
    string column has one file-wide dictionary that only grows, of at
    most {!Codec.dictionary_cap} entries; once it is full, later pages
    write the column plain.  The dictionary pages ({!Codec.dictionary_pages})
    are read once, at {!openfile}.  An {!append} that adds entries, or
    whose data would grow over them, writes them again past both the
    data and the dictionary pages the header names — with a gap of an
    eighth of the data for later appends to grow into — and names them
    in the header before it writes a data page, so an append cut short
    leaves the pages the header names readable.  That order holds when
    the process dies mid-append, not after a power loss: no write is
    followed by an [fsync], so the kernel may put the pages on disk in
    another order.  A scan
    decodes only the segments of the columns it reads, and a decoded
    coded cell is its dictionary entry, shared by every row that has it.
    A file with another magic (such as the row-major ["SUBQLHF1"] or the
    uncoded ["SUBQLHF2"]) is refused at {!openfile}.  Reads go through a
    {!Buffer_pool}, so scans account page I/O exactly.

    A heap file has one write path and one read path.  {!write} lays
    down the header and then packs the relation exactly as {!append}
    packs a batch: the current last page is resumed from its stored
    codes and segments ({!Codec.resume}), and the new rows fill that
    page and fresh ones.  An append rewrites the tail in place and
    {e invalidates} the affected frames in every live buffer pool
    ({!Buffer_pool.invalidate_all}), so a pool shared across an append
    never serves a stale last-page image.  Every read — a full scan or
    a column-pruned one — is a {!source}.  Every page, dictionary pages
    included, is read by one function and written by another.

    Every handle carries a {!Codec.plan} compiled once from its schema
    at open time, holding its dictionaries; every page is packed
    ({!Codec.add}, which type-checks each row, and {!Codec.encode_page})
    and decoded ({!Codec.decode_chunk}) through it.  Every decode checks
    the structure of every segment, read or skipped, so a corrupt page
    raises {!Diag.Fail} with the same [STO0xx] code whichever columns a
    scan keeps; its [path] leads with ["<file>: page <n>"] (or
    ["<file>: dictionary page <n>"], at {!openfile}). *)

open Subql_relational

type t

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
    or arity mismatch.
    @raise Diag.Fail on a corrupt dictionary page. *)

val close : t -> unit

val path : t -> string

val schema : t -> Schema.t

val pages : t -> int
(** Data pages (header excluded); grows under {!append}. *)

val row_count : t -> int

val plan : t -> Codec.plan
(** The handle's codec plan, with the dictionaries of its pages. *)

val append : t -> Tuple.t array -> unit
(** Append a batch of rows: pack the last page's rows and the batch
    into that page and fresh ones; first move the dictionary pages when
    they grew or the data would grow over them, then write the fresh
    pages, the resumed last page and the header's counts; drop the
    rewritten tail from every live buffer pool.  The whole batch is
    schema-checked and coded before any page is written, so a malformed
    row leaves the file and the dictionaries untouched; a write that
    fails before the last page is rewritten leaves the dictionaries as
    they were too.
    @raise Invalid_argument on a read-only handle, a schema-invalid row,
    or a tuple exceeding the page payload. *)

val source : ?columns:int array -> t -> pool:Buffer_pool.t -> Chunk.Source.t
(** A pull-based stream over the file: one chunk per data page, each
    fetched through the pool as it is pulled.  The page count and the
    row count are snapshotted at creation, and the stream stops after
    the snapshot's last row: rows appended while the stream is live are
    not included, even those an append packs into the snapshot's last
    page in place.  Closing the source early simply stops fetching (the
    handle stays open) — peak memory is one decoded page, not the
    relation.  Each chunk holds its kept columns as vectors copied out of
    the page ({!Chunk.column}: a coded column's codes, an int column's
    ints) and builds its rows only when an operator asks for them.
    Pages are decoded against the handle's
    dictionaries as they are when pulled, so a snapshot whose last page
    an append rewrote with new codes still reads its own rows.

    [columns] (strictly ascending stored positions; default: all)
    decodes only those columns' segments and streams the
    correspondingly narrowed schema; the other segments get the full
    decode's structural checks and are not decoded ({!Codec.project}).  The source also
    carries the {!Chunk.Source.narrow} capability, so an executor that
    knows which columns a plan reads can narrow it before the first
    pull.
    @raise Invalid_argument on an out-of-range or unordered position. *)
