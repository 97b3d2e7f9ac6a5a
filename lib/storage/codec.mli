(** Column-segmented page encoding for the paged storage layer.

    A page stores its rows one column after another, so a scan decodes
    only the columns it reads.  All integers are little-endian:

    - bytes [0, 2): the row count [n];
    - then a directory of one 5-byte entry per stored column: the
      segment's type byte and its start, a 32-bit offset from the page
      start;
    - then the segments, back to back in column order from the end of
      the directory; zero padding up to the page end.

    A type byte is the column type's code (1 int, 2 float, 3 string,
    4 bool), with bit 7 set when the segment opens with a NULL bitmap:
    [ceil(n/8)] bytes, bit [r] set when row [r] is NULL.  On a string
    segment, bit 6 marks it dictionary-coded.  Any other byte is
    unknown.  The payload follows:

    - int and float: [n] 8-byte cells (a NULL cell holds zeros);
    - bool: a [ceil(n/8)]-byte bitmap of the values;
    - plain string: [n] 16-bit end offsets, counted from the start of
      the segment's string bytes, then the bytes (a NULL string is
      empty).  A string, and a page's strings in one column, hold at
      most 65,535 bytes; a page holds at most 65,535 rows;
    - coded string: [n] 16-bit codes into the column's dictionary (a
      NULL cell holds 0).

    {b Dictionaries.}  A plan keeps one dictionary per string column,
    shared by every page packed or decoded through it.  A dictionary
    only grows: a code, once given, names its value for good.  It holds
    at most {!dictionary_cap} entries of at most {!max_entry_bytes}
    bytes (and no more than a dictionary page holds).  A string joins
    its column's dictionary when it is packed and the dictionary has
    room; a page's segment is coded when every string in it has a code,
    and plain otherwise.  Once a dictionary is full, later pages write
    the column plain, so coded and plain pages mix in one file.  A
    heap file stores the dictionaries in dictionary pages
    ({!dictionary_pages}): a 5-byte header — the entry count, the
    column, the type byte [0x43] — and then the entries laid out as a
    string segment's offsets and bytes.

    Heap files pack and read every page through a {!plan}: a schema
    compiled once into a per-column array, with its dictionaries.
    {!fill} sizes a page as rows are offered, finding each string's
    code, {!encode_page} lays it down with those codes, and
    {!decode_chunk} copies the plan's kept columns out of the page into
    column vectors, each segment in one loop specialised to its type.  {!decode_page_reference}, which reads
    every segment by its own type byte one [Value.t] at a time, is the
    test oracle and the baseline of the codec benchmark.

    {b Corruption.}  Every decode checks the structure of every segment,
    kept or not, in column order, so a corrupt page fails with the same
    diagnostic whichever columns are kept.  Failures raise {!Diag.Fail}
    with stable codes: [STO001] an unknown type byte; [STO002] a
    directory, bitmap, string-offset array or segment that runs past the
    page end, a segment that does not start where the one before it
    ends, string end offsets that decrease, or a code past its column's
    dictionary; [STO003] a type byte that clashes with the plan's column
    type, or a NULL in a column the plan declares non-NULL.  A dictionary
    page fails alike ({!load_dictionary_page}).  The byte offset is in
    [subject]; the heap file pushes file/page context onto [path]. *)

open Subql_relational

(** {1 Schema-compiled codec plans} *)

type column = { ty : Value.ty; non_null : bool }

type dict
(** One string column's dictionary. *)

type plan = private {
  schema : Schema.t;  (** the stored layout *)
  columns : column array;  (** one per stored attribute *)
  slots : int array;
      (** per stored column, its position in a decoded tuple, or [-1]
          when decodes skip it *)
  decoded : Schema.t;  (** the schema of a decoded tuple: the kept columns *)
  dicts : dict array;  (** per stored column; only a string column's ever grows *)
}
(** A schema compiled for decoding: one {!column} per attribute, fixed
    at plan construction.  Build with {!plan_of_schema}; narrow what it
    decodes with {!project}. *)

val plan_of_schema : ?non_null:bool array -> Schema.t -> plan
(** Compile a schema into a codec plan with empty dictionaries.
    [non_null.(i) = true] declares column [i] NULL-free (e.g. from
    [Analysis.Typing] nullability), which lets {!decode_page} reject a
    stored NULL as corruption and {!add} reject it before it reaches a
    page; the default is all-nullable.
    @raise Invalid_argument if [non_null] does not match the arity. *)

val project : plan -> int array -> plan
(** [project plan keep] decodes only the stored columns at positions
    [keep] (strictly ascending), in that order: a decoded tuple has
    [Array.length keep] cells.  Every other segment gets the same
    structural checks as a kept one and is not decoded.  The projection
    shares the plan's dictionaries.
    @raise Invalid_argument on an out-of-range or unordered position. *)

val dictionary_cap : int
(** The most entries a column's dictionary holds: 4,096. *)

val max_entry_bytes : int
(** The longest string a dictionary holds: 255 bytes. *)

val dictionary_sizes : plan -> int array
(** Per stored column, its dictionary's entry count. *)

val truncate_dictionaries : plan -> int array -> unit
(** Drop every entry past the given {!dictionary_sizes}: undoes the
    entries a packing pass added when its pages are not written. *)

(** {1 Packing} *)

type fill
(** The running size of a page being packed, and the code of every
    string the fill has counted. *)

val fill : plan -> page_size:int -> fill
(** An empty page of [page_size] bytes, with no rows counted; a
    dictionary entry must fit a dictionary page of that size. *)

val add : fill -> Tuple.t -> bool
(** Type-check a row against the plan, find (or give) each of its
    strings' code, then count it in the page if its image still fits in
    [page_size] bytes: [true] if it was counted, [false] (and nothing
    counted) if the page is full, which must then be {!clear}ed before
    the next [add].  A coded cell is a fixed 2 bytes.
    @raise Invalid_argument on an arity or type mismatch, a NULL in a
    non-NULL column, or a string longer than 65,535 bytes, naming the
    column ("Codec: string value in column R.y (int)"). *)

val resume : fill -> bytes -> int
(** [resume fill page] counts a stored page's rows in a fill that has
    counted none since {!fill} or {!reset}, from the page as it stands:
    its codes, its plain or coded segments and its exact size, so that
    rows added after them pack as they would have behind them.  Returns
    how many rows it counted.
    @raise Invalid_argument on a fill that has counted rows or of a
    projected plan.
    @raise Diag.Fail as {!decode_page}. *)

val filled : fill -> int
(** Rows counted since {!fill} or {!clear}. *)

val image_bytes : fill -> int
(** The exact size of the counted rows' page image. *)

val clear : fill -> unit
(** Start the next page. *)

val reset : fill -> unit
(** Forget every row counted and start an empty page, keeping the
    fill's buffers: one fill packs batch after batch. *)

val encode_page : fill -> Tuple.t array -> off:int -> len:int -> bytes -> unit
(** Write the page image of rows [off, off + len) of those the fill
    counted — the rows {!resume} counted, then [rows], in the order
    {!add} counted them — into the first page size of the given bytes
    (all of them when fewer), zero-padded, with the codes the fill
    found.  The page's rows are the ones one page of the fill counted.
    @raise Invalid_argument on a range outside the array or past the
    rows counted. *)

(** {1 Decoding} *)

val page_rows : bytes -> int
(** The row count of a page image. *)

val decode_chunk : plan -> len:int -> bytes -> Chunk.t
(** The page's first [len] rows (all of them when it holds fewer), each
    with the plan's kept columns, under the plan's [decoded] schema, as
    a chunk of column vectors copied out of the page
    ({!Chunk.of_columns}): an int column's unboxed ints, a float
    column's floats, each beside the segment's NULL bitmap; a coded
    string column's codes ({!Chunk.Coded}: a NULL has code
    {!dictionary_cap}, the bound is [dictionary_cap + 1], the values are
    the dictionary's own and its identity the plan's); a plain string or
    bool column's cells.  Its rows are built only when asked for.
    @raise Diag.Fail as described above. *)

val decode_page : plan -> bytes -> Tuple.t array
(** Every row of {!decode_chunk}, built.  A kept int is shared for
    values in [0, 1024), and NULL, boolean and coded string cells are
    shared (a coded cell is its dictionary entry).
    @raise Diag.Fail as described above. *)

val decode_page_reference : plan -> bytes -> Tuple.t array
(** Every column of every row, each segment decoded by the type its own
    byte names (no type check against the plan; its arity and its
    dictionaries are all that is read).
    @raise Diag.Fail with [STO001] or [STO002] as {!decode_page}. *)

(** {1 Dictionary pages} *)

val dictionary_pages : plan -> bytes -> emit:(bytes -> unit) -> int
(** Every string column's dictionary, column by column, each in code
    order, packed into as few pages of the buffer's size as hold it:
    each page is laid down in the buffer and handed to [emit] before the
    next.  Returns the page count. *)

val load_dictionary_page : plan -> bytes -> unit
(** Append a dictionary page's entries to its column's dictionary.
    @raise Diag.Fail [STO001] on an unknown type byte, [STO003] on a
    type byte other than a dictionary's or a column that is not a
    string column, [STO002] on entries that run past the page or past
    {!dictionary_cap}. *)
