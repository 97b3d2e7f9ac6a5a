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
    [ceil(n/8)] bytes, bit [r] set when row [r] is NULL.  Any other
    byte is unknown.  The payload follows:

    - int and float: [n] 8-byte cells (a NULL cell holds zeros);
    - bool: a [ceil(n/8)]-byte bitmap of the values;
    - string: [n] 16-bit end offsets, counted from the start of the
      segment's string bytes, then the bytes (a NULL string is empty).
      A string, and a page's strings in one column, hold at most 65,535
      bytes; a page holds at most 65,535 rows.

    Heap files pack and read every page through a {!plan}: a schema
    compiled once into a per-column array.  {!fill} sizes a page as
    rows are offered, {!encode_page} lays it down, and {!decode_page}
    decodes the plan's kept columns, each segment in one loop
    specialised to its type.  {!decode_page_reference}, which reads
    every segment by its own type byte one [Value.t] at a time, is the
    test oracle and the baseline of the codec benchmark.

    {b Corruption.}  Every decode checks the structure of every segment,
    kept or not, in column order, so a corrupt page fails with the same
    diagnostic whichever columns are kept.  Failures raise {!Diag.Fail}
    with stable codes: [STO001] an unknown type byte; [STO002] a
    directory, bitmap, string-offset array or segment that runs past the
    page end, a segment that does not start where the one before it
    ends, or string end offsets that decrease; [STO003] a type byte that
    clashes with the plan's column type, or a NULL in a column the plan
    declares non-NULL.  The byte offset is in [subject]; the heap file
    pushes file/page context onto [path]. *)

open Subql_relational

(** {1 Schema-compiled codec plans} *)

type column = { ty : Value.ty; non_null : bool }

type plan = private {
  schema : Schema.t;  (** the stored layout *)
  columns : column array;  (** one per stored attribute *)
  slots : int array;
      (** per stored column, its position in a decoded tuple, or [-1]
          when decodes skip it *)
  width : int;  (** arity of a decoded tuple *)
}
(** A schema compiled for decoding: one {!column} per attribute, fixed
    at plan construction.  Build with {!plan_of_schema}; narrow what it
    decodes with {!project}. *)

val plan_of_schema : ?non_null:bool array -> Schema.t -> plan
(** Compile a schema into a codec plan.  [non_null.(i) = true] declares
    column [i] NULL-free (e.g. from [Analysis.Typing] nullability), which
    lets {!decode_page} reject a stored NULL as corruption and {!add}
    reject it before it reaches a page; the default is all-nullable.
    @raise Invalid_argument if [non_null] does not match the arity. *)

val project : plan -> int array -> plan
(** [project plan keep] decodes only the stored columns at positions
    [keep] (strictly ascending), in that order: a decoded tuple has
    [Array.length keep] cells.  Every other segment gets the same
    structural checks as a kept one and is not decoded.  Packing always
    writes the full stored layout.
    @raise Invalid_argument on an out-of-range or unordered position. *)

(** {1 Packing} *)

type fill
(** The running size of a page being packed. *)

val fill : plan -> page_size:int -> fill
(** An empty page of [page_size] bytes. *)

val add : fill -> Tuple.t -> bool
(** Type-check a row against the plan, then count it in the page if its
    image still fits in [page_size] bytes: [true] if it was counted,
    [false] (and nothing counted) if the page is full.
    @raise Invalid_argument on an arity or type mismatch, a NULL in a
    non-NULL column, or a string longer than 65,535 bytes, naming the
    column ("Codec: string value in column R.y (int)"). *)

val filled : fill -> int
(** Rows counted since {!fill} or {!clear}. *)

val image_bytes : fill -> int
(** The exact size of the counted rows' page image. *)

val clear : fill -> unit
(** Start the next page. *)

val encode_page : plan -> Tuple.t array -> off:int -> len:int -> bytes -> unit
(** Write the page image of rows [off, off + len) into the whole of the
    given bytes, zero-padded.  The rows must have been counted by one
    {!fill} of the same plan whose page size is at most the bytes'
    length.
    @raise Invalid_argument on a range outside the array. *)

(** {1 Decoding} *)

val page_rows : bytes -> int
(** The row count of a page image. *)

val decode_page : plan -> bytes -> Tuple.t array
(** The page's rows, each with the plan's kept columns.  A kept int is
    shared for values in [0, 1024), and NULL and boolean cells are
    shared, so a decoded tuple allocates only itself, its other ints,
    floats and strings.
    @raise Diag.Fail as described above. *)

val decode_page_reference : arity:int -> bytes -> Tuple.t array
(** Every column of every row, each segment decoded by the type its own
    byte names (no plan, no type check against a schema).
    @raise Diag.Fail with [STO001] or [STO002] as {!decode_page}. *)
