(** Binary tuple serialization for the paged storage layer.

    Values encode as a tag byte plus payload (ints and floats as 8-byte
    little-endian, strings length-prefixed); a tuple is its values in
    sequence — the schema supplies the arity, so no per-tuple framing is
    needed beyond the page's tuple count.

    Heap files encode and decode every page through a {!plan}: a schema
    compiled once into a per-column array, so the scan hot path runs a
    fixed type-directed loop (one or two tag compares per cell, no
    per-tuple closure) and validates the stored bytes against the
    declared column types as it goes.  The {e generic} functions
    dispatch on the tag byte per cell and accept any well-formed value
    in any column; they are the test oracle and the baseline of the
    codec benchmark.  Both produce byte-identical encodings for
    schema-conformant tuples.

    Corrupt bytes raise {!Diag.Fail} with stable [STO0xx] codes rather
    than bare exceptions: [STO001] unknown value tag, [STO002] truncated
    payload, [STO003] tag/column clash under a plan.  The byte offset is
    in [subject]; the heap file pushes file/page context onto [path]. *)

open Subql_relational

val encode_value : Buffer.t -> Value.t -> unit

val decode_value : bytes -> pos:int ref -> Value.t
(** @raise Diag.Fail with code [STO001] on a corrupt tag, [STO002] on a
    truncated payload. *)

val encode_tuple : Buffer.t -> Tuple.t -> unit

val check_tuple : Schema.t -> Tuple.t -> unit
(** Validate a raw tuple against a schema: the arity must match and every
    non-NULL value must carry its column's type (NULL fits any column —
    nullability is not tracked at this layer).
    @raise Invalid_argument describing the first offending column. *)

val decode_tuple : bytes -> pos:int ref -> arity:int -> Tuple.t
(** Generic per-cell tag dispatch.
    @raise Diag.Fail ([STO001]/[STO002]) on corrupt bytes. *)

val tuple_bytes : Tuple.t -> int
(** Encoded size, for page packing. *)

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
    lets {!decode_tuple_plan} reject a stored NULL as corruption and
    {!encode_tuple_plan} reject it before it reaches a page; the default
    is all-nullable, which accepts exactly what the generic codec does.
    @raise Invalid_argument if [non_null] does not match the arity. *)

val project : plan -> int array -> plan
(** [project plan keep] decodes only the stored columns at positions
    [keep] (strictly ascending), in that order: a decoded tuple has
    [Array.length keep] cells.  Every other cell is skipped by its
    length after the same checks a decoded cell gets — its tag must fit
    the column ([STO003], which is also what an unknown tag or a NULL
    in a non-NULL column reports) and its payload must lie in the page
    ([STO002]) — so a corrupt page fails with the same diagnostic
    whichever columns are kept.  Encoding ({!encode_tuple_plan}) always
    writes the full stored layout.
    @raise Invalid_argument on an out-of-range or unordered position. *)

val decode_tuple_plan : plan -> bytes -> pos:int ref -> Tuple.t
(** Type-directed decode: each cell checks the tag against its column's
    declared type instead of open-dispatching, and the loop allocates
    only the result array (NULL and boolean cells are shared).
    @raise Diag.Fail ([STO002] truncation, [STO003] tag/column clash —
    including a NULL in a column the plan declares non-NULL). *)

val decode_rows_plan : plan -> bytes -> pos:int ref -> count:int -> Tuple.t array
(** [count] consecutive tuples in one call — the page-decode entry
    point, with no per-tuple closure or ref traffic.
    @raise Diag.Fail as {!decode_tuple_plan}. *)

val encode_tuple_plan : plan -> Buffer.t -> Tuple.t -> unit
(** Single-pass validate-and-encode, walking the tuple once: the page
    encoder of the heap file's one write path ({!Heap_file.write} and
    {!Heap_file.append}).
    @raise Invalid_argument on arity/type mismatch or a NULL in a
    non-NULL column, with the same messages as {!check_tuple}. *)
