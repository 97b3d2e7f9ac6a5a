open Subql_relational

(* Corruption is a structured diagnostic (STO0xx), not a bare
   [Invalid_argument]: the byte offset rides in [subject] and callers
   (the heap file) push the file/page context onto [path]. *)
let sto ~code ~offset fmt =
  Format.kasprintf
    (fun msg ->
      raise (Diag.Fail (Diag.error ~subject:(Printf.sprintf "byte %d" offset) ~code msg)))
    fmt

(* ------------------------------------------------------------------ *)
(* Schema-compiled codec plans                                          *)
(* ------------------------------------------------------------------ *)

type column = { ty : Value.ty; non_null : bool }

type plan = { schema : Schema.t; columns : column array; slots : int array; width : int }

let plan_of_schema ?non_null schema =
  let arity = Schema.arity schema in
  let nn =
    match non_null with
    | None -> Array.make arity false
    | Some a ->
      if Array.length a <> arity then
        invalid_arg "Codec.plan_of_schema: non_null length does not match the schema arity";
      Array.copy a
  in
  {
    schema;
    columns =
      Array.init arity (fun i -> { ty = (Schema.attr_at schema i).Schema.ty; non_null = nn.(i) });
    slots = Array.init arity Fun.id;
    width = arity;
  }

let project plan keep =
  let arity = Array.length plan.columns in
  let slots = Array.make arity (-1) in
  Array.iteri
    (fun k c ->
      if c < 0 || c >= arity || (k > 0 && c <= keep.(k - 1)) then
        invalid_arg "Codec.project: positions must be strictly ascending and within the arity";
      slots.(c) <- k)
    keep;
  { plan with slots; width = Array.length keep }

let column_name plan i = Schema.qualified_name (Schema.attr_at plan.schema i)

(* ------------------------------------------------------------------ *)
(* The page layout                                                      *)
(* ------------------------------------------------------------------ *)

let entry_bytes = 5

let nulls_flag = 0x80

(* A page's rows, and a string segment's bytes, are counted in 16 bits. *)
let max_rows = 0xFFFF

let max_string_bytes = 0xFFFF

let type_code = function Value.Tint -> 1 | Value.Tfloat -> 2 | Value.Tstring -> 3 | Value.Tbool -> 4

(* The column type of a segment's type byte, or [None] for an unknown
   byte: only the NULL-bitmap flag may be set beside a type code. *)
let type_of_byte b =
  match b land lnot nulls_flag with
  | 1 -> Some Value.Tint
  | 2 -> Some Value.Tfloat
  | 3 -> Some Value.Tstring
  | 4 -> Some Value.Tbool
  | _ -> None

let directory_end arity = 2 + (entry_bytes * arity)

let bitmap_bytes n = (n + 7) lsr 3

let page_rows page = Bytes.get_uint16_le page 0

let[@inline] bit page at r = Bytes.get_uint8 page (at + (r lsr 3)) land (1 lsl (r land 7)) <> 0

let set_bit page at r =
  let p = at + (r lsr 3) in
  Bytes.set_uint8 page p (Bytes.get_uint8 page p lor (1 lsl (r land 7)))

(* ------------------------------------------------------------------ *)
(* Packing                                                              *)
(* ------------------------------------------------------------------ *)

type fill = {
  fplan : plan;
  page_size : int;
  has_null : bool array;  (** per column: a packed row is NULL there *)
  str_bytes : int array;  (** per string column: its packed bytes *)
  mutable rows : int;
  mutable bytes : int;  (** the page image's size for the packed rows *)
}

let fill plan ~page_size =
  let arity = Array.length plan.columns in
  {
    fplan = plan;
    page_size;
    has_null = Array.make arity false;
    str_bytes = Array.make arity 0;
    rows = 0;
    bytes = directory_end arity;
  }

let clear f =
  Array.fill f.has_null 0 (Array.length f.has_null) false;
  Array.fill f.str_bytes 0 (Array.length f.str_bytes) 0;
  f.rows <- 0;
  f.bytes <- directory_end (Array.length f.has_null)

let filled f = f.rows

let type_clash plan i ty =
  let a = Schema.attr_at plan.schema i in
  invalid_arg
    (Printf.sprintf "Codec: %s value in column %s (%s)" (Value.ty_to_string ty)
       (Schema.qualified_name a)
       (Value.ty_to_string a.Schema.ty))

(* Type-check [row] against the plan and return the bytes it adds to
   the page: per column its cell (8 bytes, a string's end offset and
   bytes, or a bit), and the growth of its NULL bitmap — the whole
   bitmap at the column's first NULL.  [max_int] when a string segment
   would outgrow its 16-bit offsets. *)
let row_growth f (row : Tuple.t) =
  let plan = f.fplan in
  let cols = plan.columns in
  let arity = Array.length cols in
  if Array.length row <> arity then
    invalid_arg
      (Printf.sprintf "Codec: tuple arity %d does not match the schema arity %d" (Array.length row)
         arity);
  let n = f.rows in
  let bit_growth = bitmap_bytes (n + 1) - bitmap_bytes n in
  let grow = ref 0 in
  for i = 0 to arity - 1 do
    let c = Array.unsafe_get cols i in
    let v = Array.unsafe_get row i in
    (match v, c.ty with
    | Value.Null, _ ->
      if c.non_null then
        invalid_arg (Printf.sprintf "Codec: NULL in non-NULL column %s" (column_name plan i))
    | Value.Int _, Value.Tint | Value.Float _, Value.Tfloat | Value.Bool _, Value.Tbool -> ()
    | Value.Str s, Value.Tstring ->
      if String.length s > max_string_bytes then
        invalid_arg "Codec: string longer than 65535 bytes";
      if f.str_bytes.(i) + String.length s > max_string_bytes then grow := max_int
    | v, _ -> type_clash plan i (Option.get (Value.ty_of v)));
    let cell =
      match v, c.ty with
      | _, (Value.Tint | Value.Tfloat) -> 8
      | Value.Str s, Value.Tstring -> 2 + String.length s
      | _, Value.Tstring -> 2
      | _, Value.Tbool -> bit_growth
    in
    let bitmap =
      if f.has_null.(i) then bit_growth else if v == Value.Null then bitmap_bytes (n + 1) else 0
    in
    if !grow < max_int then grow := !grow + cell + bitmap
  done;
  !grow

let add f row =
  let grow = row_growth f row in
  let fits = f.rows < max_rows && grow <= f.page_size - f.bytes in
  if fits then begin
    Array.iteri
      (fun i v ->
        match v with
        | Value.Null -> f.has_null.(i) <- true
        | Value.Str s -> f.str_bytes.(i) <- f.str_bytes.(i) + String.length s
        | _ -> ())
      row;
    f.rows <- f.rows + 1;
    f.bytes <- f.bytes + grow
  end;
  fits

let image_bytes f = f.bytes

let encode_page plan rows ~off ~len page =
  let cols = plan.columns in
  let arity = Array.length cols in
  if off < 0 || len < 0 || off + len > Array.length rows then
    invalid_arg "Codec.encode_page: rows out of range";
  if len > max_rows then invalid_arg "Codec.encode_page: more rows than a page counts";
  Bytes.fill page 0 (Bytes.length page) '\000';
  Bytes.set_uint16_le page 0 len;
  let pos = ref (directory_end arity) in
  for i = 0 to arity - 1 do
    let row r = Array.unsafe_get rows (off + r) in
    let cell r = Array.unsafe_get (row r) i in
    let c = cols.(i) in
    let nulls = ref false in
    for r = 0 to len - 1 do
      if cell r == Value.Null then nulls := true
    done;
    let entry = 2 + (entry_bytes * i) in
    Bytes.set_uint8 page entry (type_code c.ty lor if !nulls then nulls_flag else 0);
    Bytes.set_int32_le page (entry + 1) (Int32.of_int !pos);
    if !nulls then begin
      for r = 0 to len - 1 do
        if cell r == Value.Null then set_bit page !pos r
      done;
      pos := !pos + bitmap_bytes len
    end;
    let at = !pos in
    match c.ty with
    | Value.Tint ->
      for r = 0 to len - 1 do
        match cell r with
        | Value.Int v -> Bytes.set_int64_le page (at + (8 * r)) (Int64.of_int v)
        | _ -> ()
      done;
      pos := at + (8 * len)
    | Value.Tfloat ->
      for r = 0 to len - 1 do
        match cell r with
        | Value.Float v -> Bytes.set_int64_le page (at + (8 * r)) (Int64.bits_of_float v)
        | _ -> ()
      done;
      pos := at + (8 * len)
    | Value.Tbool ->
      for r = 0 to len - 1 do
        match cell r with Value.Bool true -> set_bit page at r | _ -> ()
      done;
      pos := at + bitmap_bytes len
    | Value.Tstring ->
      let data = at + (2 * len) in
      let stop = ref 0 in
      for r = 0 to len - 1 do
        (match cell r with
        | Value.Str s ->
          Bytes.blit_string s 0 page (data + !stop) (String.length s);
          stop := !stop + String.length s
        | _ -> ());
        Bytes.set_uint16_le page (at + (2 * r)) !stop
      done;
      pos := data + !stop
  done

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* Shared [Bool] cells so the decode loops never allocate for booleans
   or NULLs. *)
let v_true = Value.Bool true

let v_false = Value.Bool false

(* Interned small ints: dimension keys and flag-like measures dominate
   OLAP detail tables, so most [Tint] cells can reuse a preallocated
   cell instead of boxing a fresh [Value.Int] per decode.  [Value.t] is
   immutable, so physical sharing is unobservable. *)
let small_ints = Array.init 1024 (fun i -> Value.Int i)

let[@inline] v_int v =
  if v >= 0 && v < 1024 then Array.unsafe_get small_ints v else Value.Int v

(* Raw native-endian 64-bit load: every segment is bounds-checked before
   its loop runs, and the primitive's unboxed result feeds
   [Int64.to_int]/[float_of_bits] without materializing a boxed [int64]. *)
external unsafe_get64_ne : bytes -> int -> int64 = "%caml_bytes_get64u"

let[@inline] get64_le bytes q =
  if Sys.big_endian then Bytes.get_int64_le bytes q else unsafe_get64_ne bytes q

external unsafe_get16_ne : bytes -> int -> int = "%caml_bytes_get16u"

let[@inline] get16_le bytes q =
  if Sys.big_endian then Bytes.get_uint16_le bytes q else unsafe_get16_ne bytes q

let u32 page p = Int32.to_int (Bytes.get_int32_le page p) land 0xFFFF_FFFF

(* A row of [width] NULL cells.  [Array.make] is a C call; a literal
   allocates inline, which matters once per decoded row. *)
let[@inline] null_row width : Tuple.t =
  match width with
  | 0 -> [||]
  | 1 -> [| Value.Null |]
  | 2 -> [| Value.Null; Value.Null |]
  | 3 -> [| Value.Null; Value.Null; Value.Null |]
  | 4 -> [| Value.Null; Value.Null; Value.Null; Value.Null |]
  | 5 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 6 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 7 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | _ -> Array.make width Value.Null

let past_end ~offset ~len what stop =
  sto ~code:"STO002" ~offset "%s runs %d bytes past the page end" what (stop - len)

(* A segment's NULL-bitmap flag and where its payload starts, from its
   directory entry and its start. *)
let[@inline] nulls_of page i = Bytes.get_uint8 page (2 + (entry_bytes * i)) land nulls_flag <> 0

let[@inline] payload_of page ~n ~i ~start = if nulls_of page i then start + bitmap_bytes n else start

let clash plan i ty offset =
  sto ~code:"STO003" ~offset "%s segment in column %s (declared %s)" (Value.ty_to_string ty)
    (column_name plan i)
    (Value.ty_to_string plan.columns.(i).ty)

(* The structure every decode checks on every segment, kept or not:
   segment [i]'s type byte is known and, under a plan, names its
   column's type; the segment starts at [start], where the one before it
   ends, and lies in the page, its string end offsets rising.  Returns
   where the segment ends. *)
let frame page ~n ~i ~start ~plan =
  let len = Bytes.length page in
  let entry = 2 + (entry_bytes * i) in
  let b = Bytes.get_uint8 page entry in
  let ty =
    match type_of_byte b with
    | None -> sto ~code:"STO001" ~offset:entry "unknown segment type byte %d in column %d" b i
    | Some ty -> ty
  in
  (match plan with Some p when p.columns.(i).ty <> ty -> clash p i ty entry | _ -> ());
  let at = u32 page (entry + 1) in
  if at <> start then
    sto ~code:"STO002" ~offset:(entry + 1)
      "segment %d starts at byte %d, not at byte %d where the one before it ends" i at start;
  let payload = payload_of page ~n ~i ~start in
  if payload > len then past_end ~offset:start ~len "NULL bitmap" payload;
  let stop =
    match ty with
    | Value.Tint | Value.Tfloat -> payload + (8 * n)
    | Value.Tbool -> payload + bitmap_bytes n
    | Value.Tstring ->
      let data = payload + (2 * n) in
      if data > len then past_end ~offset:payload ~len "string offsets" data;
      let last = ref 0 in
      for r = 0 to n - 1 do
        let e = get16_le page (payload + (2 * r)) in
        if e < !last then
          sto ~code:"STO002" ~offset:(payload + (2 * r))
            "string end offset %d of row %d is below the one before it (%d)" e r !last;
        last := e
      done;
      data + !last
  in
  if stop > len then past_end ~offset:payload ~len "segment" stop;
  stop

(* Any NULL among the first [n] bits of the bitmap at [at]. *)
let any_null page at n =
  let found = ref false in
  for k = 0 to bitmap_bytes n - 1 do
    let mask = if 8 * (k + 1) <= n then 0xFF else (1 lsl (n - (8 * k))) - 1 in
    if Bytes.get_uint8 page (at + k) land mask <> 0 then found := true
  done;
  !found

(* The kept segment's cells into slot [s] of every row, in one loop
   specialised to its type and to whether it has a bitmap. *)
let decode_ints page rows s ~nulls ~bitmap ~payload n =
  if nulls then
    for r = 0 to n - 1 do
      if not (bit page bitmap r) then
        Array.unsafe_set (Array.unsafe_get rows r) s
          (v_int (Int64.to_int (get64_le page (payload + (8 * r)))))
    done
  else
    for r = 0 to n - 1 do
      Array.unsafe_set (Array.unsafe_get rows r) s
        (v_int (Int64.to_int (get64_le page (payload + (8 * r)))))
    done

let decode_floats page rows s ~nulls ~bitmap ~payload n =
  for r = 0 to n - 1 do
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set (Array.unsafe_get rows r) s
        (Value.Float (Int64.float_of_bits (get64_le page (payload + (8 * r)))))
  done

let decode_bools page rows s ~nulls ~bitmap ~payload n =
  for r = 0 to n - 1 do
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set (Array.unsafe_get rows r) s (if bit page payload r then v_true else v_false)
  done

let decode_strings page rows s ~nulls ~bitmap ~payload n =
  let data = payload + (2 * n) in
  let lo = ref 0 in
  for r = 0 to n - 1 do
    let hi = get16_le page (payload + (2 * r)) in
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set (Array.unsafe_get rows r) s (Value.Str (Bytes.sub_string page (data + !lo) (hi - !lo)));
    lo := hi
  done

let directory page arity =
  let len = Bytes.length page in
  if len < 2 then past_end ~offset:0 ~len "row count" 2;
  let dir = directory_end arity in
  if dir > len then past_end ~offset:2 ~len "segment directory" dir;
  dir

let decode_page plan page =
  let cols = plan.columns in
  let arity = Array.length cols in
  let start = ref (directory page arity) in
  let n = page_rows page in
  let width = plan.width in
  let rows : Tuple.t array = Array.make n [||] in
  for r = 0 to n - 1 do
    Array.unsafe_set rows r (null_row width)
  done;
  let under = Some plan in
  for i = 0 to arity - 1 do
    let c = cols.(i) in
    let bitmap = !start in
    let stop = frame page ~n ~i ~start:bitmap ~plan:under in
    let nulls = nulls_of page i and payload = payload_of page ~n ~i ~start:bitmap in
    if nulls && c.non_null && any_null page bitmap n then
      sto ~code:"STO003" ~offset:bitmap "NULL in column %s (declared %s, non-NULL)"
        (column_name plan i) (Value.ty_to_string c.ty);
    let s = plan.slots.(i) in
    if s >= 0 then begin
      match c.ty with
      | Value.Tint -> decode_ints page rows s ~nulls ~bitmap ~payload n
      | Value.Tfloat -> decode_floats page rows s ~nulls ~bitmap ~payload n
      | Value.Tbool -> decode_bools page rows s ~nulls ~bitmap ~payload n
      | Value.Tstring -> decode_strings page rows s ~nulls ~bitmap ~payload n
    end;
    start := stop
  done;
  rows

(* The oracle: every segment, by the type its own byte names, one
   [Value.t] at a time through the checked [Bytes] accessors. *)
let decode_page_reference ~arity page =
  let start = ref (directory page arity) in
  let n = page_rows page in
  let columns =
    Array.init arity (fun i ->
        let bitmap = !start in
        start := frame page ~n ~i ~start:bitmap ~plan:None;
        let ty = Option.get (type_of_byte (Bytes.get_uint8 page (2 + (entry_bytes * i)))) in
        let nulls = nulls_of page i and payload = payload_of page ~n ~i ~start:bitmap in
        Array.init n (fun r ->
            if nulls && bit page bitmap r then Value.Null
            else
              match ty with
              | Value.Tint -> Value.Int (Int64.to_int (Bytes.get_int64_le page (payload + (8 * r))))
              | Value.Tfloat ->
                Value.Float (Int64.float_of_bits (Bytes.get_int64_le page (payload + (8 * r))))
              | Value.Tbool -> Value.Bool (bit page payload r)
              | Value.Tstring ->
                let end_of r = if r < 0 then 0 else Bytes.get_uint16_le page (payload + (2 * r)) in
                let lo = end_of (r - 1) in
                Value.Str (Bytes.sub_string page (payload + (2 * n) + lo) (end_of r - lo))))
  in
  Array.init n (fun r -> Array.init arity (fun i -> columns.(i).(r)))
