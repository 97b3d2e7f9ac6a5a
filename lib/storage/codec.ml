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
(* Dictionaries                                                         *)
(* ------------------------------------------------------------------ *)

let dictionary_cap = 4096

(* A NULL cell's code in a decoded chunk: one past every entry's. *)
let null_code = dictionary_cap

let max_entry_bytes = 255

(* A dictionary page's count, column and type byte. *)
let dictionary_header = 5

(* A string column's dictionary.  Its lookup table is open-addressed:
   [slots] (a power of two, at least four times the entries) holds a
   string's code plus one at the first free place from its hash; 0
   marks a free place. *)
type dict = {
  id : int;  (** the identity decoded codes carry *)
  mutable values : Value.t array;  (** per code, the one cell every decode of it shares *)
  mutable strings : string array;  (** per code, its string *)
  mutable size : int;
  mutable slots : int array;
}

let next_id = Atomic.make 0

let dict () =
  { id = Atomic.fetch_and_add next_id 1; values = [||]; strings = [||]; size = 0; slots = Array.make 16 0 }

(* The dictionary of a column that has none: it stays empty. *)
let no_dict = dict ()

external word : string -> int -> int64 = "%caml_string_get64"

let[@inline] mix h w =
  let h = (h lxor w) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* A string's hash, a word at a time (the last word may overlap the one
   before it): the packing pass looks up every string it codes, and
   this table with this hash costs an append about a quarter less than
   [Hashtbl] does.  The hash need not see every bit; [find] compares
   whole strings. *)
let hash_string s =
  let n = String.length s in
  let h = ref n in
  if n < 8 then
    for k = 0 to n - 1 do
      h := (!h lsl 8) lor Char.code (String.unsafe_get s k)
    done
  else begin
    let i = ref 0 in
    while !i + 8 < n do
      h := mix !h (Int64.to_int (word s !i));
      i := !i + 8
    done;
    h := mix !h (Int64.to_int (word s (n - 8)))
  end;
  let h = mix !h 0 in
  h lxor (h lsr 32)

(* The code of [s] in [d], or -1. *)
let find d s =
  let slots = d.slots in
  let mask = Array.length slots - 1 in
  let rec go j =
    let c = Array.unsafe_get slots j in
    if c = 0 then -1
    else if String.equal (Array.unsafe_get d.strings (c - 1)) s then c - 1
    else go ((j + 1) land mask)
  in
  go (hash_string s land mask)

let place d c =
  let mask = Array.length d.slots - 1 in
  let rec go j = if d.slots.(j) = 0 then d.slots.(j) <- c + 1 else go ((j + 1) land mask) in
  go (hash_string d.strings.(c) land mask)

let rehash d =
  Array.fill d.slots 0 (Array.length d.slots) 0;
  for c = 0 to d.size - 1 do
    place d c
  done

(* [s] as the next code of [d]. *)
let join d s =
  let c = d.size in
  if c = Array.length d.values then begin
    let grow a fill = Array.append a (Array.make (max 16 c) fill) in
    d.values <- grow d.values Value.Null;
    d.strings <- grow d.strings ""
  end;
  d.values.(c) <- Value.Str s;
  d.strings.(c) <- s;
  d.size <- c + 1;
  if 4 * d.size > Array.length d.slots then begin
    d.slots <- Array.make (2 * Array.length d.slots) 0;
    rehash d
  end
  else place d c;
  c

(* ------------------------------------------------------------------ *)
(* Schema-compiled codec plans                                          *)
(* ------------------------------------------------------------------ *)

type column = { ty : Value.ty; non_null : bool }

type plan = {
  schema : Schema.t;
  columns : column array;
  slots : int array;
  decoded : Schema.t;
  dicts : dict array;
}

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
  let columns =
    Array.init arity (fun i -> { ty = (Schema.attr_at schema i).Schema.ty; non_null = nn.(i) })
  in
  {
    schema;
    columns;
    slots = Array.init arity Fun.id;
    decoded = schema;
    dicts = Array.map (fun c -> if c.ty = Value.Tstring then dict () else no_dict) columns;
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
  { plan with slots; decoded = Schema.project plan.schema keep }

let column_name plan i = Schema.qualified_name (Schema.attr_at plan.schema i)

let dictionary_sizes plan = Array.map (fun d -> d.size) plan.dicts

let truncate_dictionaries plan sizes =
  Array.iteri
    (fun i d ->
      if sizes.(i) < d.size then begin
        d.size <- sizes.(i);
        rehash d
      end)
    plan.dicts

(* ------------------------------------------------------------------ *)
(* The page layout                                                      *)
(* ------------------------------------------------------------------ *)

let entry_bytes = 5

let nulls_flag = 0x80

let coded_flag = 0x40

(* A page's rows, and a string segment's bytes, are counted in 16 bits. *)
let max_rows = 0xFFFF

let max_string_bytes = 0xFFFF

let type_code = function Value.Tint -> 1 | Value.Tfloat -> 2 | Value.Tstring -> 3 | Value.Tbool -> 4

let dictionary_byte = type_code Value.Tstring lor coded_flag

(* The column type of a segment's type byte, or [None] for an unknown
   byte: the NULL-bitmap flag may be set beside any type code, the
   coded flag beside the string code only. *)
let type_of_byte b =
  match b land lnot nulls_flag with
  | 1 -> Some Value.Tint
  | 2 -> Some Value.Tfloat
  | 3 -> Some Value.Tstring
  | 4 -> Some Value.Tbool
  | b when b = dictionary_byte -> Some Value.Tstring
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
  entry_max : int;  (** the longest string a dictionary entry holds *)
  has_null : bool array;  (** per column: a packed row is NULL there *)
  str_bytes : int array;  (** per string column: its packed strings' bytes *)
  coded : bool array;  (** per string column: every packed row has a code *)
  string_slot : int array;  (** per column, its place among the string columns, or -1 *)
  stride : int;  (** the number of string columns *)
  mutable codes : Bytes.t;
      (** per row counted since {!reset}, per string column: its 16-bit
          code; [no_code] for a string without one, 0 for NULL *)
  mutable total : int;  (** rows counted since {!reset} *)
  mutable resumed : Tuple.t array;  (** the first rows counted, by {!resume} *)
  mutable window : Tuple.t array;  (** the rows of the page being encoded *)
  mutable capacity : int;  (** rows [codes] holds *)
  mutable rows : int;
  mutable bytes : int;  (** the page image's size for the packed rows *)
}

(* A fresh page: a string column starts coded while its dictionary has
   room. *)
let open_page f =
  let plan = f.fplan in
  Array.iteri
    (fun i c ->
      f.has_null.(i) <- false;
      f.str_bytes.(i) <- 0;
      f.coded.(i) <- c.ty = Value.Tstring && plan.dicts.(i).size < dictionary_cap)
    plan.columns;
  f.rows <- 0;
  f.bytes <- directory_end (Array.length plan.columns)

let no_code = 0xFFFF

let first_capacity = 256

let fill plan ~page_size =
  let arity = Array.length plan.columns in
  let stride = ref 0 in
  let string_slot =
    Array.map
      (fun c ->
        if c.ty <> Value.Tstring then -1
        else begin
          incr stride;
          !stride - 1
        end)
      plan.columns
  in
  let f =
    {
      fplan = plan;
      page_size;
      entry_max = min max_entry_bytes (page_size - dictionary_header - 2);
      has_null = Array.make arity false;
      str_bytes = Array.make arity 0;
      coded = Array.make arity false;
      string_slot;
      stride = !stride;
      codes = Bytes.create (2 * !stride * first_capacity);
      total = 0;
      resumed = [||];
      window = [||];
      capacity = first_capacity;
      rows = 0;
      bytes = 0;
    }
  in
  open_page f;
  f

let clear = open_page

(* A batch far larger than the first capacity leaves a buffer the next
   one need not keep. *)
let reset f =
  f.total <- 0;
  f.resumed <- [||];
  if f.capacity > 64 * first_capacity then begin
    f.codes <- Bytes.create (2 * f.stride * first_capacity);
    f.capacity <- first_capacity
  end;
  open_page f

let[@inline] code_at f i pos = (2 * pos * f.stride) + (2 * Array.unsafe_get f.string_slot i)

let[@inline] set_code f i pos c = Bytes.set_uint16_ne f.codes (code_at f i pos) c

let[@inline] get_code f i pos = Bytes.get_uint16_ne f.codes (code_at f i pos)

let filled f = f.rows

let image_bytes f = f.bytes

(* Room for the codes of rows [0, rows). *)
let reserve f rows =
  if rows > f.capacity then begin
    let capacity = max rows (2 * f.capacity) in
    f.codes <- Bytes.extend f.codes 0 (2 * f.stride * (capacity - f.capacity));
    f.capacity <- capacity
  end

let type_clash plan i ty =
  let a = Schema.attr_at plan.schema i in
  invalid_arg
    (Printf.sprintf "Codec: %s value in column %s (%s)" (Value.ty_to_string ty)
       (Schema.qualified_name a)
       (Value.ty_to_string a.Schema.ty))

(* [s]'s code in column [i]'s dictionary, which it joins when new and
   the dictionary has room; -1 when it cannot. *)
let code_of f i s =
  let d = f.fplan.dicts.(i) in
  match find d s with
  | -1 -> if d.size >= dictionary_cap || String.length s > f.entry_max then -1 else join d s
  | c -> c

(* The bytes a string adds to column [i]'s segment, its code recorded
   for row [pos]: a coded cell is 2 bytes; the first string without a
   code turns the segment plain, adding every packed string's bytes;
   -1 when a plain segment would outgrow its 16-bit offsets. *)
let string_cell f i pos s =
  let len = String.length s in
  if len > max_string_bytes then invalid_arg "Codec: string longer than 65535 bytes";
  let before = f.str_bytes.(i) in
  f.str_bytes.(i) <- before + len;
  let code = if f.coded.(i) then code_of f i s else -1 in
  set_code f i pos (if code >= 0 then code else no_code);
  if code >= 0 then 2
  else if before + len > max_string_bytes then -1
  else if f.coded.(i) then begin
    f.coded.(i) <- false;
    2 + len + before
  end
  else 2 + len

(* One pass over the row's columns type-checks it, finds its codes and
   sums the bytes it adds — per column its cell (8 bytes, a code, a
   string's end offset and bytes, or a bit) and the growth of its NULL
   bitmap, the whole bitmap at the column's first NULL — updating the
   page's running state as it goes.  A row that does not fit leaves
   that state for {!clear}: the page is full. *)
let add f (row : Tuple.t) =
  let plan = f.fplan in
  let cols = plan.columns in
  let arity = Array.length cols in
  if Array.length row <> arity then
    invalid_arg
      (Printf.sprintf "Codec: tuple arity %d does not match the schema arity %d" (Array.length row)
         arity);
  let pos = f.total in
  if pos >= f.capacity then reserve f (pos + 1);
  let n = f.rows in
  let bit_growth = bitmap_bytes (n + 1) - bitmap_bytes n in
  let grow = ref 0 and over = ref false in
  for i = 0 to arity - 1 do
    let c = Array.unsafe_get cols i in
    let v = Array.unsafe_get row i in
    let cell =
      match v, c.ty with
      | Value.Int _, Value.Tint | Value.Float _, Value.Tfloat -> 8
      | Value.Str s, Value.Tstring -> string_cell f i pos s
      | Value.Bool _, Value.Tbool -> bit_growth
      | Value.Null, ty -> (
        if c.non_null then
          invalid_arg (Printf.sprintf "Codec: NULL in non-NULL column %s" (column_name plan i));
        match ty with
        | Value.Tint | Value.Tfloat -> 8
        | Value.Tbool -> bit_growth
        | Value.Tstring ->
          set_code f i pos 0;
          2)
      | v, _ -> type_clash plan i (Option.get (Value.ty_of v))
    in
    let bitmap =
      if f.has_null.(i) then bit_growth
      else if v == Value.Null then begin
        f.has_null.(i) <- true;
        bitmap_bytes (n + 1)
      end
      else 0
    in
    if cell < 0 then over := true else grow := !grow + cell + bitmap
  done;
  let fits = (not !over) && n < max_rows && !grow <= f.page_size - f.bytes in
  if fits then begin
    f.rows <- n + 1;
    f.total <- pos + 1;
    f.bytes <- f.bytes + !grow
  end;
  fits

(* Every row of [off, off + len) has a code in column [i]. *)
let all_coded f i ~off ~len =
  let rec go r = r >= len || (get_code f i (off + r) <> no_code && go (r + 1)) in
  go 0

(* Each segment is written in one pass over its cells, as if it had no
   NULL; a segment that met one moves its payload up to make room for
   its bitmap, which the page size counted. *)
let encode_page f rows ~off ~len page =
  let plan = f.fplan in
  let cols = plan.columns in
  let arity = Array.length cols in
  let resumed = f.resumed in
  let n_resumed = Array.length resumed in
  if off < 0 || len < 0 || off + len > n_resumed + Array.length rows then
    invalid_arg "Codec.encode_page: rows out of range";
  if off + len > f.total then invalid_arg "Codec.encode_page: rows the fill has not counted";
  if len > max_rows then invalid_arg "Codec.encode_page: more rows than a page counts";
  if Array.length f.window < len then f.window <- Array.make len Tuple.empty;
  let window = f.window in
  for r = 0 to len - 1 do
    let p = off + r in
    window.(r) <- (if p < n_resumed then resumed.(p) else rows.(p - n_resumed))
  done;
  Bytes.fill page 0 (min (Bytes.length page) f.page_size) '\000';
  Bytes.set_uint16_le page 0 len;
  let pos = ref (directory_end arity) in
  let bitmap = bitmap_bytes len in
  for i = 0 to arity - 1 do
    let c = cols.(i) in
    let at = !pos in
    let nulls = ref false in
    let coded = c.ty = Value.Tstring && all_coded f i ~off ~len in
    let stop =
      match c.ty with
      | Value.Tint ->
        for r = 0 to len - 1 do
          match Array.unsafe_get (Array.unsafe_get window r) i with
          | Value.Int v -> Bytes.set_int64_le page (at + (8 * r)) (Int64.of_int v)
          | _ -> nulls := true
        done;
        at + (8 * len)
      | Value.Tfloat ->
        for r = 0 to len - 1 do
          match Array.unsafe_get (Array.unsafe_get window r) i with
          | Value.Float v -> Bytes.set_int64_le page (at + (8 * r)) (Int64.bits_of_float v)
          | _ -> nulls := true
        done;
        at + (8 * len)
      | Value.Tbool ->
        for r = 0 to len - 1 do
          match Array.unsafe_get (Array.unsafe_get window r) i with
          | Value.Bool true -> set_bit page at r
          | Value.Bool false -> ()
          | _ -> nulls := true
        done;
        at + bitmap
      | Value.Tstring when coded ->
        for r = 0 to len - 1 do
          if Array.unsafe_get (Array.unsafe_get window r) i == Value.Null then nulls := true;
          Bytes.set_uint16_le page (at + (2 * r)) (get_code f i (off + r))
        done;
        at + (2 * len)
      | Value.Tstring ->
        let data = at + (2 * len) in
        let stop = ref 0 in
        for r = 0 to len - 1 do
          (match Array.unsafe_get (Array.unsafe_get window r) i with
          | Value.Str s ->
            Bytes.blit_string s 0 page (data + !stop) (String.length s);
            stop := !stop + String.length s
          | _ -> nulls := true);
          Bytes.set_uint16_le page (at + (2 * r)) !stop
        done;
        data + !stop
    in
    let entry = 2 + (entry_bytes * i) in
    Bytes.set_uint8 page entry
      (type_code c.ty
      lor (if !nulls then nulls_flag else 0)
      lor if coded then coded_flag else 0);
    Bytes.set_int32_le page (entry + 1) (Int32.of_int at);
    if !nulls then begin
      Bytes.blit page at page (at + bitmap) (stop - at);
      Bytes.fill page at bitmap '\000';
      for r = 0 to len - 1 do
        if Array.unsafe_get (Array.unsafe_get window r) i == Value.Null then set_bit page at r
      done;
      pos := stop + bitmap
    end
    else pos := stop
  done;
  Array.fill window 0 len Tuple.empty

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* Shared [Bool] cells so the decode loops never allocate for booleans
   or NULLs. *)
let v_true = Value.Bool true

let v_false = Value.Bool false

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

let past_end ~offset ~len what stop =
  sto ~code:"STO002" ~offset "%s runs %d bytes past the page end" what (stop - len)

(* A segment's NULL-bitmap flag and where its payload starts, from its
   directory entry and its start. *)
let[@inline] nulls_of page i = Bytes.get_uint8 page (2 + (entry_bytes * i)) land nulls_flag <> 0

let[@inline] payload_of page ~n ~i ~start = if nulls_of page i then start + bitmap_bytes n else start

let[@inline] coded_at page i = Bytes.get_uint8 page (2 + (entry_bytes * i)) land coded_flag <> 0

let clash plan i ty offset =
  sto ~code:"STO003" ~offset "%s segment in column %s (declared %s)" (Value.ty_to_string ty)
    (column_name plan i)
    (Value.ty_to_string plan.columns.(i).ty)

(* The structure every decode checks on every segment, kept or not:
   segment [i]'s type byte is known and, when [typed], names its
   column's type; the segment starts at [start], where the one before it
   ends, and lies in the page, its string end offsets rising and its
   codes within column [i]'s dictionary.  Returns where the segment
   ends. *)
let frame page ~n ~i ~start ~plan ~typed =
  let len = Bytes.length page in
  let entry = 2 + (entry_bytes * i) in
  let b = Bytes.get_uint8 page entry in
  let ty =
    match type_of_byte b with
    | None -> sto ~code:"STO001" ~offset:entry "unknown segment type byte %d in column %d" b i
    | Some ty -> ty
  in
  if typed && plan.columns.(i).ty <> ty then clash plan i ty entry;
  let at = u32 page (entry + 1) in
  if at <> start then
    sto ~code:"STO002" ~offset:(entry + 1)
      "segment %d starts at byte %d, not at byte %d where the one before it ends" i at start;
  let nulls = b land nulls_flag <> 0 in
  let payload = if nulls then start + bitmap_bytes n else start in
  if payload > len then past_end ~offset:start ~len "NULL bitmap" payload;
  let stop =
    match ty with
    | Value.Tint | Value.Tfloat -> payload + (8 * n)
    | Value.Tbool -> payload + bitmap_bytes n
    | Value.Tstring when b land coded_flag <> 0 ->
      let stop = payload + (2 * n) in
      if stop > len then past_end ~offset:payload ~len "codes" stop;
      let size = plan.dicts.(i).size in
      for r = 0 to n - 1 do
        let c = get16_le page (payload + (2 * r)) in
        if c >= size && not (nulls && bit page start r) then
          sto ~code:"STO002" ~offset:(payload + (2 * r))
            "code %d of row %d is past the dictionary of column %d (%d entries)" c r i size
      done;
      stop
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

(* The kept segment's cells copied out of the page into a column
   vector, in one loop specialised to its type: the pool recycles the
   page's bytes, the vector outlives them.  A NULL bitmap is copied as
   it stands ([Bytes.empty] when the segment has none). *)
let nulls_copy page ~nulls ~bitmap n =
  if nulls then Bytes.sub page bitmap (bitmap_bytes n) else Bytes.empty

let decode_ints page ~nulls ~bitmap ~payload n =
  let ints = Array.make n 0 in
  for r = 0 to n - 1 do
    Array.unsafe_set ints r (Int64.to_int (get64_le page (payload + (8 * r))))
  done;
  Chunk.Ints { ints; nulls = nulls_copy page ~nulls ~bitmap n }

let decode_floats page ~nulls ~bitmap ~payload n =
  let floats = Array.create_float n in
  for r = 0 to n - 1 do
    Array.unsafe_set floats r (Int64.float_of_bits (get64_le page (payload + (8 * r))))
  done;
  Chunk.Floats { floats; nulls = nulls_copy page ~nulls ~bitmap n }

let decode_bools page ~nulls ~bitmap ~payload n =
  let cells = Array.make n Value.Null in
  for r = 0 to n - 1 do
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set cells r (if bit page payload r then v_true else v_false)
  done;
  Chunk.Cells cells

let decode_strings page ~nulls ~bitmap ~payload n =
  let data = payload + (2 * n) in
  let cells = Array.make n Value.Null in
  let lo = ref 0 in
  for r = 0 to n - 1 do
    let hi = get16_le page (payload + (2 * r)) in
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set cells r (Value.Str (Bytes.sub_string page (data + !lo) (hi - !lo)));
    lo := hi
  done;
  Chunk.Cells cells

let directory page arity =
  let len = Bytes.length page in
  if len < 2 then past_end ~offset:0 ~len "row count" 2;
  let dir = directory_end arity in
  if dir > len then past_end ~offset:2 ~len "segment directory" dir;
  dir

(* A coded segment's codes, [null_code] for a NULL, over the
   dictionary's values as they are now: a code, once given, names its
   value for good. *)
let decode_coded page ~nulls ~bitmap ~payload n (d : dict) =
  let codes = Array.make n null_code in
  for r = 0 to n - 1 do
    if not (nulls && bit page bitmap r) then
      Array.unsafe_set codes r (get16_le page (payload + (2 * r)))
  done;
  Chunk.Coded { Chunk.dictionary = d.id; bound = null_code + 1; values = d.values; codes }

(* The one decode loop: the page's kept columns as vectors under
   [plan], its row count and where its last segment ends. *)
let decode plan page =
  let cols = plan.columns in
  let arity = Array.length cols in
  let start = ref (directory page arity) in
  let n = page_rows page in
  let kept = Array.make (Schema.arity plan.decoded) (Chunk.Cells [||]) in
  for i = 0 to arity - 1 do
    let c = cols.(i) in
    let bitmap = !start in
    let stop = frame page ~n ~i ~start:bitmap ~plan ~typed:true in
    let nulls = nulls_of page i and payload = payload_of page ~n ~i ~start:bitmap in
    if nulls && c.non_null && any_null page bitmap n then
      sto ~code:"STO003" ~offset:bitmap "NULL in column %s (declared %s, non-NULL)"
        (column_name plan i) (Value.ty_to_string c.ty);
    let s = plan.slots.(i) in
    if s >= 0 then
      kept.(s) <-
        (match c.ty with
        | Value.Tint -> decode_ints page ~nulls ~bitmap ~payload n
        | Value.Tfloat -> decode_floats page ~nulls ~bitmap ~payload n
        | Value.Tbool -> decode_bools page ~nulls ~bitmap ~payload n
        | Value.Tstring when coded_at page i ->
          decode_coded page ~nulls ~bitmap ~payload n plan.dicts.(i)
        | Value.Tstring -> decode_strings page ~nulls ~bitmap ~payload n);
    start := stop
  done;
  (kept, n, !start)

let decode_chunk plan ~len page =
  let kept, n, _ = decode plan page in
  Chunk.of_columns plan.decoded ~len:(min len n) kept

let decode_page plan page = Chunk.to_rows (decode_chunk plan ~len:max_int page)

(* The oracle: every segment, by the type its own byte names, one
   [Value.t] at a time through the checked [Bytes] accessors; a code
   is looked up in the plan's dictionary of its column. *)
let decode_page_reference plan page =
  let arity = Array.length plan.columns in
  let start = ref (directory page arity) in
  let n = page_rows page in
  let columns =
    Array.init arity (fun i ->
        let bitmap = !start in
        start := frame page ~n ~i ~start:bitmap ~plan ~typed:false;
        let ty = Option.get (type_of_byte (Bytes.get_uint8 page (2 + (entry_bytes * i)))) in
        let nulls = nulls_of page i and payload = payload_of page ~n ~i ~start:bitmap in
        let coded = coded_at page i in
        Array.init n (fun r ->
            if nulls && bit page bitmap r then Value.Null
            else
              match ty with
              | Value.Tint -> Value.Int (Int64.to_int (Bytes.get_int64_le page (payload + (8 * r))))
              | Value.Tfloat ->
                Value.Float (Int64.float_of_bits (Bytes.get_int64_le page (payload + (8 * r))))
              | Value.Tbool -> Value.Bool (bit page payload r)
              | Value.Tstring when coded ->
                plan.dicts.(i).values.(Bytes.get_uint16_le page (payload + (2 * r)))
              | Value.Tstring ->
                let end_of r = if r < 0 then 0 else Bytes.get_uint16_le page (payload + (2 * r)) in
                let lo = end_of (r - 1) in
                Value.Str (Bytes.sub_string page (payload + (2 * n) + lo) (end_of r - lo))))
  in
  Array.init n (fun r -> Array.init arity (fun i -> columns.(i).(r)))

(* ------------------------------------------------------------------ *)
(* Resuming a page                                                      *)
(* ------------------------------------------------------------------ *)

let resume f page =
  let plan = f.fplan in
  if f.total > 0 then invalid_arg "Codec.resume: the fill has counted rows";
  if Schema.arity plan.decoded <> Array.length plan.columns then
    invalid_arg "Codec.resume: a projected plan";
  let kept, n, stop = decode plan page in
  let rows = Chunk.to_rows (Chunk.of_columns plan.decoded ~len:n kept) in
  reserve f n;
  Array.iteri
    (fun i c ->
      f.has_null.(i) <- nulls_of page i;
      if c.ty = Value.Tstring then begin
        let from_page = match kept.(i) with Chunk.Coded k -> Some k.Chunk.codes | _ -> None in
        f.coded.(i) <- Option.is_some from_page;
        let bytes = ref 0 in
        for r = 0 to n - 1 do
          match rows.(r).(i) with
          | Value.Str s ->
            bytes := !bytes + String.length s;
            set_code f i r (match from_page with Some codes -> codes.(r) | None -> no_code)
          | _ -> set_code f i r 0
        done;
        f.str_bytes.(i) <- !bytes
      end)
    plan.columns;
  f.rows <- n;
  f.total <- n;
  f.resumed <- rows;
  f.bytes <- stop;
  n

(* ------------------------------------------------------------------ *)
(* Dictionary pages                                                     *)
(* ------------------------------------------------------------------ *)

(* A dictionary page is laid out as a string segment behind a 5-byte
   header: the entry count, the column, the type byte. *)
let dictionary_pages plan page ~emit =
  let page_size = Bytes.length page in
  let count = ref 0 in
  Array.iteri
    (fun i d ->
      let next = ref 0 in
      while !next < d.size do
        let first = !next in
        let bytes = ref 0 in
        let fits c =
          c - first < max_rows
          && dictionary_header + (2 * (c - first + 1)) + !bytes + String.length d.strings.(c)
             <= page_size
        in
        while !next < d.size && fits !next do
          bytes := !bytes + String.length d.strings.(!next);
          incr next
        done;
        let n = !next - first in
        Bytes.fill page 0 page_size '\000';
        Bytes.set_uint16_le page 0 n;
        Bytes.set_uint16_le page 2 i;
        Bytes.set_uint8 page 4 dictionary_byte;
        let data = dictionary_header + (2 * n) in
        let stop = ref 0 in
        for k = 0 to n - 1 do
          let s = d.strings.(first + k) in
          Bytes.blit_string s 0 page (data + !stop) (String.length s);
          stop := !stop + String.length s;
          Bytes.set_uint16_le page (dictionary_header + (2 * k)) !stop
        done;
        emit page;
        incr count
      done)
    plan.dicts;
  !count

let load_dictionary_page plan page =
  let len = Bytes.length page in
  if len < dictionary_header then past_end ~offset:0 ~len "dictionary header" dictionary_header;
  let n = Bytes.get_uint16_le page 0 and i = Bytes.get_uint16_le page 2 in
  let b = Bytes.get_uint8 page 4 in
  if type_of_byte b = None then sto ~code:"STO001" ~offset:4 "unknown dictionary type byte %d" b;
  if b <> dictionary_byte then
    sto ~code:"STO003" ~offset:4 "type byte %d on a dictionary page (expected %d)" b dictionary_byte;
  if i >= Array.length plan.columns || plan.columns.(i).ty <> Value.Tstring then
    sto ~code:"STO003" ~offset:2 "dictionary page of column %d, which is not a string column" i;
  let data = dictionary_header + (2 * n) in
  if data > len then past_end ~offset:dictionary_header ~len "dictionary offsets" data;
  let d = plan.dicts.(i) in
  if d.size + n > dictionary_cap then
    sto ~code:"STO002" ~offset:0 "column %d's dictionary runs past %d entries" i dictionary_cap;
  let lo = ref 0 in
  for k = 0 to n - 1 do
    let at = dictionary_header + (2 * k) in
    let hi = Bytes.get_uint16_le page at in
    if hi < !lo then
      sto ~code:"STO002" ~offset:at "entry end offset %d of entry %d is below the one before it (%d)"
        hi k !lo;
    if data + hi > len then past_end ~offset:at ~len "dictionary entry" (data + hi);
    let s = Bytes.sub_string page (data + !lo) (hi - !lo) in
    ignore (join d s);
    lo := hi
  done
