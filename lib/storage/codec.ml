open Subql_relational

let tag_null = '\000'

let tag_int = '\001'

let tag_float = '\002'

let tag_str = '\003'

let tag_true = '\004'

let tag_false = '\005'

(* Corruption is a structured diagnostic (STO0xx), not a bare
   [Invalid_argument]: the byte offset rides in [subject] and callers
   (the heap file) push the file/page context onto [path]. *)
let sto ~code ~offset fmt =
  Format.kasprintf
    (fun msg ->
      raise (Diag.Fail (Diag.error ~subject:(Printf.sprintf "byte %d" offset) ~code msg)))
    fmt

let need bytes p n what =
  if p + n > Bytes.length bytes then
    sto ~code:"STO002" ~offset:p "truncated %s: payload runs %d bytes past the page end" what
      (p + n - Bytes.length bytes)

let encode_value buf = function
  | Value.Null -> Buffer.add_char buf tag_null
  | Value.Int i ->
    Buffer.add_char buf tag_int;
    Buffer.add_int64_le buf (Int64.of_int i)
  | Value.Float f ->
    Buffer.add_char buf tag_float;
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    if String.length s > 0xFFFF then invalid_arg "Codec: string longer than 65535 bytes";
    Buffer.add_char buf tag_str;
    Buffer.add_uint16_le buf (String.length s);
    Buffer.add_string buf s
  | Value.Bool true -> Buffer.add_char buf tag_true
  | Value.Bool false -> Buffer.add_char buf tag_false

let decode_value bytes ~pos =
  let p = !pos in
  if p >= Bytes.length bytes then sto ~code:"STO002" ~offset:p "truncated tuple: no value tag";
  let tag = Bytes.get bytes p in
  if tag = tag_null then begin
    pos := p + 1;
    Value.Null
  end
  else if tag = tag_int then begin
    need bytes (p + 1) 8 "int value";
    pos := p + 9;
    Value.Int (Int64.to_int (Bytes.get_int64_le bytes (p + 1)))
  end
  else if tag = tag_float then begin
    need bytes (p + 1) 8 "float value";
    pos := p + 9;
    Value.Float (Int64.float_of_bits (Bytes.get_int64_le bytes (p + 1)))
  end
  else if tag = tag_str then begin
    need bytes (p + 1) 2 "string length";
    let len = Bytes.get_uint16_le bytes (p + 1) in
    need bytes (p + 3) len "string value";
    pos := p + 3 + len;
    Value.Str (Bytes.sub_string bytes (p + 3) len)
  end
  else if tag = tag_true then begin
    pos := p + 1;
    Value.Bool true
  end
  else if tag = tag_false then begin
    pos := p + 1;
    Value.Bool false
  end
  else sto ~code:"STO001" ~offset:p "corrupt value tag %d" (Char.code tag)

let encode_tuple buf (t : Tuple.t) = Array.iter (encode_value buf) t

let check_tuple schema (t : Tuple.t) =
  let arity = Schema.arity schema in
  if Array.length t <> arity then
    invalid_arg
      (Printf.sprintf "Codec: tuple arity %d does not match the schema arity %d"
         (Array.length t) arity);
  Array.iteri
    (fun i v ->
      match Value.ty_of v with
      | None -> () (* NULL fits any column *)
      | Some ty ->
        let a = Schema.attr_at schema i in
        if ty <> a.Schema.ty then
          invalid_arg
            (Printf.sprintf "Codec: %s value in column %s (%s)" (Value.ty_to_string ty)
               (Schema.qualified_name a)
               (Value.ty_to_string a.Schema.ty)))
    t

let decode_tuple bytes ~pos ~arity = Array.init arity (fun _ -> decode_value bytes ~pos)

let value_bytes = function
  | Value.Null | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 3 + String.length s

let tuple_bytes (t : Tuple.t) = Array.fold_left (fun acc v -> acc + value_bytes v) 0 t

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

let[@inline never] plan_mismatch plan i tag p =
  let c = plan.columns.(i) in
  sto ~code:"STO003" ~offset:p "value tag %d in column %s (declared %s%s)" (Char.code tag)
    (column_name plan i) (Value.ty_to_string c.ty)
    (if c.non_null then ", non-NULL" else "")

(* Shared [Bool] cells so the hot decode loop never allocates for
   booleans or NULLs. *)
let v_true = Value.Bool true

let v_false = Value.Bool false

(* Interned small ints: dimension keys and flag-like measures dominate
   OLAP detail tables, so most [Tint] cells can reuse a preallocated
   cell instead of boxing a fresh [Value.Int] per decode.  [Value.t] is
   immutable, so physical sharing is unobservable. *)
let small_ints = Array.init 1024 (fun i -> Value.Int i)

let[@inline] v_int v =
  if v >= 0 && v < 1024 then Array.unsafe_get small_ints v else Value.Int v

(* Raw native-endian 64-bit load.  We bounds-check ourselves (with a
   structured STO002 instead of the stdlib's Invalid_argument), and the
   primitive's unboxed result feeds [Int64.to_int]/[float_of_bits]
   without materializing a boxed [int64] — the generic path pays that
   box on every numeric cell. *)
external unsafe_get64_ne : bytes -> int -> int64 = "%caml_bytes_get64u"

let[@inline] get64_le bytes q =
  if Sys.big_endian then Bytes.get_int64_le bytes q else unsafe_get64_ne bytes q

(* One tuple's cells, type-directed: [i] indexes the plan column, [q]
   the next undecoded byte.  Tail recursion keeps the position in a
   register instead of a heap ref, and [cols]/[slots]/[arity] ride
   along as arguments so the loop never reloads them through [plan].
   A cell whose slot is negative is skipped by its length, after the
   same tag and bounds checks a kept cell gets — a corrupt page fails
   identically whichever columns are read. *)
let rec decode_cells plan cols slots arity bytes len (out : Tuple.t) i q =
  if i >= arity then q
  else begin
    if q >= len then sto ~code:"STO002" ~offset:q "truncated tuple: no value tag";
    let tag = Bytes.unsafe_get bytes q in
    let c = Array.unsafe_get cols i in
    let s = Array.unsafe_get slots i in
    match c.ty with
    | Value.Tint ->
      if tag = tag_int then begin
        if q + 9 > len then need bytes (q + 1) 8 "int value";
        if s >= 0 then Array.unsafe_set out s (v_int (Int64.to_int (get64_le bytes (q + 1))));
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 9)
      end
      else if tag = tag_null && not c.non_null then
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
        (* out.(s) is already Null *)
      else plan_mismatch plan i tag q
    | Value.Tfloat ->
      if tag = tag_float then begin
        if q + 9 > len then need bytes (q + 1) 8 "float value";
        if s >= 0 then
          Array.unsafe_set out s (Value.Float (Int64.float_of_bits (get64_le bytes (q + 1))));
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 9)
      end
      else if tag = tag_null && not c.non_null then
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
      else plan_mismatch plan i tag q
    | Value.Tstring ->
      if tag = tag_str then begin
        need bytes (q + 1) 2 "string length";
        let slen = Bytes.get_uint16_le bytes (q + 1) in
        need bytes (q + 3) slen "string value";
        if s >= 0 then Array.unsafe_set out s (Value.Str (Bytes.sub_string bytes (q + 3) slen));
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 3 + slen)
      end
      else if tag = tag_null && not c.non_null then
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
      else plan_mismatch plan i tag q
    | Value.Tbool ->
      if tag = tag_true then begin
        if s >= 0 then Array.unsafe_set out s v_true;
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
      end
      else if tag = tag_false then begin
        if s >= 0 then Array.unsafe_set out s v_false;
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
      end
      else if tag = tag_null && not c.non_null then
        decode_cells plan cols slots arity bytes len out (i + 1) (q + 1)
      else plan_mismatch plan i tag q
  end

(* A row of [width] NULL cells.  [Array.make] is a C call; a literal
   allocates inline, which matters once per decoded row. *)
let[@inline] null_row width : Tuple.t =
  match width with
  | 1 -> [| Value.Null |]
  | 2 -> [| Value.Null; Value.Null |]
  | 3 -> [| Value.Null; Value.Null; Value.Null |]
  | 4 -> [| Value.Null; Value.Null; Value.Null; Value.Null |]
  | 5 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 6 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 7 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | _ -> Array.make width Value.Null

let decode_tuple_plan plan bytes ~pos =
  let cols = plan.columns in
  let out = null_row plan.width in
  pos := decode_cells plan cols plan.slots (Array.length cols) bytes (Bytes.length bytes) out 0 !pos;
  out

let decode_rows_plan plan bytes ~pos ~count =
  let len = Bytes.length bytes in
  let cols = plan.columns in
  let slots = plan.slots in
  let arity = Array.length cols in
  let width = plan.width in
  let rows : Tuple.t array = Array.make count [||] in
  let p = ref !pos in
  for r = 0 to count - 1 do
    let out = null_row width in
    p := decode_cells plan cols slots arity bytes len out 0 !p;
    Array.unsafe_set rows r out
  done;
  pos := !p;
  rows

let type_clash plan i ty =
  let a = Schema.attr_at plan.schema i in
  invalid_arg
    (Printf.sprintf "Codec: %s value in column %s (%s)" (Value.ty_to_string ty)
       (Schema.qualified_name a)
       (Value.ty_to_string a.Schema.ty))

let encode_tuple_plan plan buf (t : Tuple.t) =
  let cols = plan.columns in
  let arity = Array.length cols in
  if Array.length t <> arity then
    invalid_arg
      (Printf.sprintf "Codec: tuple arity %d does not match the schema arity %d"
         (Array.length t) arity);
  for i = 0 to arity - 1 do
    let c = Array.unsafe_get cols i in
    match Array.unsafe_get t i with
    | Value.Null ->
      if c.non_null then
        invalid_arg (Printf.sprintf "Codec: NULL in non-NULL column %s" (column_name plan i));
      Buffer.add_char buf tag_null
    | Value.Int v ->
      if c.ty <> Value.Tint then type_clash plan i Value.Tint;
      Buffer.add_char buf tag_int;
      Buffer.add_int64_le buf (Int64.of_int v)
    | Value.Float v ->
      if c.ty <> Value.Tfloat then type_clash plan i Value.Tfloat;
      Buffer.add_char buf tag_float;
      Buffer.add_int64_le buf (Int64.bits_of_float v)
    | Value.Str s ->
      if c.ty <> Value.Tstring then type_clash plan i Value.Tstring;
      if String.length s > 0xFFFF then invalid_arg "Codec: string longer than 65535 bytes";
      Buffer.add_char buf tag_str;
      Buffer.add_uint16_le buf (String.length s);
      Buffer.add_string buf s
    | Value.Bool b ->
      if c.ty <> Value.Tbool then type_clash plan i Value.Tbool;
      Buffer.add_char buf (if b then tag_true else tag_false)
  done
