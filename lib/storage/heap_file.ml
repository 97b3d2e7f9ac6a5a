open Subql_relational

let magic = "SUBQLHF1"

let header_bytes = 8 + 4 + 2 + 8 (* magic, page_size, arity, row_count *)

let row_count_offset = 14

type t = {
  path : string;
  fd : Unix.file_descr;
  schema : Schema.t;
  plan : Codec.plan;  (** compiled once per open; drives the Specialized paths *)
  mode : Codec.mode;
  page_size : int;
  writable : bool;
  mutable pages : int;
  mutable row_count : int;
}

type delta = { first_page : int; skip : int; rows : int }

let really_read fd buf =
  let n = Bytes.length buf in
  let rec loop off =
    if off < n then begin
      let k = Unix.read fd buf off (n - off) in
      if k = 0 then invalid_arg "Heap_file: unexpected end of file";
      loop (off + k)
    end
  in
  loop 0

let really_write fd buf =
  let n = Bytes.length buf in
  let rec loop off =
    if off < n then loop (off + Unix.write fd buf off (n - off))
  in
  loop 0

let write ~path ?(page_size = 8192) ?(codec = Codec.Specialized) rel =
  if page_size < 64 then invalid_arg "Heap_file.write: page size too small";
  let payload = page_size - 2 in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* Header page. *)
  let header = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 header 0 8;
  Bytes.set_int32_le header 8 (Int32.of_int page_size);
  Bytes.set_uint16_le header 12 (Schema.arity (Relation.schema rel));
  Bytes.set_int64_le header row_count_offset (Int64.of_int (Relation.cardinality rel));
  really_write fd header;
  (* Data pages: greedy packing. *)
  let buf = Buffer.create page_size in
  let count = ref 0 in
  let pages = ref 0 in
  let flush_page () =
    if !count > 0 then begin
      let page = Bytes.make page_size '\000' in
      Bytes.set_uint16_le page 0 !count;
      Bytes.blit_string (Buffer.contents buf) 0 page 2 (Buffer.length buf);
      really_write fd page;
      Buffer.clear buf;
      count := 0;
      incr pages
    end
  in
  Relation.iter
    (fun row ->
      let size = Codec.tuple_bytes row in
      if size > payload then
        invalid_arg "Heap_file.write: tuple exceeds the page payload";
      if Buffer.length buf + size > payload then flush_page ();
      Codec.encode_tuple buf row;
      incr count)
    rel;
  flush_page ();
  {
    path;
    fd;
    schema = Relation.schema rel;
    plan = Codec.plan_of_schema (Relation.schema rel);
    mode = codec;
    page_size;
    writable = true;
    pages = !pages;
    row_count = Relation.cardinality rel;
  }

let openfile ~path ?(writable = false) ?(codec = Codec.Specialized) ~schema () =
  let flags = if writable then [ Unix.O_RDWR ] else [ Unix.O_RDONLY ] in
  let fd = Unix.openfile path flags 0 in
  let header = Bytes.create header_bytes in
  really_read fd header;
  if Bytes.sub_string header 0 8 <> magic then
    invalid_arg "Heap_file.openfile: bad magic";
  let page_size = Int32.to_int (Bytes.get_int32_le header 8) in
  let arity = Bytes.get_uint16_le header 12 in
  let row_count = Int64.to_int (Bytes.get_int64_le header row_count_offset) in
  if arity <> Schema.arity schema then
    invalid_arg "Heap_file.openfile: stored arity does not match the schema";
  let file_bytes = (Unix.fstat fd).Unix.st_size in
  let pages = (file_bytes / page_size) - 1 in
  {
    path;
    fd;
    schema;
    plan = Codec.plan_of_schema schema;
    mode = codec;
    page_size;
    writable;
    pages;
    row_count;
  }

let close t = Unix.close t.fd

let path t = t.path

let schema t = t.schema

let codec_mode t = t.mode

let pages t = t.pages

let row_count t = t.row_count

let read_page_into t page_no buf =
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_read t.fd buf

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

let write_page_at t page_no ~count buf =
  let page = Bytes.make t.page_size '\000' in
  Bytes.set_uint16_le page 0 count;
  Bytes.blit_string (Buffer.contents buf) 0 page 2 (Buffer.length buf);
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_write t.fd page

let write_row_count t =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int t.row_count);
  ignore (Unix.lseek t.fd row_count_offset Unix.SEEK_SET);
  really_write t.fd b

(* Shared append core: [feed emit] must call [emit] once per new row, in
   order.  Rows are packed into the last existing page first (its live
   payload is re-read from disk and extended), then into fresh pages.
   The header row count is rewritten and every live buffer pool drops
   its frames for the rewritten tail, so no pool — shared or not — can
   serve the pre-append last-page image afterwards. *)
let append_feed t feed =
  if not t.writable then invalid_arg "Heap_file.append: file opened read-only";
  let payload = t.page_size - 2 in
  let buf = Buffer.create t.page_size in
  let first_page = if t.pages = 0 then 0 else t.pages - 1 in
  let page_no = ref first_page in
  let count = ref 0 in
  let skip = ref 0 in
  if t.pages > 0 then begin
    (* Resume packing inside the current last page: decode its tuples to
       find the live payload prefix, then keep it verbatim. *)
    let page = Bytes.create t.page_size in
    read_page_into t (t.pages - 1) page;
    let n = Bytes.get_uint16_le page 0 in
    let pos = ref 2 in
    for _ = 1 to n do
      match t.mode with
      | Codec.Specialized -> ignore (Codec.decode_tuple_plan t.plan page ~pos)
      | Codec.Generic -> ignore (Codec.decode_tuple page ~pos ~arity:(Schema.arity t.schema))
    done;
    Buffer.add_subbytes buf page 2 (!pos - 2);
    count := n;
    skip := n
  end;
  let appended = ref 0 in
  let flush () =
    write_page_at t !page_no ~count:!count buf;
    Buffer.clear buf;
    count := 0;
    incr page_no
  in
  feed (fun row ->
      let size = Codec.tuple_bytes row in
      if size > payload then invalid_arg "Heap_file.append: tuple exceeds the page payload";
      if Buffer.length buf + size > payload then flush ();
      (match t.mode with
      | Codec.Specialized -> Codec.encode_tuple_plan t.plan buf row
      | Codec.Generic -> Codec.encode_tuple_checked buf t.schema row);
      incr count;
      incr appended);
  if !appended > 0 then begin
    if !count > 0 then begin
      write_page_at t !page_no ~count:!count buf;
      incr page_no
    end;
    t.pages <- !page_no;
    t.row_count <- t.row_count + !appended;
    write_row_count t;
    ignore (Buffer_pool.invalidate_all ~path:t.path ~from_page:first_page)
  end;
  { first_page; skip = !skip; rows = !appended }

let append t rows =
  (* Validate the whole batch before touching any page: a mid-batch
     encoding failure must not leave half-written tail pages behind. *)
  Array.iter (Codec.check_tuple t.schema) rows;
  append_feed t (fun emit -> Array.iter emit rows)

let append_source t source = append_feed t (fun emit -> Chunk.Source.iter (Chunk.iter emit) source)

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

(* Decode one page under [plan] — the handle's own, or a projection of
   it.  The pool's bytes are only valid until its next fetch, so the
   page is fully decoded here.  [Generic] decodes every cell (it is the
   oracle) and projects afterwards. *)
let decode_page ?plan t page_no ~pool =
  let plan = Option.value plan ~default:t.plan in
  let page =
    Buffer_pool.fetch pool ~key:(t.path, page_no) ~size:t.page_size
      ~load:(read_page_into t page_no)
  in
  let n = Bytes.get_uint16_le page 0 in
  let pos = ref 2 in
  try
    match t.mode with
    | Codec.Specialized -> Codec.decode_rows_plan plan page ~pos ~count:n
    | Codec.Generic ->
      let arity = Schema.arity t.schema in
      let rows = Array.init n (fun _ -> Codec.decode_tuple page ~pos ~arity) in
      if plan.Codec.width = arity then rows
      else
        Array.map
          (fun row ->
            let out = Array.make plan.Codec.width Value.Null in
            Array.iteri (fun c k -> if k >= 0 then out.(k) <- row.(c)) plan.Codec.slots;
            out)
          rows
  with Diag.Fail d ->
    (* A corrupt cell names only its byte offset; say which file and
       page it came from before the error escapes the storage layer. *)
    raise (Diag.Fail { d with Diag.path = Printf.sprintf "%s: page %d" t.path page_no :: d.Diag.path })

let scan_pages t ~pool f =
  for page_no = 0 to t.pages - 1 do
    f (decode_page t page_no ~pool)
  done

let scan t ~pool f = scan_pages t ~pool (fun rows -> Array.iter f rows)

(* A scan of the first [rows] rows on the first [pages] pages, decoding
   the stored columns [columns] (all of them when [None]).  Its
   narrowing capability composes positions onto [columns]. *)
let rec snapshot_source t ~pool ~pages ~rows columns =
  let plan, schema =
    match columns with
    | None -> (t.plan, t.schema)
    | Some cols -> (Codec.project t.plan cols, Schema.project t.schema cols)
  in
  let narrow cols =
    let cols = match columns with None -> cols | Some outer -> Array.map (Array.get outer) cols in
    snapshot_source t ~pool ~pages ~rows (Some cols)
  in
  let page_no = ref 0 in
  let left = ref rows in
  Chunk.Source.create ~narrow ~schema (fun () ->
      if !page_no >= pages || !left <= 0 then None
      else begin
        let decoded = decode_page ~plan t !page_no ~pool in
        incr page_no;
        let len = min (Array.length decoded) !left in
        left := !left - len;
        Some (Chunk.of_array ~len schema decoded)
      end)

let source ?columns t ~pool =
  (* Snapshot the page and row counts: an append after the source is
     created — even one that packs rows into the snapshot's last page
     in place — is not part of this scan (statement-level snapshot
     semantics). *)
  snapshot_source t ~pool ~pages:t.pages ~rows:t.row_count columns

let source_range t ~pool ~first_page ~skip =
  if first_page < 0 || skip < 0 then invalid_arg "Heap_file.source_range: negative position";
  let limit = t.pages in
  let page_no = ref first_page in
  let first = ref true in
  Chunk.Source.create ~schema:t.schema (fun () ->
      let rec pull () =
        if !page_no >= limit then None
        else begin
          let rows = decode_page t !page_no ~pool in
          let off = if !first then min skip (Array.length rows) else 0 in
          first := false;
          incr page_no;
          let len = Array.length rows - off in
          if len <= 0 then pull () else Some (Chunk.of_array ~off ~len t.schema rows)
        end
      in
      pull ())

let to_relation t ~pool =
  let out = Vec.create ~capacity:(max 1 t.row_count) ~dummy:Tuple.empty () in
  scan_pages t ~pool (fun rows -> Vec.blit rows 0 out (Vec.length out) (Array.length rows));
  Relation.create ~check:false t.schema (Vec.to_array out)
