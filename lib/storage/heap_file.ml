open Subql_relational

let magic = "SUBQLHF2"

let header_bytes = 8 + 4 + 2 + 8 (* magic, page_size, arity, row_count *)

let row_count_offset = 14

type t = {
  path : string;
  fd : Unix.file_descr;
  schema : Schema.t;
  plan : Codec.plan;  (** compiled once per open; every page is encoded and decoded through it *)
  file : Buffer_pool.file;  (** this handle's pages in every pool *)
  page_size : int;
  writable : bool;
  mutable pages : int;
  mutable row_count : int;
}

type delta = { first_page : int; skip : int; first_row : int; rows : int }

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

let close t = Unix.close t.fd

let path t = t.path

let schema t = t.schema

let pages t = t.pages

let row_count t = t.row_count

let read_page_into t page_no buf =
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_read t.fd buf

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let write_page_at t page_no page =
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_write t.fd page

let write_row_count t =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int t.row_count);
  ignore (Unix.lseek t.fd row_count_offset Unix.SEEK_SET);
  really_write t.fd b

(* The one page-packing loop.  The rows of the current last page are
   decoded and packed again ahead of the batch, then the batch fills
   that page and fresh ones.  Every row is type-checked and every page
   boundary chosen ({!Codec.add}) before any page is written, so a
   malformed row leaves the file untouched.  The header row count is
   rewritten and every live buffer pool drops its frames for the
   rewritten tail, so no pool — shared or not — can serve the
   pre-append last-page image afterwards. *)
let append t rows =
  if not t.writable then invalid_arg "Heap_file.append: file opened read-only";
  let page = Bytes.create t.page_size in
  let first_page = if t.pages = 0 then 0 else t.pages - 1 in
  if t.pages > 0 then read_page_into t first_page page;
  let skip = if t.pages = 0 then 0 else Codec.page_rows page in
  let resumed = if skip = 0 || Array.length rows = 0 then [||] else Codec.decode_page t.plan page in
  let all = Array.append resumed rows in
  let fill = Codec.fill t.plan ~page_size:t.page_size in
  let too_big () = invalid_arg "Heap_file: tuple exceeds the page payload" in
  (* [starts]: the first row of every page after the first. *)
  let starts = ref [] in
  Array.iteri
    (fun i row ->
      if not (Codec.add fill row) then begin
        if Codec.filled fill = 0 then too_big ();
        starts := i :: !starts;
        Codec.clear fill;
        if not (Codec.add fill row) then too_big ()
      end)
    all;
  let delta = { first_page; skip; first_row = t.row_count; rows = Array.length rows } in
  if delta.rows > 0 then begin
    let bounds = Array.of_list (List.rev (Array.length all :: !starts)) in
    Array.iteri
      (fun k stop ->
        let off = if k = 0 then 0 else bounds.(k - 1) in
        Codec.encode_page t.plan all ~off ~len:(stop - off) page;
        write_page_at t (first_page + k) page)
      bounds;
    t.pages <- first_page + Array.length bounds;
    t.row_count <- t.row_count + delta.rows;
    write_row_count t;
    ignore (Buffer_pool.invalidate_all ~path:t.path ~from_page:first_page)
  end;
  delta

let write ~path ?(page_size = 8192) rel =
  if page_size < 64 then invalid_arg "Heap_file.write: page size too small";
  let schema = Relation.schema rel in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let header = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 header 0 8;
  Bytes.set_int32_le header 8 (Int32.of_int page_size);
  Bytes.set_uint16_le header 12 (Schema.arity schema);
  let t =
    {
      path;
      fd;
      schema;
      plan = Codec.plan_of_schema schema;
      file = Buffer_pool.file path;
      page_size;
      writable = true;
      pages = 0;
      row_count = 0;
    }
  in
  match
    really_write fd header;
    append t (Relation.rows rel)
  with
  | _ -> t
  | exception e ->
    close t;
    raise e

let openfile ~path ?(writable = false) ~schema () =
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
    file = Buffer_pool.file path;
    page_size;
    writable;
    pages;
    row_count;
  }

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

(* Decode one page under [plan] — the handle's own, or a projection of
   it.  The pool's bytes are only valid until its next fetch, so the
   page is fully decoded here. *)
let decode_page plan t page_no ~pool =
  let page =
    Buffer_pool.fetch pool t.file ~page:page_no ~size:t.page_size ~load:(read_page_into t page_no)
  in
  try Codec.decode_page plan page
  with Diag.Fail d ->
    (* A corrupt segment names only its byte offset; say which file and
       page it came from before the error escapes the storage layer. *)
    raise (Diag.Fail { d with Diag.path = Printf.sprintf "%s: page %d" t.path page_no :: d.Diag.path })

(* The one page-reading loop: [rows] rows from page [page] on, less the
   first [skip] rows of that page, stopping before page [pages] and
   decoding the stored columns [columns] (all of them when [None]).
   Its narrowing capability composes positions onto [columns]. *)
let rec snapshot t ~pool ~page ~skip ~pages ~rows columns =
  let plan, schema =
    match columns with
    | None -> (t.plan, t.schema)
    | Some cols -> (Codec.project t.plan cols, Schema.project t.schema cols)
  in
  let narrow cols =
    let cols = match columns with None -> cols | Some outer -> Array.map (Array.get outer) cols in
    snapshot t ~pool ~page ~skip ~pages ~rows (Some cols)
  in
  let page_no = ref page in
  let skip = ref skip in
  let left = ref rows in
  let rec pull () =
    if !page_no >= pages || !left <= 0 then None
    else begin
      let decoded = decode_page plan t !page_no ~pool in
      incr page_no;
      let off = min !skip (Array.length decoded) in
      skip := 0;
      let len = min (Array.length decoded - off) !left in
      left := !left - len;
      if len = 0 then pull () else Some (Chunk.of_array ~off ~len schema decoded)
    end
  in
  Chunk.Source.create ~narrow ~schema pull

let source ?columns ?from t ~pool =
  (* Snapshot the page and row counts: an append after the source is
     created — even one that packs rows into the snapshot's last page
     in place — is not part of this scan (statement-level snapshot
     semantics). *)
  let page, skip, first_row =
    match from with None -> (0, 0, 0) | Some d -> (d.first_page, d.skip, d.first_row)
  in
  snapshot t ~pool ~page ~skip ~pages:t.pages ~rows:(t.row_count - first_row) columns
