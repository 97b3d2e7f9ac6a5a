open Subql_relational

let magic = "SUBQLHF3"

(* magic, page size, arity, row count, data pages, dictionary pages,
   the first dictionary page *)
let header_bytes = 8 + 4 + 2 + 8 + 4 + 4 + 4

let row_count_offset = 14

type t = {
  path : string;
  fd : Unix.file_descr;
  schema : Schema.t;
  plan : Codec.plan;  (** compiled once per open; every page is encoded and decoded through it *)
  file : Buffer_pool.file;  (** this handle's pages in every pool *)
  page_size : int;
  writable : bool;
  fill : Codec.fill;  (** every append packs through it *)
  page : bytes;  (** the page an append reads, encodes and writes through *)
  mutable dicts : bytes;  (** the dictionary pages, laid down for one write *)
  mutable stored_sizes : int array;
      (** the dictionary sizes the header's dictionary pages hold; [[||]]
          when an append failed part way and they are not known *)
  mutable pages : int;
  mutable dict_start : int;  (** the first dictionary page *)
  mutable dict_pages : int;
  mutable dict_bound : int;
      (** the page after every dictionary page a header named or an
          append wrote *)
  mutable row_count : int;
}

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

let really_write fd buf n =
  let rec loop off =
    if off < n then loop (off + Unix.write fd buf off (n - off))
  in
  loop 0

let close t = Unix.close t.fd

let path t = t.path

let schema t = t.schema

let pages t = t.pages

let row_count t = t.row_count

let plan t = t.plan

let read_page_into t page_no buf =
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_read t.fd buf

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

(* The first [count] pages of [buf], from page [page_no] on. *)
let write_pages_at t page_no buf ~count =
  ignore (Unix.lseek t.fd ((page_no + 1) * t.page_size) Unix.SEEK_SET);
  really_write t.fd buf (count * t.page_size)

(* The header's counts — rows, data pages, dictionary pages — and where
   the dictionary pages start. *)
let write_counts t =
  let b = Bytes.create 20 in
  Bytes.set_int64_le b 0 (Int64.of_int t.row_count);
  Bytes.set_int32_le b 8 (Int32.of_int t.pages);
  Bytes.set_int32_le b 12 (Int32.of_int t.dict_pages);
  Bytes.set_int32_le b 16 (Int32.of_int t.dict_start);
  ignore (Unix.lseek t.fd row_count_offset Unix.SEEK_SET);
  really_write t.fd b (Bytes.length b)

(* Write the dictionary pages past every data page the append leaves
   ([above]) and every dictionary page a header may name, then name
   them in the header: the dictionary pages the header named before
   stay intact until it no longer names them, so an append cut short
   leaves them readable.  They go an eighth of the data past its end,
   so the appends that follow grow into the gap rather than move them
   each time. *)
let move_dictionaries t ~above =
  let size = t.page_size in
  let count = ref 0 in
  ignore
    (Codec.dictionary_pages t.plan t.page ~emit:(fun page ->
         if Bytes.length t.dicts < (!count + 1) * size then t.dicts <- Bytes.extend t.dicts 0 size;
         Bytes.blit page 0 t.dicts (!count * size) size;
         incr count));
  let start = max (above + (above / 8)) t.dict_bound in
  t.dict_bound <- start + !count;
  write_pages_at t start t.dicts ~count:!count;
  t.dict_start <- start;
  t.dict_pages <- !count;
  write_counts t;
  t.stored_sizes <- Codec.dictionary_sizes t.plan

(* The one page-packing loop.  The current last page is resumed from
   its stored image — its codes and segments as they stand — and the
   batch fills it and fresh ones.  Every row is type-checked, coded and
   every page boundary chosen ({!Codec.add}) before any page is
   written, so a malformed row leaves the file untouched and its
   dictionaries as they were.  Then the dictionaries move when they
   grew or the data grows over them, the fresh pages are written, the
   resumed page last, and then the header's counts; every live buffer
   pool drops its frames for the rewritten tail, so no pool — shared or
   not — can serve the pre-append last-page image afterwards.  Until
   the resumed page is written no page the header names has changed, so
   a write that fails before then forgets the batch's codes too. *)
let append t rows =
  if not t.writable then invalid_arg "Heap_file.append: file opened read-only";
  if Array.length rows > 0 then begin
    let page = t.page and fill = t.fill in
    let first_page = if t.pages = 0 then 0 else t.pages - 1 in
    Codec.reset fill;
    let resumed =
      if t.pages = 0 then 0
      else begin
        read_page_into t first_page page;
        Codec.resume fill page
      end
    in
    let sizes = Codec.dictionary_sizes t.plan in
    let too_big () = invalid_arg "Heap_file: tuple exceeds the page payload" in
    (* [starts]: the first row of every page after the first, counting
       the resumed rows ahead of the batch. *)
    let starts = ref [] in
    (try
       Array.iteri
         (fun i row ->
           if not (Codec.add fill row) then begin
             if Codec.filled fill = 0 then too_big ();
             starts := (resumed + i) :: !starts;
             Codec.clear fill;
             if not (Codec.add fill row) then too_big ()
           end)
         rows
     with e ->
       Codec.truncate_dictionaries t.plan sizes;
       raise e);
    let bounds = Array.of_list (List.rev ((resumed + Array.length rows) :: !starts)) in
    let last = Array.length bounds - 1 in
    let pages = first_page + last + 1 in
    let write_page k =
      let off = if k = 0 then 0 else bounds.(k - 1) in
      Codec.encode_page fill rows ~off ~len:(bounds.(k) - off) page;
      write_pages_at t (first_page + k) page ~count:1
    in
    match
      if Codec.dictionary_sizes t.plan <> t.stored_sizes || (t.dict_pages > 0 && pages > t.dict_start)
      then move_dictionaries t ~above:pages;
      for k = 1 to last do
        write_page k
      done;
      write_page 0
    with
    | () ->
      t.pages <- pages;
      t.row_count <- t.row_count + Array.length rows;
      ignore (Buffer_pool.invalidate_all ~path:t.path ~from_page:first_page);
      write_counts t
    | exception e ->
      (* The header may name the moved dictionary pages or the old ones:
         the next append moves them again, past both. *)
      Codec.truncate_dictionaries t.plan sizes;
      t.stored_sizes <- [||];
      ignore (Buffer_pool.invalidate_all ~path:t.path ~from_page:first_page);
      raise e
  end

let write ~path ?(page_size = 8192) rel =
  if page_size < 64 then invalid_arg "Heap_file.write: page size too small";
  let schema = Relation.schema rel in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let header = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 header 0 8;
  Bytes.set_int32_le header 8 (Int32.of_int page_size);
  Bytes.set_uint16_le header 12 (Schema.arity schema);
  let plan = Codec.plan_of_schema schema in
  let t =
    {
      path;
      fd;
      schema;
      plan;
      file = Buffer_pool.file path;
      page_size;
      writable = true;
      fill = Codec.fill plan ~page_size;
      page = Bytes.create page_size;
      dicts = Bytes.create page_size;
      stored_sizes = Codec.dictionary_sizes plan;
      pages = 0;
      dict_start = 0;
      dict_pages = 0;
      dict_bound = 0;
      row_count = 0;
    }
  in
  match
    really_write fd header page_size;
    append t (Relation.rows rel)
  with
  | () -> t
  | exception e ->
    close t;
    raise e

let openfile ~path ?(writable = false) ~schema () =
  let flags = if writable then [ Unix.O_RDWR ] else [ Unix.O_RDONLY ] in
  let fd = Unix.openfile path flags 0 in
  match
    let header = Bytes.create header_bytes in
    really_read fd header;
    if Bytes.sub_string header 0 8 <> magic then invalid_arg "Heap_file.openfile: bad magic";
    let page_size = Int32.to_int (Bytes.get_int32_le header 8) in
    let arity = Bytes.get_uint16_le header 12 in
    if arity <> Schema.arity schema then
      invalid_arg "Heap_file.openfile: stored arity does not match the schema";
    let plan = Codec.plan_of_schema schema in
    let dict_pages = Int32.to_int (Bytes.get_int32_le header 26) in
    let dict_start = Int32.to_int (Bytes.get_int32_le header 30) in
    let t =
      {
        path;
        fd;
        schema;
        plan;
        file = Buffer_pool.file path;
        page_size;
        writable;
        fill = Codec.fill plan ~page_size;
        page = Bytes.create page_size;
        dicts = Bytes.create page_size;
        stored_sizes = [||];
        pages = Int32.to_int (Bytes.get_int32_le header 22);
        dict_start;
        dict_pages;
        dict_bound = dict_start + dict_pages;
        row_count = Int64.to_int (Bytes.get_int64_le header row_count_offset);
      }
    in
    for d = 0 to t.dict_pages - 1 do
      read_page_into t (t.dict_start + d) t.page;
      try Codec.load_dictionary_page t.plan t.page
      with Diag.Fail e ->
        raise
          (Diag.Fail
             { e with Diag.path = Printf.sprintf "%s: dictionary page %d" path d :: e.Diag.path })
    done;
    t.stored_sizes <- Codec.dictionary_sizes plan;
    t
  with
  | t -> t
  | exception e ->
    Unix.close fd;
    raise e

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

(* Decode one page under [plan] — the handle's own, or a projection of
   it.  The pool's bytes are only valid until its next fetch, so the
   kept segments are copied out here, into the chunk's vectors. *)
let decode_page plan t page_no ~len ~pool =
  let page =
    Buffer_pool.fetch pool t.file ~page:page_no ~size:t.page_size ~load:(read_page_into t page_no)
  in
  try Codec.decode_chunk plan ~len page
  with Diag.Fail d ->
    (* A corrupt segment names only its byte offset; say which file and
       page it came from before the error escapes the storage layer. *)
    raise (Diag.Fail { d with Diag.path = Printf.sprintf "%s: page %d" t.path page_no :: d.Diag.path })

(* The one page-reading loop: the first [rows] rows of the file,
   stopping before page [pages] and decoding the stored columns
   [columns] (all of them when [None]).  Its narrowing capability
   composes positions onto [columns]. *)
let rec snapshot t ~pool ~pages ~rows columns =
  let plan = match columns with None -> t.plan | Some cols -> Codec.project t.plan cols in
  let narrow cols =
    let cols = match columns with None -> cols | Some outer -> Array.map (Array.get outer) cols in
    snapshot t ~pool ~pages ~rows (Some cols)
  in
  let page_no = ref 0 in
  let left = ref rows in
  let rec pull () =
    if !page_no >= pages || !left <= 0 then None
    else begin
      let chunk = decode_page plan t !page_no ~len:!left ~pool in
      incr page_no;
      let len = Chunk.length chunk in
      left := !left - len;
      if len = 0 then pull () else Some chunk
    end
  in
  Chunk.Source.create ~narrow ~schema:plan.Codec.decoded pull

let source ?columns t ~pool =
  (* Snapshot the page and row counts: an append after the source is
     created — even one that packs rows into the snapshot's last page
     in place — is not part of this scan (statement-level snapshot
     semantics). *)
  snapshot t ~pool ~pages:t.pages ~rows:t.row_count columns
