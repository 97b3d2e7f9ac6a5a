(* Paged storage: tuple codec, heap files, buffer pool, and disk-resident
   GMDJ evaluation with exact I/O accounting. *)

open Subql_relational
open Subql_gmdj
open Subql_storage

let attr = Expr.attr

let tmp_path () = Filename.temp_file "subql_hf" ".dat"

(* --- Codec ------------------------------------------------------------- *)

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> Value.equal a b && Value.is_null a = Value.is_null b

let tuples_eq a b = Array.length a = Array.length b && Array.for_all2 value_eq a b

let rows_eq a b = Array.length a = Array.length b && Array.for_all2 tuples_eq a b

let schema_of tys =
  Schema.of_list (List.mapi (fun i ty -> Schema.attr (Printf.sprintf "c%d" i) ty) tys)

(* Pack [rows] the way a heap file does: greedy pages of [page_size]
   bytes, each returned as its exact image (filled to the last byte)
   with its rows. *)
let pack plan ~page_size rows =
  let fill = Codec.fill plan ~page_size in
  let pages = ref [] and first = ref 0 in
  let close_page upto =
    let image = Bytes.create (Codec.image_bytes fill) in
    Codec.encode_page plan rows ~off:!first ~len:(upto - !first) image;
    pages := (image, Array.sub rows !first (upto - !first)) :: !pages;
    first := upto;
    Codec.clear fill
  in
  Array.iteri
    (fun i row ->
      if not (Codec.add fill row) then begin
        if Codec.filled fill = 0 then failwith "row exceeds an empty page";
        close_page i;
        if not (Codec.add fill row) then failwith "row exceeds an empty page"
      end)
    rows;
  if Codec.filled fill > 0 then close_page (Array.length rows);
  List.rev !pages

let value_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return Value.Null);
        (3, map (fun i -> Value.Int i) int);
        (2, map (fun f -> Value.Float f) (float_range (-1e12) 1e12));
        (2, map (fun s -> Value.Str s) (string_size ~gen:char (int_range 0 40)));
        (1, map (fun b -> Value.Bool b) bool);
      ])

(* One tuple of any values as a one-row page, under the schema its
   values name (a NULL in an int column): both decoders return it, and
   the page's image size is exact — one byte less does not hold it. *)
let codec_roundtrip values =
  let tuple = Array.of_list values in
  let ty = function None -> Value.Tint | Some ty -> ty in
  let plan = Codec.plan_of_schema (schema_of (List.map (fun v -> ty (Value.ty_of v)) values)) in
  match pack plan ~page_size:1_000_000 [| tuple |] with
  | [ (image, _) ] ->
    let tight = Codec.fill plan ~page_size:(Bytes.length image - 1) in
    tuples_eq tuple (Codec.decode_page plan image).(0)
    && tuples_eq tuple (Codec.decode_page_reference ~arity:(Array.length tuple) image).(0)
    && not (Codec.add tight tuple)
  | _ -> false

let ty_gen = QCheck2.Gen.oneofl [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool ]

(* The longest string a cell holds, and a string segment's bytes. *)
let longest = String.make 65_535 'x'

let typed_value_gen ?(long = false) ~non_null ty =
  QCheck2.Gen.(
    let v =
      match ty with
      | Value.Tint -> map (fun i -> Value.Int i) (oneof [ int; int_range (-3) 1100 ])
      | Value.Tfloat -> map (fun f -> Value.Float f) (oneof [ float; float_range (-1e12) 1e12 ])
      | Value.Tstring ->
        frequency
          [
            (6, map (fun s -> Value.Str s) (string_size ~gen:char (int_range 0 12)));
            (2, return (Value.Str ""));
            ((if long then 1 else 0), return (Value.Str longest));
          ]
      | Value.Tbool -> map (fun b -> Value.Bool b) bool
    in
    if non_null then v else frequency [ (1, return Value.Null); (5, v) ])

(* A random schema (arity 1-6, some columns declared non-NULL) plus
   conforming rows, NULLs only where allowed. *)
let page_case_gen ?long ~max_rows () =
  QCheck2.Gen.(
    list_size (int_range 1 6) (pair ty_gen bool) >>= fun cols ->
    list_size (int_range 1 max_rows)
      (flatten_l (List.map (fun (ty, non_null) -> typed_value_gen ?long ~non_null ty) cols))
    >>= fun rows -> return (cols, List.map Array.of_list rows))

let plan_of_cols cols =
  Codec.plan_of_schema ~non_null:(Array.of_list (List.map snd cols)) (schema_of (List.map fst cols))

(* The page round trip: rows packed into pages of a random size come
   back from both decoders, from the exact image and from a zero-padded
   page; the pages are full (the next page's first row would not have
   fitted), no image exceeds the page size, and an image cut by one
   byte fails as truncated. *)
let page_roundtrip (page_size, (cols, rows)) =
  let plan = plan_of_cols cols in
  let rows = Array.of_list rows in
  (* At least the widest row's one-row page. *)
  let one_row r =
    let f = Codec.fill plan ~page_size:max_int in
    ignore (Codec.add f r);
    Codec.image_bytes f
  in
  let page_size = Array.fold_left (fun m r -> max m (one_row r)) page_size rows in
  let arity = List.length cols in
  let pages = pack plan ~page_size rows in
  let rec full = function
    | (image, page_rows) :: ((_, next) :: _ as rest) ->
      let f = Codec.fill plan ~page_size in
      Array.iter (fun r -> assert (Codec.add f r)) page_rows;
      assert (Codec.image_bytes f = Bytes.length image);
      (not (Codec.add f next.(0))) && full rest
    | _ -> true
  in
  let truncated_fails image =
    match Codec.decode_page plan (Bytes.sub image 0 (Bytes.length image - 1)) with
    | _ -> false
    | exception Diag.Fail d -> d.Diag.code = "STO002"
  in
  Array.concat (List.map snd pages) = rows
  && full pages
  && List.for_all
       (fun (image, page_rows) ->
         let padded = Bytes.make page_size '\000' in
         Bytes.blit image 0 padded 0 (Bytes.length image);
         Bytes.length image <= page_size
         && rows_eq page_rows (Codec.decode_page plan image)
         && rows_eq page_rows (Codec.decode_page plan padded)
         && rows_eq page_rows (Codec.decode_page_reference ~arity image)
         && truncated_fails image)
       pages

let page_roundtrip_gen =
  QCheck2.Gen.(pair (oneofl [ 64; 200; 4096 ]) (page_case_gen ~long:true ~max_rows:60 ()))

(* The plan decoder is a drop-in for the reference decoder on every
   page the packer lays down: the same tuples, cell for cell. *)
let plan_codec_agrees (cols, rows) =
  let plan = plan_of_cols cols in
  List.for_all
    (fun (image, _) ->
      rows_eq (Codec.decode_page_reference ~arity:(List.length cols) image) (Codec.decode_page plan image))
    (pack plan ~page_size:512 (Array.of_list rows))

(* A column-pruned plan decodes exactly the projection of the full
   decode. *)
let pruned_case_gen =
  QCheck2.Gen.(
    page_case_gen ~max_rows:40 () >>= fun (cols, rows) ->
    list_repeat (List.length cols) bool >>= fun mask -> return (cols, rows, mask))

let pruned_decode_is_projection (cols, rows, mask) =
  let keep = Array.of_list (List.filteri (fun i _ -> List.nth mask i) (List.mapi (fun i _ -> i) cols)) in
  let plan = plan_of_cols cols in
  List.for_all
    (fun (image, _) ->
      let full = Codec.decode_page plan image in
      let pruned = Codec.decode_page (Codec.project plan keep) image in
      Array.length full = Array.length pruned
      && Array.for_all2
           (fun f p -> Array.length p = Array.length keep && tuples_eq (Tuple.project f keep) p)
           full pruned)
    (pack plan ~page_size:300 (Array.of_list rows))

let expect_diag code f =
  match f () with
  | exception Subql_relational.Diag.Fail d ->
    Alcotest.(check string) "diagnostic code" code d.Subql_relational.Diag.code;
    d
  | _ -> Alcotest.failf "expected a %s failure" code

(* One page of rows under [tys], as its exact image. *)
let one_page ?non_null tys rows =
  let plan = Codec.plan_of_schema ?non_null (schema_of tys) in
  match pack plan ~page_size:4096 (Array.of_list rows) with
  | [ (image, _) ] -> (plan, image)
  | _ -> Alcotest.fail "expected one page"

(* Where segment [i] of a page starts: its directory entry's offset. *)
let segment_start page i = Int32.to_int (Bytes.get_int32_le page (2 + (5 * i) + 1))

let test_codec_structured_errors () =
  let int_plan, int_page = one_page [ Value.Tint ] [ [| Value.Int 7 |]; [| Value.Int 8 |] ] in
  let both code page =
    ignore (expect_diag code (fun () -> Codec.decode_page int_plan page));
    ignore (expect_diag code (fun () -> Codec.decode_page_reference ~arity:1 page))
  in
  (* Truncated: the directory, then the cells, run past the end. *)
  both "STO002" (Bytes.sub int_page 0 4);
  both "STO002" (Bytes.sub int_page 0 (Bytes.length int_page - 3));
  (* An unknown type byte is STO001 under either decoder. *)
  let patched page at s =
    let b = Bytes.copy page in
    Bytes.blit_string s 0 b at (String.length s);
    b
  in
  both "STO001" (patched int_page 2 "\250");
  both "STO001" (patched int_page 2 "\009");
  (* A segment that does not start where the directory ends. *)
  both "STO002" (patched int_page 3 "\001");
  (* The same faults in a string segment: a decreasing end offset, and
     an end offset past the page. *)
  let str_plan, str_page =
    one_page [ Value.Tint; Value.Tstring ] [ [| Value.Int 1; Value.Str "abcd" |]; [| Value.Int 2; Value.Str "ef" |] ]
  in
  let b_offsets = segment_start str_page 1 in
  let str_both code page =
    ignore (expect_diag code (fun () -> Codec.decode_page str_plan page));
    ignore (expect_diag code (fun () -> Codec.decode_page_reference ~arity:2 page))
  in
  str_both "STO002" (patched str_page b_offsets "\007\000");
  str_both "STO002" (patched str_page (b_offsets + 2) "\255\255");
  (* Type lie: an int segment decoded under a float column. *)
  let float_plan = Codec.plan_of_schema (schema_of [ Value.Tfloat ]) in
  ignore (expect_diag "STO003" (fun () -> Codec.decode_page float_plan int_page));
  (* A NULL under a non-NULL plan is corruption on decode and
     [Invalid_argument] when packed. *)
  let _, null_page = one_page [ Value.Tint ] [ [| Value.Int 1 |]; [| Value.Null |] ] in
  let nn_plan = Codec.plan_of_schema ~non_null:[| true |] (schema_of [ Value.Tint ]) in
  ignore (expect_diag "STO003" (fun () -> Codec.decode_page nn_plan null_page));
  (match Codec.add (Codec.fill nn_plan ~page_size:4096) [| Value.Null |] with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "packing message" "Codec: NULL in non-NULL column c0" msg
  | _ -> Alcotest.fail "NULL under a non-NULL plan must be rejected");
  (* A NULL-free page decodes under the non-NULL plan, and the nullable
     default accepts the NULL. *)
  Alcotest.(check bool) "non-NULL plan reads a NULL-free page" true
    (rows_eq [| [| Value.Int 7 |]; [| Value.Int 8 |] |] (Codec.decode_page nn_plan int_page));
  Alcotest.(check bool) "nullable plan accepts NULL" true
    (rows_eq [| [| Value.Int 1 |]; [| Value.Null |] |] (Codec.decode_page int_plan null_page))

(* --- Heap files ---------------------------------------------------------- *)

let mk_rel n =
  Relation.of_list
    (Schema.of_list
       [
         Schema.attr ~rel:"R" "k" Value.Tint;
         Schema.attr ~rel:"R" "name" Value.Tstring;
         Schema.attr ~rel:"R" "y" Value.Tint;
       ])
    (List.init n (fun i ->
         [|
           Value.Int (i mod 17);
           (if i mod 5 = 0 then Value.Null else Value.Str (Printf.sprintf "row-%d" i));
           Value.Int (i * 3);
         |]))

let with_file rel ?page_size f =
  let path = tmp_path () in
  let hf = Heap_file.write ~path ?page_size rel in
  Fun.protect
    ~finally:(fun () ->
      Heap_file.close hf;
      Sys.remove path)
    (fun () -> f path hf)

(* Every read is a [source]: the whole file as a relation, or its row
   count. *)
let read hf ~pool = Chunk.Source.to_relation (Heap_file.source hf ~pool)

let drain hf ~pool = Chunk.Source.fold (fun n c -> n + Chunk.length c) 0 (Heap_file.source hf ~pool)

let test_heap_roundtrip () =
  let rel = mk_rel 1000 in
  with_file rel ~page_size:512 (fun path hf ->
      Alcotest.(check int) "row count" 1000 (Heap_file.row_count hf);
      Alcotest.(check bool) "multiple pages" true (Heap_file.pages hf > 10);
      let pool = Buffer_pool.create ~frames:4 in
      Helpers.check_multiset_equal "write/scan roundtrip" rel (read hf ~pool);
      (* Reopen from disk and scan again. *)
      let reopened = Heap_file.openfile ~path ~schema:(Relation.schema rel) () in
      Helpers.check_multiset_equal "reopen roundtrip" rel (read reopened ~pool);
      Heap_file.close reopened)

let test_heap_errors () =
  let rel = mk_rel 3 in
  with_file rel (fun path hf ->
      ignore hf;
      (match
         Heap_file.openfile ~path
           ~schema:(Schema.of_list [ Schema.attr "only_one" Value.Tint ])
           ()
       with
      | exception Invalid_argument _ -> ()
      | hf2 ->
        Heap_file.close hf2;
        Alcotest.fail "arity mismatch must be rejected");
      let big =
        Relation.of_list
          (Schema.of_list [ Schema.attr "s" Value.Tstring ])
          [ [| Value.Str (String.make 600 'x') |] ]
      in
      match Heap_file.write ~path:(tmp_path ()) ~page_size:128 big with
      | exception Invalid_argument _ -> ()
      | hf2 ->
        Heap_file.close hf2;
        Alcotest.fail "oversized tuple must be rejected")

(* [write] packs through the append path, so it type-checks every row
   as it encodes it: a string in an int column is refused up front
   instead of producing a file whose every scan fails with STO003. *)
let test_write_rejects_mistyped_cell () =
  let rel = mk_rel 20 in
  let rows = Array.map Array.copy (Relation.rows rel) in
  rows.(13).(2) <- Value.Str "not an int";
  let bad = Relation.create ~check:false (Relation.schema rel) rows in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Heap_file.write ~path ~page_size:512 bad with
      | exception Invalid_argument msg ->
        Alcotest.(check string) "names the column" "Codec: string value in column R.y (int)" msg
      | hf ->
        let outcome =
          match read hf ~pool:(Buffer_pool.create ~frames:4) with
          | _ -> "scan succeeded"
          | exception Diag.Fail d -> "scan failed with " ^ d.Diag.code
        in
        Heap_file.close hf;
        Alcotest.failf "a mistyped cell must be rejected by write (%s)" outcome)

(* The data pages of a heap file, read byte for byte from disk. *)
let stored_pages path hf ~page_size =
  In_channel.with_open_bin path (fun ic ->
      List.init (Heap_file.pages hf) (fun page_no ->
          In_channel.seek ic (Int64.of_int ((page_no + 1) * page_size));
          let page = Bytes.create page_size in
          really_input ic page 0 page_size;
          page))

(* The reference decoder is the oracle of the plan decoder: on every
   page [write] lays down, [Codec.decode_page] under the handle's
   schema equals [Codec.decode_page_reference] cell for cell. *)
let test_plan_decode_matches_generic () =
  let rel = mk_rel 500 in
  let page_size = 512 in
  with_file rel ~page_size (fun path hf ->
      let plan = Codec.plan_of_schema (Relation.schema rel) in
      let arity = Schema.arity (Relation.schema rel) in
      let rows =
        List.mapi
          (fun page_no page ->
            let planned = Codec.decode_page plan page in
            Alcotest.(check bool)
              (Printf.sprintf "page %d: same tuples" page_no)
              true
              (rows_eq (Codec.decode_page_reference ~arity page) planned);
            Array.length planned)
          (stored_pages path hf ~page_size)
      in
      Alcotest.(check int) "every row decoded" (Relation.cardinality rel) (List.fold_left ( + ) 0 rows))

(* Overwrite [bytes] at [offset] of a file. *)
let patch_file path offset bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  Unix.close fd

(* The code a scan of the file at [path] fails with, [""] if none:
   every column, or only [columns]. *)
let scan_outcome ?columns path schema =
  let hf = Heap_file.openfile ~path ~schema () in
  Fun.protect
    ~finally:(fun () -> Heap_file.close hf)
    (fun () ->
      match Chunk.Source.to_relation (Heap_file.source ?columns hf ~pool:(Buffer_pool.create ~frames:4)) with
      | _ -> ""
      | exception Diag.Fail d -> d.Diag.code)

(* Corrupt the first segment's type byte on disk: the scan must refuse
   the page with a structured diagnostic that names the file and page,
   pruned or not. *)
let test_corrupt_page_is_diagnosed () =
  let rel = mk_rel 50 in
  with_file rel ~page_size:512 (fun path _hf ->
      (* The first data page lives at [page_size]; its directory starts
         right after the 2-byte row count with column 0's type byte. *)
      patch_file path 514 "\250";
      let hf = Heap_file.openfile ~path ~schema:(Relation.schema rel) () in
      let d =
        Fun.protect
          ~finally:(fun () -> Heap_file.close hf)
          (fun () -> expect_diag "STO001" (fun () -> drain hf ~pool:(Buffer_pool.create ~frames:4)))
      in
      Alcotest.(check bool) "names the page" true
        (List.mem (Printf.sprintf "%s: page 0" path) d.Diag.path);
      Alcotest.(check string) "a pruned scan fails alike" "STO001"
        (scan_outcome ~columns:[| 2 |] path (Relation.schema rel)))

(* Corrupt the segment of a column the scan skips: the pruned decode
   must fail with the full decode's diagnostic. *)
let test_corrupt_skipped_column () =
  let schema =
    Schema.of_list
      [
        Schema.attr ~rel:"R" "a" Value.Tint;
        Schema.attr ~rel:"R" "b" Value.Tstring;
        Schema.attr ~rel:"R" "c" Value.Tint;
      ]
  in
  let rel =
    Relation.of_list schema
      (List.init 40 (fun i -> [| Value.Int i; Value.Str "abcd"; Value.Int (i * 7) |]))
  in
  let page_size = 512 in
  (* Page 0's directory entry of b (type byte, then its start), and the
     end offset of its last string. *)
  let b_entry = page_size + 2 + 5 in
  let cases page =
    let n = Codec.page_rows page in
    let last_offset = page_size + segment_start page 1 + (2 * (n - 1)) in
    [
      ("unknown type byte", b_entry, "\250", "STO001");
      ("payload past the page end", last_offset, "\255\255", "STO002");
      ("type/column clash", b_entry, "\001", "STO003");
    ]
  in
  let page0 = with_file rel ~page_size (fun path hf -> List.hd (stored_pages path hf ~page_size)) in
  List.iter
    (fun (what, offset, bytes, expected) ->
      with_file rel ~page_size (fun path _hf ->
          patch_file path offset bytes;
          let full = scan_outcome path schema in
          Alcotest.(check string) (what ^ ": full decode") expected full;
          Alcotest.(check string)
            (what ^ ": pruned decode fails as the full one")
            full
            (scan_outcome ~columns:[| 0; 2 |] path schema)))
    (cases page0)

(* A file laid down in another layout is refused when opened. *)
let test_old_magic_is_refused () =
  with_file (mk_rel 20) (fun path _hf ->
      patch_file path 0 "SUBQLHF1";
      match Heap_file.openfile ~path ~schema:(Relation.schema (mk_rel 0)) () with
      | exception Invalid_argument msg ->
        Alcotest.(check string) "names the magic" "Heap_file.openfile: bad magic" msg
      | hf ->
        Heap_file.close hf;
        Alcotest.fail "a row-major file must be refused")

(* Only the listed columns are decoded, in order, under the narrowed
   schema — directly or through the source's narrowing capability. *)
let test_source_columns () =
  let rel = mk_rel 300 in
  with_file rel ~page_size:512 (fun _path hf ->
      let pool = Buffer_pool.create ~frames:4 in
      let expected =
        Relation.create
          (Schema.project (Relation.schema rel) [| 0; 2 |])
          (Array.map (fun t -> Tuple.project t [| 0; 2 |]) (Relation.rows rel))
      in
      let direct = Chunk.Source.to_relation (Heap_file.source ~columns:[| 0; 2 |] hf ~pool) in
      Alcotest.(check bool) "narrowed schema" true
        (Schema.equal (Relation.schema expected) (Relation.schema direct));
      Alcotest.(check bool) "projected rows, in order" true
        (Array.for_all2 Tuple.equal (Relation.rows expected) (Relation.rows direct));
      let narrowed =
        Chunk.Source.narrow (Heap_file.source hf ~pool) (lazy [| 0; 2 |])
        |> Chunk.Source.to_relation
      in
      Alcotest.(check bool) "narrowing capability" true
        (Array.for_all2 Tuple.equal (Relation.rows expected) (Relation.rows narrowed));
      (* Once pulled, a source keeps its columns. *)
      let src = Heap_file.source hf ~pool in
      ignore (Chunk.Source.next src);
      Alcotest.(check bool) "pulled source is not narrowed" true
        (Chunk.Source.narrow src (lazy [| 0 |]) == src);
      Chunk.Source.close src;
      match Heap_file.source ~columns:[| 2; 0 |] hf ~pool with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "unordered columns must be rejected")

(* The source delivers the written tuples in file order, and completes
   on a pool smaller than the file without growing past its frame
   budget. *)
let test_source_matches_scan () =
  let rel = mk_rel 1200 in
  with_file rel ~page_size:512 (fun _path hf ->
      let frames = 3 in
      Alcotest.(check bool) "file exceeds pool" true (Heap_file.pages hf > frames);
      let pool = Buffer_pool.create ~frames in
      let via_source =
        Chunk.Source.fold
          (fun acc chunk -> Chunk.fold (fun acc t -> t :: acc) acc chunk)
          [] (Heap_file.source hf ~pool)
        |> List.rev
      in
      Alcotest.(check int) "all rows delivered" 1200 (List.length via_source);
      Alcotest.(check bool) "source order is write order" true
        (List.for_all2 Tuple.equal (Array.to_list (Relation.rows rel)) via_source);
      Alcotest.(check bool) "pool stays within frames" true (Buffer_pool.resident pool <= frames))

(* --- Appends --------------------------------------------------------------- *)

let rows_of rel =
  let acc = ref [] in
  Relation.iter (fun t -> acc := t :: !acc) rel;
  Array.of_list (List.rev !acc)

let fresh_rows ~from n =
  Array.init n (fun i ->
      let i = from + i in
      [|
        Value.Int (i mod 17);
        (if i mod 5 = 0 then Value.Null else Value.Str (Printf.sprintf "row-%d" i));
        Value.Int (i * 3);
      |])

let test_append_roundtrip () =
  let rel = mk_rel 100 in
  with_file rel ~page_size:512 (fun path hf ->
      let pool = Buffer_pool.create ~frames:8 in
      (* Two batches: the first finishes inside the last page's free
         payload, the second spills onto fresh pages. *)
      let d1 = Heap_file.append hf (fresh_rows ~from:100 3) in
      let d2 = Heap_file.append hf (fresh_rows ~from:103 400) in
      Alcotest.(check int) "rows counted" 503 (Heap_file.row_count hf);
      Alcotest.(check int) "deltas counted" 3 d1.Heap_file.rows;
      Alcotest.(check int) "deltas counted 2" 400 d2.Heap_file.rows;
      let expected =
        Relation.of_list (Relation.schema rel)
          (Array.to_list (Array.append (rows_of rel) (fresh_rows ~from:100 403)))
      in
      Helpers.check_multiset_equal "grown file scans whole relation" expected (read hf ~pool);
      (* Reopen from disk: the rewritten header and tail persisted. *)
      let reopened = Heap_file.openfile ~path ~schema:(Relation.schema rel) () in
      Alcotest.(check int) "reopened row count" 503 (Heap_file.row_count reopened);
      Helpers.check_multiset_equal "reopen after append" expected (read reopened ~pool);
      Heap_file.close reopened)

let test_append_validates_batch () =
  let rel = mk_rel 10 in
  with_file rel ~page_size:512 (fun _path hf ->
      let bad_arity = [| [| Value.Int 1 |] |] in
      let bad_type =
        [| fresh_rows ~from:10 1 |> fun a -> a.(0) |> Array.copy |]
      in
      bad_type.(0).(2) <- Value.Str "not an int";
      (match Heap_file.append hf bad_arity with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "arity-invalid row must be rejected");
      (match Heap_file.append hf bad_type with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "type-invalid row must be rejected");
      (* The whole batch is checked before any page is written: a good
         prefix ahead of a bad row must not land either. *)
      let mixed = Array.append (fresh_rows ~from:10 2) bad_arity in
      (match Heap_file.append hf mixed with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "mixed batch must be rejected");
      Alcotest.(check int) "file untouched" 10 (Heap_file.row_count hf);
      let pool = Buffer_pool.create ~frames:4 in
      Helpers.check_multiset_equal "contents untouched" rel (read hf ~pool))

(* Regression: a pool that cached the last page before an append must
   not serve the stale image afterwards — the append packed new rows
   into that very page. *)
let test_append_invalidates_shared_pool () =
  let rel = mk_rel 100 in
  with_file rel ~page_size:512 (fun path hf ->
      let pool = Buffer_pool.create ~frames:64 in
      ignore (drain hf ~pool);
      let before = (Buffer_pool.stats pool).Buffer_pool.page_reads in
      let d = Heap_file.append hf (fresh_rows ~from:100 50) in
      Alcotest.(check bool) "append reuses the cached tail page" true
        (d.Heap_file.first_page < Heap_file.pages hf);
      (* All 150 rows visible through the same pool: the stale frames were
         dropped and re-read, the untouched prefix stayed cached. *)
      Alcotest.(check int) "no stale last-page image" 150 (drain hf ~pool);
      let after = (Buffer_pool.stats pool).Buffer_pool.page_reads in
      Alcotest.(check bool) "only the rewritten tail was re-read" true
        (after - before >= 1 && after - before < Heap_file.pages hf);
      (* A manual invalidate on an unrelated path is a no-op. *)
      Alcotest.(check int) "unrelated path untouched" 0
        (Buffer_pool.invalidate pool ~path:(path ^ ".other") ~from_page:0))

(* [source ~from:delta] streams exactly the appended rows, in append
   order — from inside the page the batch started in — narrows like a
   full scan, and keeps the snapshot of its creation: a row a later
   append packs into the snapshot's last page stays out of it. *)
let test_source_from_streams_exact_delta () =
  let rel = mk_rel 100 in
  with_file rel ~page_size:512 (fun _path hf ->
      let pool = Buffer_pool.create ~frames:8 in
      let batch = fresh_rows ~from:100 123 in
      let d = Heap_file.append hf batch in
      Alcotest.(check bool) "the batch starts inside a page" true (d.Heap_file.skip > 0);
      let collect src =
        Chunk.Source.fold (fun acc chunk -> Chunk.fold (fun acc t -> t :: acc) acc chunk) [] src
        |> List.rev
      in
      let src = Heap_file.source ~from:d hf ~pool in
      ignore (Heap_file.append hf (fresh_rows ~from:223 2));
      let streamed = collect src in
      Alcotest.(check int) "exactly the appended rows" (Array.length batch) (List.length streamed);
      Alcotest.(check bool) "in append order" true
        (List.for_all2 Tuple.equal (Array.to_list batch) streamed);
      let narrowed = collect (Heap_file.source ~columns:[| 2 |] ~from:d hf ~pool) in
      Alcotest.(check bool) "narrowed to the appended column" true
        (List.equal Tuple.equal
           (List.map (fun t -> Tuple.project t [| 2 |]) (Array.to_list (fresh_rows ~from:100 125)))
           narrowed))

(* A live scan snapshots the row count too: an append that packs rows
   into the snapshot's last page in place stays invisible to it. *)
let test_source_ignores_rows_appended_mid_scan () =
  let rel =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      (List.init 10 (fun i -> [| Value.Int i |]))
  in
  with_file rel ~page_size:64 (fun _path hf ->
      let pool = Buffer_pool.create ~frames:4 in
      let src = Heap_file.source hf ~pool in
      let first =
        match Chunk.Source.next src with Some c -> Chunk.length c | None -> 0
      in
      ignore (Heap_file.append hf (Array.init 3 (fun i -> [| Value.Int (100 + i) |])));
      let rest = Chunk.Source.fold (fun n c -> n + Chunk.length c) 0 src in
      Alcotest.(check int) "rows streamed" 10 (first + rest))

(* Batches that start inside a partly filled last page re-pack it: each
   one is visible through a pool that cached the old tail, [source
   ~from] streams exactly it, and the file ends byte for byte as one
   [write] of all the rows would lay it down. *)
let test_append_resumes_last_page () =
  let page_size = 512 in
  let rel = mk_rel 30 in
  with_file rel ~page_size (fun path hf ->
      let pool = Buffer_pool.create ~frames:8 in
      let collect src =
        Chunk.Source.fold (fun acc chunk -> Chunk.fold (fun acc t -> t :: acc) acc chunk) [] src
        |> List.rev
      in
      let all = ref (Array.to_list (rows_of rel)) in
      List.iteri
        (fun k n ->
          ignore (drain hf ~pool);
          let batch = fresh_rows ~from:(List.length !all) n in
          let d = Heap_file.append hf batch in
          Alcotest.(check bool) (Printf.sprintf "batch %d starts inside a page" k) true (d.Heap_file.skip > 0);
          all := !all @ Array.to_list batch;
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: the shared pool sees every row" k)
            true
            (List.equal Tuple.equal !all (collect (Heap_file.source hf ~pool)));
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: source ~from streams it" k)
            true
            (List.equal Tuple.equal (Array.to_list batch) (collect (Heap_file.source ~from:d hf ~pool))))
        [ 1; 2; 5; 40; 3 ];
      let once = Relation.of_list (Relation.schema rel) !all in
      with_file once ~page_size (fun once_path once_hf ->
          Alcotest.(check int) "as many pages as one write" (Heap_file.pages once_hf) (Heap_file.pages hf);
          Alcotest.(check bool) "the same pages as one write" true
            (List.equal Bytes.equal
               (stored_pages once_path once_hf ~page_size)
               (stored_pages path hf ~page_size))))

(* --- Buffer pool ---------------------------------------------------------- *)

let test_pool_caching () =
  let rel = mk_rel 2000 in
  with_file rel ~page_size:512 (fun _path hf ->
      let n_pages = Heap_file.pages hf in
      (* Pool larger than the file: the second scan is all hits. *)
      let pool = Buffer_pool.create ~frames:(n_pages + 4) in
      ignore (drain hf ~pool);
      let cold = Buffer_pool.stats pool in
      Alcotest.(check int) "cold scan reads every page" n_pages cold.Buffer_pool.page_reads;
      (* [stats] is a snapshot: the cold-scan copy must not change... *)
      ignore (drain hf ~pool);
      Alcotest.(check int) "snapshot unaffected by warm scan" 0 cold.Buffer_pool.hits;
      (* ...while a fresh snapshot sees the warm scan. *)
      let warm = Buffer_pool.stats pool in
      Alcotest.(check int) "warm scan reads nothing" n_pages warm.Buffer_pool.page_reads;
      Alcotest.(check int) "warm scan hits every page" n_pages warm.Buffer_pool.hits;
      Alcotest.(check (float 1e-9)) "hit rate is hits over accesses" 0.5
        (Buffer_pool.hit_rate pool);
      (* Pool smaller than the file: sequential scans miss every page but
         never grow beyond the frame budget. *)
      let small = Buffer_pool.create ~frames:4 in
      ignore (drain hf ~pool:small);
      ignore (drain hf ~pool:small);
      let s = Buffer_pool.stats small in
      Alcotest.(check int) "bounded residency" 4 (Buffer_pool.resident small);
      Alcotest.(check int) "two cold scans" (2 * n_pages) s.Buffer_pool.page_reads;
      Alcotest.(check bool) "evictions happened" true (s.Buffer_pool.evictions > 0))

(* A miss on a full pool refills its victim's buffer: a cold scan of an
   N-page file through F frames allocates F page buffers, not N. *)
let test_pool_recycles_frames () =
  with_file (mk_rel 2000) ~page_size:512 (fun _path hf ->
      let frames = 4 in
      let pool = Buffer_pool.create ~frames in
      Alcotest.(check bool) "file exceeds pool" true (Heap_file.pages hf > 2 * frames);
      ignore (drain hf ~pool);
      let s = Buffer_pool.stats pool in
      Alcotest.(check int) "every page read" (Heap_file.pages hf) s.Buffer_pool.page_reads;
      Alcotest.(check bool)
        (Printf.sprintf "%d buffers for %d pages" s.Buffer_pool.allocations (Heap_file.pages hf))
        true
        (s.Buffer_pool.allocations <= frames))

(* Two files of different page sizes interleaved through one 2-frame
   pool: a victim's buffer is only reused for a page of its own size,
   and both scans return their exact rows. *)
let test_pool_mixed_page_sizes () =
  let a = mk_rel 400 and b = mk_rel 250 in
  with_file a ~page_size:512 (fun _ ha ->
      with_file b ~page_size:256 (fun _ hb ->
          let pool = Buffer_pool.create ~frames:2 in
          let sa = Heap_file.source ha ~pool and sb = Heap_file.source hb ~pool in
          let out_a = ref [] and out_b = ref [] in
          let pull src out =
            match Chunk.Source.next src with
            | Some c ->
              Chunk.iter (fun t -> out := t :: !out) c;
              true
            | None -> false
          in
          let rec go () =
            let more_a = pull sa out_a in
            let more_b = pull sb out_b in
            if more_a || more_b then go ()
          in
          go ();
          let same rel got =
            let got = List.rev got in
            List.length got = Relation.cardinality rel
            && List.for_all2 Tuple.equal (Array.to_list (Relation.rows rel)) got
          in
          Alcotest.(check bool) "512-byte file intact" true (same a !out_a);
          Alcotest.(check bool) "256-byte file intact" true (same b !out_b)))

(* The pool against a naive exact-LRU model over random fetches and
   invalidations: two files (one path opened twice, so two identities),
   two page sizes, one to four frames.  After every step the stats,
   the residency and the bytes a fetch returns agree. *)
type pool_op = Fetch of int * int | Invalidate of int * int

let pool_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map2 (fun f p -> Fetch (f, p)) (int_range 0 2) (int_range 0 5));
        (1, map2 (fun f p -> Invalidate (f, p)) (int_range 0 2) (int_range 0 5));
      ])

let pool_matches_model (frames, ops) =
  let paths = [| "pool-a"; "pool-a"; "pool-b" |] and sizes = [| 16; 16; 32 |] in
  let files = Array.map Buffer_pool.file paths in
  let pool = Buffer_pool.create ~frames in
  (* The model: resident (file, page, buffer size), most recent first. *)
  let lru = ref [] and reads = ref 0 and hits = ref 0 and evictions = ref 0 and allocations = ref 0 in
  let step op =
    match op with
    | Fetch (f, p) ->
      let got =
        Buffer_pool.fetch pool files.(f) ~page:p ~size:sizes.(f) ~load:(fun b ->
            Bytes.fill b 0 (Bytes.length b) (Char.chr ((16 * f) + p)))
      in
      (match List.partition (fun (f', p', _) -> f' = f && p' = p) !lru with
      | [ hit ], rest ->
        incr hits;
        lru := hit :: rest
      | _ ->
        incr reads;
        let victim_size =
          if List.length !lru < frames then None
          else begin
            let rev = List.rev !lru in
            let _, _, size = List.hd rev in
            lru := List.rev (List.tl rev);
            incr evictions;
            Some size
          end
        in
        if victim_size <> Some sizes.(f) then incr allocations;
        lru := (f, p, sizes.(f)) :: !lru);
      Bytes.length got = sizes.(f) && Bytes.for_all (fun c -> c = Char.chr ((16 * f) + p)) got
    | Invalidate (f, from_page) ->
      let dropped, kept =
        List.partition (fun (f', p', _) -> paths.(f') = paths.(f) && p' >= from_page) !lru
      in
      lru := kept;
      Buffer_pool.invalidate pool ~path:paths.(f) ~from_page = List.length dropped
  in
  List.for_all
    (fun op ->
      let ok = step op in
      let s = Buffer_pool.stats pool in
      ok
      && s.Buffer_pool.page_reads = !reads
      && s.Buffer_pool.hits = !hits
      && s.Buffer_pool.evictions = !evictions
      && s.Buffer_pool.allocations = !allocations
      && Buffer_pool.resident pool = List.length !lru)
    ops

(* --- Paged GMDJ ------------------------------------------------------------ *)

let gmdj_base =
  Relation.of_list
    (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
    (List.init 17 (fun i -> [| Value.Int i |]))

let gmdj_blocks =
  [
    Gmdj.block
      [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
      (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    Gmdj.block
      [ Aggregate.max_ (attr ~rel:"R" "y") "mx" ]
      (Expr.and_
         (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"))
         (Expr.Is_not_null (attr ~rel:"R" "name")));
  ]

(* GMDJ with the detail paged through the buffer pool, one pass per
   evaluation. *)
let gmdj_over_file ?stats ?completion ?(domains = 1) ~pool ~base hf blocks =
  Gmdj.eval ?stats ?completion ~domains ~base (Heap_file.source hf ~pool) blocks

let test_gmdj_over_file_equivalence () =
  let rel = mk_rel 3000 in
  with_file rel ~page_size:1024 (fun _path hf ->
      let pool = Buffer_pool.create ~frames:8 in
      let on_disk = gmdj_over_file ~pool ~base:gmdj_base hf gmdj_blocks in
      let in_memory = Gmdj.reference ~base:gmdj_base ~detail:(Relation.rename "R" rel) gmdj_blocks in
      Helpers.check_multiset_equal "paged = in-memory" in_memory on_disk)

let test_coalescing_halves_io () =
  let rel = mk_rel 3000 in
  with_file rel ~page_size:512 (fun _path hf ->
      let n_pages = Heap_file.pages hf in
      let b1 = [ List.nth gmdj_blocks 0 ] and b2 = [ List.nth gmdj_blocks 1 ] in
      (* Chained (un-coalesced) GMDJs: two scans of the detail file. *)
      let pool = Buffer_pool.create ~frames:4 in
      let chained =
        List.fold_left (fun base blocks -> gmdj_over_file ~pool ~base hf blocks) gmdj_base [ b1; b2 ]
      in
      Alcotest.(check int) "two scans" (2 * n_pages)
        (Buffer_pool.stats pool).Buffer_pool.page_reads;
      (* Coalesced: one scan. *)
      let pool = Buffer_pool.create ~frames:4 in
      let coalesced = gmdj_over_file ~pool ~base:gmdj_base hf gmdj_blocks in
      Alcotest.(check int) "one scan" n_pages (Buffer_pool.stats pool).Buffer_pool.page_reads;
      Helpers.check_multiset_equal "same answers" chained coalesced)

(* A completion over an empty base is decided before the scan: at any
   domain count it counts no detail pass and reads no page. *)
let test_empty_base_completion_reads_nothing () =
  with_file (mk_rel 3000) ~page_size:512 (fun _path hf ->
      let base = Relation.empty (Relation.schema gmdj_base) in
      let completion =
        {
          Gmdj.kill_when = [];
          require_fired = [ (List.hd gmdj_blocks).Gmdj.theta ];
          maintain_aggregates = true;
        }
      in
      let run domains =
        let pool = Buffer_pool.create ~frames:4 in
        let stats = Gmdj.fresh_stats () in
        let out = gmdj_over_file ~stats ~completion ~domains ~pool ~base hf gmdj_blocks in
        Alcotest.(check int) "no rows" 0 (Relation.cardinality out);
        Alcotest.(check int)
          (Printf.sprintf "%d domains: no page read" domains)
          0 (Buffer_pool.stats pool).Buffer_pool.page_reads;
        stats
      in
      let serial = run 1 and parallel = run 2 in
      Alcotest.(check int) "equal detail passes" serial.Gmdj.detail_passes
        parallel.Gmdj.detail_passes;
      Alcotest.(check int) "no detail pass" 0 parallel.Gmdj.detail_passes;
      Alcotest.(check bool) "equal early exit" serial.Gmdj.early_exit parallel.Gmdj.early_exit)

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          Helpers.qtest ~count:300 "tuple roundtrip"
            (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 8) value_gen)
            codec_roundtrip;
          Helpers.qtest ~count:200
            "page roundtrip: every type, NULLs, non-NULL plans, 64 KiB strings, full pages"
            page_roundtrip_gen page_roundtrip;
          Helpers.qtest ~count:300 "specialized plan agrees with the generic codec"
            (page_case_gen ~max_rows:60 ()) plan_codec_agrees;
          Alcotest.test_case "corruption raises structured diagnostics" `Quick
            test_codec_structured_errors;
          Helpers.qtest ~count:300 "pruned decode is the projection of the full decode"
            pruned_case_gen pruned_decode_is_projection;
        ] );
      ( "heap-file",
        [
          Alcotest.test_case "write/scan/reopen" `Quick test_heap_roundtrip;
          Alcotest.test_case "validation" `Quick test_heap_errors;
          Alcotest.test_case "write rejects a mistyped cell" `Quick
            test_write_rejects_mistyped_cell;
          Alcotest.test_case "plan decode = generic decode on stored pages" `Quick
            test_plan_decode_matches_generic;
          Alcotest.test_case "a corrupt page names its file and page" `Quick
            test_corrupt_page_is_diagnosed;
          Alcotest.test_case "source matches scan on a small pool" `Quick
            test_source_matches_scan;
          Alcotest.test_case "column-pruned source" `Quick test_source_columns;
          Alcotest.test_case "a corrupt skipped column fails as when read" `Quick
            test_corrupt_skipped_column;
          Alcotest.test_case "a file of the old layout is refused" `Quick test_old_magic_is_refused;
        ] );
      ( "append",
        [
          Alcotest.test_case "append grows pages and survives reopen" `Quick
            test_append_roundtrip;
          Alcotest.test_case "batch is schema-checked before writing" `Quick
            test_append_validates_batch;
          Alcotest.test_case "shared pool never serves a stale tail" `Quick
            test_append_invalidates_shared_pool;
          Alcotest.test_case "source ~from streams exactly the delta" `Quick
            test_source_from_streams_exact_delta;
          Alcotest.test_case "a live source ignores rows appended mid-scan" `Quick
            test_source_ignores_rows_appended_mid_scan;
          Alcotest.test_case "appends re-pack a partly filled last page" `Quick
            test_append_resumes_last_page;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "caching and eviction" `Quick test_pool_caching;
          Alcotest.test_case "a cold scan recycles its frames" `Quick test_pool_recycles_frames;
          Alcotest.test_case "mixed page sizes share a pool" `Quick test_pool_mixed_page_sizes;
          Helpers.qtest ~count:500 "stats equal an exact-LRU model"
            QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 0 60) pool_op_gen))
            pool_matches_model;
        ] );
      ( "paged-gmdj",
        [
          Alcotest.test_case "matches in-memory evaluation" `Quick test_gmdj_over_file_equivalence;
          Alcotest.test_case "coalescing halves page I/O" `Quick test_coalescing_halves_io;
          Alcotest.test_case "empty-base completion reads no page" `Quick
            test_empty_base_completion_reads_nothing;
        ] );
    ]
