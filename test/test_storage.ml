(* Paged storage: tuple codec, heap files, buffer pool, and disk-resident
   GMDJ evaluation with exact I/O accounting. *)

open Subql_relational
open Subql_gmdj
open Subql_storage

let attr = Expr.attr

let tmp_path () = Filename.temp_file "subql_hf" ".dat"

(* --- Codec ------------------------------------------------------------- *)

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

let codec_roundtrip values =
  let buf = Buffer.create 64 in
  let tuple = Array.of_list values in
  Codec.encode_tuple buf tuple;
  let bytes = Buffer.to_bytes buf in
  let pos = ref 0 in
  let decoded = Codec.decode_tuple bytes ~pos ~arity:(Array.length tuple) in
  !pos = Bytes.length bytes
  && Bytes.length bytes = Codec.tuple_bytes tuple
  && Array.length decoded = Array.length tuple
  && Array.for_all2
       (fun a b ->
         match a, b with
         | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
         | _ -> Value.equal a b && Value.is_null a = Value.is_null b)
       tuple decoded

(* --- Schema-compiled codec plans --------------------------------------- *)

let value_eq a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> Value.equal a b && Value.is_null a = Value.is_null b

let ty_gen = QCheck2.Gen.oneofl [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool ]

let typed_value_gen ty =
  QCheck2.Gen.(
    let v =
      match ty with
      | Value.Tint -> map (fun i -> Value.Int i) int
      | Value.Tfloat -> map (fun f -> Value.Float f) (float_range (-1e12) 1e12)
      | Value.Tstring -> map (fun s -> Value.Str s) (string_size ~gen:char (int_range 0 12))
      | Value.Tbool -> map (fun b -> Value.Bool b) bool
    in
    frequency [ (1, return Value.Null); (5, v) ])

(* A random schema (arity 1-6) plus schema-conformant rows with NULLs. *)
let plan_case_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6) ty_gen >>= fun tys ->
    list_size (int_range 1 10) (flatten_l (List.map typed_value_gen tys)) >>= fun rows ->
    return (tys, List.map Array.of_list rows))

(* The specialized codec must be a drop-in for the generic one on
   schema-conformant data: byte-identical encodings, and every decode
   path returns the original tuples. *)
let plan_codec_agrees (tys, rows) =
  let schema =
    Schema.of_list (List.mapi (fun i ty -> Schema.attr (Printf.sprintf "c%d" i) ty) tys)
  in
  let plan = Codec.plan_of_schema schema in
  let generic = Buffer.create 256 in
  let planned = Buffer.create 256 in
  List.iter (Codec.encode_tuple generic) rows;
  List.iter (Codec.encode_tuple_plan plan planned) rows;
  let bytes = Buffer.to_bytes generic in
  let same_bytes = Buffer.contents generic = Buffer.contents planned in
  let tuples_eq a b = Array.length a = Array.length b && Array.for_all2 value_eq a b in
  let pos = ref 0 in
  let batch = Codec.decode_rows_plan plan bytes ~pos ~count:(List.length rows) in
  let batch_ok =
    !pos = Bytes.length bytes && List.for_all2 tuples_eq rows (Array.to_list batch)
  in
  let pos = ref 0 in
  let one_ok =
    List.for_all (fun row -> tuples_eq row (Codec.decode_tuple_plan plan bytes ~pos)) rows
  in
  same_bytes && batch_ok && one_ok

(* A column-pruned plan decodes exactly the projection of the full
   decode, and ends at the same byte offset. *)
let pruned_case_gen =
  QCheck2.Gen.(
    plan_case_gen >>= fun (tys, rows) ->
    list_repeat (List.length tys) bool >>= fun mask -> return (tys, rows, mask))

let pruned_decode_is_projection (tys, rows, mask) =
  let schema =
    Schema.of_list (List.mapi (fun i ty -> Schema.attr (Printf.sprintf "c%d" i) ty) tys)
  in
  let keep =
    Array.of_list (List.filteri (fun i _ -> List.nth mask i) (List.mapi (fun i _ -> i) tys))
  in
  let plan = Codec.plan_of_schema schema in
  let buf = Buffer.create 256 in
  List.iter (Codec.encode_tuple_plan plan buf) rows;
  let bytes = Buffer.to_bytes buf in
  let count = List.length rows in
  let full_pos = ref 0 and pruned_pos = ref 0 in
  let full = Codec.decode_rows_plan plan bytes ~pos:full_pos ~count in
  let pruned = Codec.decode_rows_plan (Codec.project plan keep) bytes ~pos:pruned_pos ~count in
  !full_pos = !pruned_pos
  && Array.for_all2
       (fun f p -> Array.length p = Array.length keep && Array.for_all2 value_eq (Tuple.project f keep) p)
       full pruned

let expect_diag code f =
  match f () with
  | exception Subql_relational.Diag.Fail d ->
    Alcotest.(check string) "diagnostic code" code d.Subql_relational.Diag.code;
    d
  | _ -> Alcotest.failf "expected a %s failure" code

let test_codec_structured_errors () =
  let int_schema = Schema.of_list [ Schema.attr "n" Value.Tint ] in
  let int_plan = Codec.plan_of_schema int_schema in
  (* Truncated payload: an int tag with only two payload bytes. *)
  let truncated = Bytes.of_string "\001\042\000" in
  ignore (expect_diag "STO002" (fun () -> Codec.decode_value truncated ~pos:(ref 0)));
  ignore (expect_diag "STO002" (fun () -> Codec.decode_tuple_plan int_plan truncated ~pos:(ref 0)));
  (* Unknown tag byte: generic says STO001, the plan reports the clash
     against the declared column (STO003). *)
  let bad_tag = Bytes.of_string "\250" in
  ignore (expect_diag "STO001" (fun () -> Codec.decode_value bad_tag ~pos:(ref 0)));
  ignore (expect_diag "STO003" (fun () -> Codec.decode_tuple_plan int_plan bad_tag ~pos:(ref 0)));
  (* The same faults in the middle of a tuple, under the generic tuple
     decoder: an unknown tag is STO001, a string length running past
     the end of the bytes is STO002. *)
  let tuple_bytes = Buffer.create 32 in
  Codec.encode_tuple tuple_bytes [| Value.Int 1; Value.Str "abcd"; Value.Int 7 |];
  let corrupt at patch =
    let b = Buffer.to_bytes tuple_bytes in
    Bytes.blit_string patch 0 b at (String.length patch);
    fun () -> Codec.decode_tuple b ~pos:(ref 0) ~arity:3
  in
  ignore (expect_diag "STO001" (corrupt 9 "\250"));
  ignore (expect_diag "STO002" (corrupt 10 "\255\255"));
  (* Type lie: stored int bytes decoded under a float column. *)
  let buf = Buffer.create 16 in
  Codec.encode_tuple buf [| Value.Int 7 |];
  let int_bytes = Buffer.to_bytes buf in
  let float_plan = Codec.plan_of_schema (Schema.of_list [ Schema.attr "n" Value.Tfloat ]) in
  ignore (expect_diag "STO003" (fun () -> Codec.decode_tuple_plan float_plan int_bytes ~pos:(ref 0)));
  (* A NULL under a non-NULL plan is corruption on decode and
     [Invalid_argument] on encode. *)
  let nn_plan = Codec.plan_of_schema ~non_null:[| true |] int_schema in
  let buf = Buffer.create 16 in
  Codec.encode_tuple buf [| Value.Null |];
  let null_bytes = Buffer.to_bytes buf in
  ignore (expect_diag "STO003" (fun () -> Codec.decode_tuple_plan nn_plan null_bytes ~pos:(ref 0)));
  (match Codec.encode_tuple_plan nn_plan (Buffer.create 16) [| Value.Null |] with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "encode message" "Codec: NULL in non-NULL column n" msg
  | () -> Alcotest.fail "NULL under a non-NULL plan must be rejected");
  (* The nullable default accepts the NULL. *)
  Alcotest.(check bool) "nullable plan accepts NULL" true
    (Codec.decode_tuple_plan int_plan null_bytes ~pos:(ref 0) = [| Value.Null |])

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

(* The generic decoder is the oracle of the plan decoder: on every page
   [write] lays down, [Codec.decode_rows_plan] under the handle's
   schema equals [Codec.decode_tuple] cell for cell, and both end at the
   same byte offset. *)
let test_plan_decode_matches_generic () =
  let rel = mk_rel 500 in
  let page_size = 512 in
  with_file rel ~page_size (fun path hf ->
      let plan = Codec.plan_of_schema (Relation.schema rel) in
      let arity = Schema.arity (Relation.schema rel) in
      let ic = open_in_bin path in
      let rows = ref 0 in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          for page_no = 0 to Heap_file.pages hf - 1 do
            seek_in ic ((page_no + 1) * page_size);
            let page = Bytes.create page_size in
            really_input ic page 0 page_size;
            let count = Bytes.get_uint16_le page 0 in
            let plan_pos = ref 2 and generic_pos = ref 2 in
            let planned = Codec.decode_rows_plan plan page ~pos:plan_pos ~count in
            let generic = Array.init count (fun _ -> Codec.decode_tuple page ~pos:generic_pos ~arity) in
            Alcotest.(check int) (Printf.sprintf "page %d: same end offset" page_no) !generic_pos !plan_pos;
            Alcotest.(check bool)
              (Printf.sprintf "page %d: same tuples" page_no)
              true
              (Array.for_all2 (Array.for_all2 value_eq) generic planned);
            rows := !rows + count
          done);
      Alcotest.(check int) "every row decoded" (Relation.cardinality rel) !rows)

(* Flip one stored tag byte on disk: the scan must refuse the page with
   a structured diagnostic that names the file and page. *)
let test_corrupt_page_is_diagnosed () =
  let rel = mk_rel 50 in
  with_file rel ~page_size:512 (fun path _hf ->
      (* First data page lives at [page_size]; its first tuple's first
         tag byte sits right after the 2-byte tuple count. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 514 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\250') 0 1);
      Unix.close fd;
      let hf = Heap_file.openfile ~path ~schema:(Relation.schema rel) () in
      let d =
        Fun.protect
          ~finally:(fun () -> Heap_file.close hf)
          (fun () -> expect_diag "STO003" (fun () -> drain hf ~pool:(Buffer_pool.create ~frames:4)))
      in
      Alcotest.(check bool) "names the page" true
        (List.mem (Printf.sprintf "%s: page 0" path) d.Diag.path))

(* Corrupt a cell of a column the scan skips: the pruned decode must
   fail with the full decode's diagnostic. *)
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
  (* Row 0 of page 0: the 2-byte tuple count, then a's 9 bytes, then
     b's tag byte and its 16-bit length. *)
  let b_tag = 512 + 2 + 9 in
  let cases =
    [
      ("unknown tag", b_tag, "\250", "STO003");
      ("payload past the page end", b_tag + 1, "\255\255", "STO002");
      ("tag/column clash", b_tag, "\001", "STO003");
    ]
  in
  List.iter
    (fun (what, offset, bytes, expected) ->
      with_file rel ~page_size:512 (fun path _hf ->
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
          ignore (Unix.lseek fd offset Unix.SEEK_SET);
          ignore (Unix.write_substring fd bytes 0 (String.length bytes));
          Unix.close fd;
          let outcome columns =
            let hf = Heap_file.openfile ~path ~schema () in
            Fun.protect
              ~finally:(fun () -> Heap_file.close hf)
              (fun () ->
                match
                  Chunk.Source.to_relation
                    (Heap_file.source ?columns hf ~pool:(Buffer_pool.create ~frames:4))
                with
                | _ -> ""
                | exception Diag.Fail d -> d.Diag.code)
          in
          let full = outcome None in
          Alcotest.(check string) (what ^ ": full decode") expected full;
          Alcotest.(check string)
            (what ^ ": pruned decode fails as the full one")
            full
            (outcome (Some [| 0; 2 |]))))
    cases

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
          Helpers.qtest ~count:300 "specialized plan agrees with the generic codec" plan_case_gen
            plan_codec_agrees;
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
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "caching and eviction" `Quick test_pool_caching;
          Alcotest.test_case "a cold scan recycles its frames" `Quick test_pool_recycles_frames;
          Alcotest.test_case "mixed page sizes share a pool" `Quick test_pool_mixed_page_sizes;
        ] );
      ( "paged-gmdj",
        [
          Alcotest.test_case "matches in-memory evaluation" `Quick test_gmdj_over_file_equivalence;
          Alcotest.test_case "coalescing halves page I/O" `Quick test_coalescing_halves_io;
          Alcotest.test_case "empty-base completion reads no page" `Quick
            test_empty_base_completion_reads_nothing;
        ] );
    ]
