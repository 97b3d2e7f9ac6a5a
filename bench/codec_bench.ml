(* The storage-codec benchmark: the reference page decoder
   ([Codec.decode_page_reference], the oracle: every segment by its own
   type byte, one [Value.t] at a time) vs the schema-compiled one
   ([Codec.decode_page], what every heap-file scan runs), measured as
   decode throughput over the same stored pages of the zoo detail
   tables (I and J); and a column-pruned scan (the two columns the
   paper's Fig. 3 query reads) vs the full scan of a netflow-shaped Flow
   heap file.

   The codec comparison decodes page images read once from the heap
   file, so the timed loops measure exactly the decode path.  Each
   decoder's rows are checked against the in-memory source (and thereby
   against the other decoder), so the speedup is only reported for
   equivalent decodes.  The pruned comparison runs through a buffer
   pool sized to hold every page, after a warmup scan faults them all
   in.

   Writes BENCH_codec.json; scripts/check.sh gates the speedup against
   the 1.3x acceptance floor, the pruned speedup against 2.3x, and both
   against the committed baseline. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module Hf = Subql_storage.Heap_file
module J = Subql_obs.Json

let trials = 9

let repeats = 8

(* Rows per second of two scans (each returns the rows it saw), timed
   in alternation: every trial times [repeats] runs of one side, then of
   the other, each after a full major collection, and each side keeps
   its best trial.  The minimum is the least-noise estimate of the pure
   decode cost, and alternating exposes both sides to the same machine
   load. *)
let rates scan_a scan_b =
  let rows_a = scan_a () and rows_b = scan_b () (* warmup; a pool scan faults every page in *) in
  let best_a = ref infinity and best_b = ref infinity in
  let time best scan =
    Gc.full_major ();
    let (), dt =
      Subql_obs.Clock.time (fun () ->
          for _ = 1 to repeats do
            ignore (scan ())
          done)
    in
    if dt < !best then best := dt
  in
  for _ = 1 to trials do
    time best_a scan_a;
    time best_b scan_b
  done;
  let per_sec rows best = float_of_int (rows * repeats) /. best in
  (per_sec rows_a !best_a, per_sec rows_b !best_b)

(* The data pages [Hf.write] lays down for [rel], read back byte for
   byte. *)
let stored_pages rel =
  let page_size = 8192 in
  let path = Filename.temp_file "subql_codec" ".heap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let hf = Hf.write ~path ~page_size rel in
      let n = Hf.pages hf in
      Hf.close hf;
      In_channel.with_open_bin path (fun ic ->
          Array.init n (fun i ->
              In_channel.seek ic (Int64.of_int ((i + 1) * page_size));
              let page = Bytes.create page_size in
              really_input ic page 0 page_size;
              page)))

(* A pool that holds every page, so timed scans measure decode only. *)
let resident_pool hf = Subql_storage.Buffer_pool.create ~frames:(Hf.pages hf + 8)

let drain ?columns hf pool =
  Chunk.Source.fold (fun n c -> n + Chunk.length c) 0 (Hf.source ?columns hf ~pool)

(* The Fig. 3 scan: Flow's SourceIP and NumBytes out of its seven
   columns (three strings, four ints), against the full decode of the
   same file; the pruned rows must equal the in-memory projection. *)
let pruned_columns = [| 0; 5 |]

let bench_pruned ~flows ~seed verified =
  let config =
    { Subql_workload.Netflow.default_config with n_flows = flows; seed }
  in
  let rel = Catalog.find (Subql_workload.Netflow.generate config) "Flow" in
  let path = Filename.temp_file "subql_codec_flow" ".heap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let hf = Hf.write ~path rel in
      let pool = resident_pool hf in
      let full, pruned =
        rates (fun () -> drain hf pool) (fun () -> drain ~columns:pruned_columns hf pool)
      in
      let expected = Array.map (fun t -> Tuple.project t pruned_columns) (Relation.rows rel) in
      let got = Chunk.Source.to_relation (Hf.source ~columns:pruned_columns hf ~pool) in
      Hf.close hf;
      if not (Array.length expected = Relation.cardinality got
              && Array.for_all2 Tuple.equal expected (Relation.rows got))
      then verified := false;
      let speedup = pruned /. full in
      Format.printf "  Flow %8d rows  full %10.0f rows/s  [SourceIP; NumBytes] %10.0f rows/s  %.2fx@."
        (Relation.cardinality rel) full pruned speedup;
      ( speedup,
        J.Obj
          [
            ("table", J.Str "Flow");
            ("rows", J.Int (Relation.cardinality rel));
            ("columns", J.List [ J.Str "SourceIP"; J.Str "NumBytes" ]);
            ("full_rows_per_sec", J.Float full);
            ("pruned_rows_per_sec", J.Float pruned);
            ("speedup", J.Float speedup);
          ] ))

let run (options : Figures.options) =
  let out = "BENCH_codec.json" in
  let inner = if options.Figures.full then 400_000 else 60_000 in
  let catalog = Zoo.catalog ~outer:64 ~inner ~seed:options.Figures.seed () in
  let verified = ref true in
  let bench_table name =
    let rel = Catalog.find catalog name in
    let pages = stored_pages rel in
    let arity = Schema.arity (Relation.schema rel) in
    let plan = Subql_storage.Codec.plan_of_schema (Relation.schema rel) in
    let generic page = Subql_storage.Codec.decode_page_reference ~arity page in
    let planned page = Subql_storage.Codec.decode_page plan page in
    let decode_all decode () = Array.fold_left (fun n page -> n + Array.length (decode page)) 0 pages in
    let generic_rate, specialized = rates (decode_all generic) (decode_all planned) in
    let rebuilt decode =
      Relation.create ~check:false (Relation.schema rel) (Array.concat (Array.to_list (Array.map decode pages)))
    in
    if
      not
        (Relation.equal_as_multiset (rebuilt generic) rel
        && Relation.equal_as_multiset (rebuilt planned) rel)
    then verified := false;
    let speedup = specialized /. generic_rate in
    Format.printf "  %-4s %8d rows  generic %10.0f rows/s  specialized %10.0f rows/s  %.2fx@."
      name (Relation.cardinality rel) generic_rate specialized speedup;
    J.Obj
      [
        ("table", J.Str name);
        ("rows", J.Int (Relation.cardinality rel));
        ("generic_rows_per_sec", J.Float generic_rate);
        ("specialized_rows_per_sec", J.Float specialized);
        ("speedup", J.Float speedup);
      ]
  in
  Format.printf "@.== codec bench: generic vs schema-specialized decode ==@.@.";
  let tables = List.map bench_table [ "I"; "J" ] in
  let speedup_of = function
    | J.Obj fields -> (
      match List.assoc "speedup" fields with J.Float f -> f | _ -> nan)
    | _ -> nan
  in
  let speedups = List.map speedup_of tables in
  (* The gated figure is the geometric mean across tables. *)
  let speedup =
    exp (List.fold_left (fun acc s -> acc +. log s) 0. speedups
        /. float_of_int (List.length speedups))
  in
  Format.printf "@.== codec bench: column-pruned vs full specialized scan ==@.@.";
  let pruned_speedup, pruned =
    bench_pruned ~flows:inner ~seed:options.Figures.seed verified
  in
  Format.printf "@.  overall speedup %.2fx, pruned speedup %.2fx (verified: %b)@." speedup
    pruned_speedup !verified;
  let doc =
    J.Obj
      [
        ("bench", J.Str "codec");
        ("full", J.Bool options.Figures.full);
        ("tables", J.List tables);
        ("speedup", J.Float speedup);
        ("pruned", pruned);
        ("pruned_speedup", J.Float pruned_speedup);
        ("verified", J.Bool !verified);
      ]
  in
  Out_channel.with_open_text out (fun oc -> J.to_channel oc doc);
  Format.printf "  wrote %s@.@." out
