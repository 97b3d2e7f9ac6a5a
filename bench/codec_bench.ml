(* The storage-codec benchmark: generic per-cell tag dispatch vs the
   schema-compiled decode plan, measured as scan-decode throughput over
   the zoo detail tables (I and J) resident in heap files.

   The buffer pool is sized to hold every page, and a warmup scan
   faults them all in, so the timed scans measure exactly the decode
   path — the I/O and pool-lookup costs are identical in both modes.
   Each mode's result relation is checked against the in-memory source
   (and thereby against the other mode), so the speedup is only
   reported for byte-equivalent decodes.

   Writes BENCH_codec.json; scripts/check.sh gates the speedup against
   the 1.3x acceptance floor and the committed baseline. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module Hf = Subql_storage.Heap_file
module J = Subql_obs.Json

let trials = 5

let repeats = 8

let scan_rows hf pool =
  let n = ref 0 in
  Hf.scan hf ~pool (fun _ -> incr n);
  !n

(* Best-of-[trials] wall time for [repeats] full scans: the minimum is
   the least-noise estimate of the pure decode cost. *)
let measure ~path ~schema ~codec =
  let hf = Hf.openfile ~path ~codec ~schema () in
  let pool = Subql_storage.Buffer_pool.create ~frames:(Hf.pages hf + 8) in
  let rows = scan_rows hf pool (* warmup: faults every page into the pool *) in
  let best = ref infinity in
  for _ = 1 to trials do
    let (), dt =
      Subql_obs.Clock.time (fun () ->
          for _ = 1 to repeats do
            ignore (scan_rows hf pool)
          done)
    in
    if dt < !best then best := dt
  done;
  let decoded = Hf.to_relation hf ~pool in
  Hf.close hf;
  (float_of_int (rows * repeats) /. !best, decoded)

let run (options : Figures.options) =
  let out = "BENCH_codec.json" in
  let inner = if options.Figures.full then 400_000 else 60_000 in
  let catalog = Zoo.catalog ~outer:64 ~inner ~seed:options.Figures.seed () in
  let verified = ref true in
  let bench_table name =
    let rel = Catalog.find catalog name in
    let path = Filename.temp_file "subql_codec" ".heap" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Hf.close (Hf.write ~path rel);
        let schema = Relation.schema rel in
        let generic, via_generic = measure ~path ~schema ~codec:Subql_storage.Codec.Generic in
        let specialized, via_plan =
          measure ~path ~schema ~codec:Subql_storage.Codec.Specialized
        in
        if
          not
            (Relation.equal_as_multiset via_generic rel
            && Relation.equal_as_multiset via_plan rel)
        then verified := false;
        let speedup = specialized /. generic in
        Format.printf "  %-4s %8d rows  generic %10.0f rows/s  specialized %10.0f rows/s  %.2fx@."
          name (Relation.cardinality rel) generic specialized speedup;
        J.Obj
          [
            ("table", J.Str name);
            ("rows", J.Int (Relation.cardinality rel));
            ("generic_rows_per_sec", J.Float generic);
            ("specialized_rows_per_sec", J.Float specialized);
            ("speedup", J.Float speedup);
          ])
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
  Format.printf "@.  overall speedup %.2fx (verified: %b)@." speedup !verified;
  let doc =
    J.Obj
      [
        ("bench", J.Str "codec");
        ("full", J.Bool options.Figures.full);
        ("tables", J.List tables);
        ("speedup", J.Float speedup);
        ("verified", J.Bool !verified);
      ]
  in
  Out_channel.with_open_text out (fun oc -> J.to_channel oc doc);
  Format.printf "  wrote %s@.@." out
