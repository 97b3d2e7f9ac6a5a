(* The multi-query benchmark: a repeated-template OLAP batch over the
   zoo's O/I/J schema, comparing

   - solo evaluation (every query planned and scanned independently),
   - a cold batch (fingerprint dedup + cross-query GMDJ sharing), and
   - a warm batch (the same batch again, against the populated cache).

   Writes BENCH_mqo.json.  The headline numbers are the detail-scan
   counts: the batch's K same-detail-table queries cost strictly fewer
   than K scans shared, and zero warm. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module J = Subql_obs.Json

let time_run f =
  let result, dt = Subql_obs.Clock.time f in
  (dt, result)

let solo_plan q = Subql.Optimize.optimize (Subql.Transform.to_algebra q)

let round_json seconds (report : Subql_mqo.Batch.report) =
  J.Obj
    [
      ("seconds", J.Float seconds);
      ("cache_hits", J.Int report.Subql_mqo.Batch.cache_hits);
      ("cache_misses", J.Int report.Subql_mqo.Batch.cache_misses);
      ("deduplicated", J.Int report.Subql_mqo.Batch.deduplicated);
      ("groups", J.Int report.Subql_mqo.Batch.groups);
      ("grouped_queries", J.Int report.Subql_mqo.Batch.grouped);
      ("detail_scans", J.Int report.Subql_mqo.Batch.shared_detail_scans);
      ("naive_detail_scans", J.Int report.Subql_mqo.Batch.naive_detail_scans);
    ]

let run (options : Figures.options) =
  let out = "BENCH_mqo.json" in
  let outer, inner = if options.Figures.full then (500, 100_000) else (64, 10_000) in
  let catalog = Zoo.catalog ~outer ~inner ~seed:options.Figures.seed () in
  let templates = Zoo.same_detail_templates in
  let queries = List.map Zoo.find_query templates in
  let k = List.length queries in
  (* Solo baseline: each query evaluated independently, counting its
     GMDJ detail passes. *)
  let solo_stats = Subql_gmdj.Gmdj.fresh_stats () in
  let solo_seconds, solo_results =
    time_run (fun () ->
        List.map
          (fun q -> Subql.Eval.eval ~gmdj_stats:solo_stats catalog (solo_plan q))
          queries)
  in
  (* Cold batch, then the same batch against the warm cache. *)
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. () in
  let cold_seconds, cold = time_run (fun () -> Subql_mqo.Batch.run ~cache catalog queries) in
  let warm_seconds, warm = time_run (fun () -> Subql_mqo.Batch.run ~cache catalog queries) in
  (* Tuple-by-tuple verification of both rounds against the solo
     results (the test suite checks this too; the benchmark refuses to
     report numbers for wrong answers). *)
  let agrees (report : Subql_mqo.Batch.report) =
    List.for_all2
      (fun solo (_, batch) -> Relation.equal_as_multiset solo batch)
      solo_results report.Subql_mqo.Batch.results
  in
  let verified = agrees cold && agrees warm in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "mqo");
        ("scale", J.Str (if options.Figures.full then "full" else "default"));
        ("outer_rows", J.Int outer);
        ("inner_rows", J.Int inner);
        ("batch_size", J.Int k);
        ("templates", J.List (List.map (fun t -> J.Str t) templates));
        ( "solo",
          J.Obj
            [
              ("seconds", J.Float solo_seconds);
              ("detail_scans", J.Int solo_stats.Subql_gmdj.Gmdj.detail_passes);
            ] );
        ("cold", round_json cold_seconds cold);
        ("warm", round_json warm_seconds warm);
        ("verified", J.Bool verified);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.== mqo: multi-query batch over %d same-detail queries ==@." k;
  Format.printf "wrote %s@." out;
  Format.printf "%-6s %10s %14s %12s %12s@." "round" "seconds" "detail scans" "cache hits"
    "grouped";
  Format.printf "%-6s %10.3f %14d %12s %12s@." "solo" solo_seconds
    solo_stats.Subql_gmdj.Gmdj.detail_passes "-" "-";
  Format.printf "%-6s %10.3f %14d %12d %12d@." "cold" cold_seconds
    cold.Subql_mqo.Batch.shared_detail_scans cold.Subql_mqo.Batch.cache_hits
    cold.Subql_mqo.Batch.grouped;
  Format.printf "%-6s %10.3f %14d %12d %12d@." "warm" warm_seconds
    warm.Subql_mqo.Batch.shared_detail_scans warm.Subql_mqo.Batch.cache_hits
    warm.Subql_mqo.Batch.grouped;
  Format.printf "verified against solo evaluation: %b@." verified;
  if not verified then exit 1
