(* The ingest benchmark: incremental GMDJ maintenance under appends.

   Headline: a warm, cached, maintainable template ("not-exists" — its
   detail side is a plain base-table scan) absorbs a stream of append
   batches sized at ~1% of the detail table.  The delta path folds just
   the appended batch into live accumulators and repairs the cache
   entry in place; the baseline re-evaluates the full plan from scratch
   after every batch, which is exactly what a stale-entry cache miss
   costs.  Both sides see identical appends; the maintained result is
   verified against from-scratch evaluation of the grown catalog.

   Staleness sweep: the mixed virtual-time driver replays one query
   trace with 1x/4x/16x append schedules overlaid, under both
   staleness policies (maintain-on-write / recompute-on-miss), reporting p99 latency, cache hit rates, detail
   scans per query, and maintenance time.  Every cell ends with a
   freshness check: the served state must equal solo evaluation of the
   final catalog — no stale reads under any policy.

   Writes BENCH_ingest.json; scripts/check.sh gates the delta-vs-
   recompute speedup and the sweep against the committed baseline. *)

module Zoo = Subql_workload.Zoo
module Traffic = Subql_workload.Traffic
module Server = Subql_server.Server
module Admission = Subql_server.Admission
module Driver = Subql_server.Driver
module Ingest = Subql_ingest.Ingest
module Maintenance = Subql_ingest.Maintenance
module Relation = Subql_relational.Relation
module J = Subql_obs.Json

let headline_template = "not-exists"

let skew = 0.85

let policies = [ Ingest.Maintain_on_write; Ingest.Recompute_on_miss ]

let multipliers = [ 1; 4; 16 ]

let fresh_eval catalog q =
  Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra q))

let served_matches_solo catalog cache q =
  let report = Subql_mqo.Batch.run ~cache catalog [ q ] in
  Relation.equal_as_multiset (fresh_eval catalog q)
    (List.assoc 0 report.Subql_mqo.Batch.results)

(* --- headline: delta maintenance vs full recompute ------------------- *)

type headline = {
  h_batches : int;
  h_batch_rows : int;
  h_delta_seconds : float;
  h_recompute_seconds : float;
  h_speedup : float;
  h_delta_rows : int;
  h_recompute_rows : int;
  h_rows_speedup : float;
  h_avoided_rows : int;
  h_all_delta : bool;
  h_verified : bool;
}

let headline (options : Figures.options) ~outer ~inner ~batch_rows ~batches =
  let q = Zoo.find_query headline_template in
  let fp = Subql_mqo.Batch.fingerprint (Subql_mqo.Batch.prepare q) in
  let batch_seed b =
    Int64.add (Int64.mul options.Figures.seed 1_000L) (Int64.of_int b)
  in
  (* Both sides pay the same write — the catalog registration of the
     grown relation — so it is left untimed and the clocks compare
     exactly what the planner chooses between: folding the appended
     batch into live accumulators and repairing the cache entry, versus
     re-evaluating the plan from scratch.  Returns the table's epoch
     before the write and the batch, as [Maintenance.sync] takes them. *)
  let append catalog b =
    let rows = Zoo.detail_rows ~seed:(batch_seed b) batch_rows in
    let before = Subql_relational.Catalog.epoch catalog "I" in
    let old = Subql_relational.Catalog.find catalog "I" in
    Subql_relational.Catalog.add catalog "I"
      (Relation.create ~check:false (Relation.schema old)
         (Array.append (Relation.rows old) rows));
    (before, rows)
  in
  let timed seconds f =
    let r, dt = Subql_obs.Clock.time f in
    seconds := !seconds +. dt;
    r
  in
  (* Delta side: warm cache, warm accumulators (the first sync pays the
     full rebuild, untimed), then one timed [sync] per append batch. *)
  let catalog_d = Zoo.catalog ~outer ~inner ~seed:options.Figures.seed () in
  let cache_d = Subql_mqo.Result_cache.create ~min_cost:0. () in
  let maint = Maintenance.create ~catalog:catalog_d ~cache:cache_d () in
  ignore (Maintenance.register_query maint q);
  ignore (Subql_mqo.Batch.run ~cache:cache_d catalog_d [ q ]);
  (let before, rows = append catalog_d 0 in
   ignore (Maintenance.sync maint ~table:"I" ~before rows));
  let delta_rows = ref 0 and avoided = ref 0 and deltas = ref 0 in
  let delta_seconds = ref 0. in
  for b = 1 to batches do
    let before, rows = append catalog_d b in
    let r = timed delta_seconds (fun () -> Maintenance.sync maint ~table:"I" ~before rows) in
    delta_rows := !delta_rows + r.Maintenance.delta_rows;
    avoided := !avoided + r.Maintenance.avoided_rows;
    deltas := !deltas + r.Maintenance.delta_maintained
  done;
  let delta_seconds = !delta_seconds in
  (* The repaired entry must equal from-scratch evaluation of the grown
     catalog — delta maintenance may not drift. *)
  let reference_d = fresh_eval catalog_d q in
  let verified =
    match Subql_mqo.Result_cache.peek cache_d fp with
    | Some rel -> Relation.equal_as_multiset reference_d rel
    | None -> false
  in
  (* Recompute side: identical appends, but after each batch the plan is
     re-evaluated from scratch — the cost a stale cache miss pays. *)
  let catalog_r = Zoo.catalog ~outer ~inner ~seed:options.Figures.seed () in
  let cache_r = Subql_mqo.Result_cache.create ~min_cost:0. () in
  ignore (Subql_mqo.Batch.run ~cache:cache_r catalog_r [ q ]);
  ignore (append catalog_r 0);
  ignore (fresh_eval catalog_r q);
  let recompute_rows = ref 0 in
  let recompute_seconds = ref 0. in
  for b = 1 to batches do
    ignore (append catalog_r b);
    ignore (timed recompute_seconds (fun () -> fresh_eval catalog_r q));
    recompute_rows :=
      !recompute_rows
      + Relation.cardinality (Subql_relational.Catalog.find catalog_r "I")
  done;
  let recompute_seconds = !recompute_seconds in
  (* Both sides appended the same rows: their answers must agree. *)
  let verified = verified && Relation.equal_as_multiset reference_d (fresh_eval catalog_r q) in
  {
    h_batches = batches;
    h_batch_rows = batch_rows;
    h_delta_seconds = delta_seconds;
    h_recompute_seconds = recompute_seconds;
    h_speedup =
      (if delta_seconds > 0. then recompute_seconds /. delta_seconds else infinity);
    h_delta_rows = !delta_rows;
    h_recompute_rows = !recompute_rows;
    h_rows_speedup =
      (if !delta_rows > 0 then
         float_of_int !recompute_rows /. float_of_int !delta_rows
       else infinity);
    h_avoided_rows = !avoided;
    h_all_delta = !deltas = batches;
    h_verified = verified;
  }

(* --- staleness sweep -------------------------------------------------- *)

let server_config =
  {
    Server.batch_window = 0.01;
    batch_max = 32;
    policy = { Admission.mem_budget_rows = infinity; queue_cap = 512 };
    eval_config = Subql.Eval.default_config;
  }

type cell = {
  c_policy : Ingest.policy;
  c_multiplier : int;
  c_every : float;
  c_summary : Driver.mixed_summary;
  c_fresh : bool;
}

let sweep_cell (options : Figures.options) ~outer ~inner ~rate ~count ~every ~rows_per
    ~multiplier policy =
  let catalog = Zoo.catalog ~outer ~inner ~seed:options.Figures.seed () in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. () in
  let server = Server.create ~config:server_config ~cache catalog in
  let ing = Ingest.create ~policy ~catalog ~cache () in
  List.iter
    (fun t -> ignore (Ingest.register_query ing (Zoo.find_query t)))
    Zoo.same_detail_templates;
  let arrivals = Traffic.open_loop ~seed:options.Figures.seed ~rate ~count ~skew () in
  let batch_no = ref 0 in
  let events =
    Traffic.with_ingest ~rows:rows_per ~every arrivals
    |> List.map (function
         | Traffic.Query a ->
           Driver.Query
             {
               Driver.at = a.Traffic.at;
               label = a.Traffic.template;
               query = Zoo.find_query a.Traffic.template;
             }
         | Traffic.Append i ->
           incr batch_no;
           let b = !batch_no in
           Driver.Ingest
             {
               Driver.at = i.Traffic.at;
               label = "append";
               apply =
                 (fun () ->
                   ignore
                     (Ingest.append ing ~table:"I"
                        (Zoo.detail_rows
                           ~seed:(Int64.of_int ((1_000 * multiplier) + b))
                           i.Traffic.rows));
                   i.Traffic.rows);
             })
  in
  let summary = Driver.replay_mixed server events in
  (* No stale reads: whatever state the run left behind, serving each
     registered template now must equal solo evaluation of the final
     catalog.  (Under recompute-on-miss this exercises the lazy drop;
     under maintain-on-write it exercises repaired entries.) *)
  let fresh =
    List.for_all (fun t -> served_matches_solo catalog cache (Zoo.find_query t))
      Zoo.same_detail_templates
  in
  { c_policy = policy; c_multiplier = multiplier; c_every = every; c_summary = summary; c_fresh = fresh }

(* --- reporting -------------------------------------------------------- *)

let scans_per_query (s : Driver.summary) =
  if s.Driver.completed = 0 then 0.
  else float_of_int s.Driver.detail_scans /. float_of_int s.Driver.completed

let cell_json c =
  let s = c.c_summary in
  let qs = s.Driver.queries in
  let p q = 1000. *. Driver.percentile qs.Driver.latencies q in
  J.Obj
    [
      ("policy", J.Str (Ingest.policy_name c.c_policy));
      ("ingest_multiplier", J.Int c.c_multiplier);
      ("append_every", J.Float c.c_every);
      ("completed", J.Int qs.Driver.completed);
      ("shed", J.Int qs.Driver.shed);
      ("p50_ms", J.Float (p 50.));
      ("p99_ms", J.Float (p 99.));
      ("cache_hits", J.Int qs.Driver.cache_hits);
      ("cache_misses", J.Int qs.Driver.cache_misses);
      ("scans_per_query", J.Float (scans_per_query qs));
      ("ingest_batches", J.Int s.Driver.ingest_batches);
      ("ingest_rows", J.Int s.Driver.ingest_rows);
      ("ingest_seconds", J.Float s.Driver.ingest_seconds);
      ("fresh", J.Bool c.c_fresh);
    ]

let run (options : Figures.options) =
  let out = "BENCH_ingest.json" in
  let outer, inner = if options.Figures.full then (256, 50_000) else (64, 10_000) in
  let batch_rows = inner / 100 in
  let batches = 32 in
  let h = headline options ~outer ~inner ~batch_rows ~batches in
  let rate = 200. in
  let count = if options.Figures.full then 600 else 240 in
  let rows_per = 50 in
  let base_every = 0.3 in
  let cells =
    List.concat_map
      (fun policy ->
        List.map
          (fun m ->
            sweep_cell options ~outer ~inner ~rate ~count
              ~every:(base_every /. float_of_int m)
              ~rows_per ~multiplier:m policy)
          multipliers)
      policies
  in
  let all_fresh = List.for_all (fun c -> c.c_fresh) cells in
  let verified = h.h_verified && all_fresh in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "ingest");
        ("scale", J.Str (if options.Figures.full then "full" else "default"));
        ("outer_rows", J.Int outer);
        ("inner_rows", J.Int inner);
        ("template", J.Str headline_template);
        ( "headline",
          J.Obj
            [
              ("batches", J.Int h.h_batches);
              ("batch_rows", J.Int h.h_batch_rows);
              ( "append_ratio",
                J.Float (float_of_int h.h_batch_rows /. float_of_int inner) );
              ("delta_seconds", J.Float h.h_delta_seconds);
              ("recompute_seconds", J.Float h.h_recompute_seconds);
              ("speedup", J.Float h.h_speedup);
              ("delta_rows", J.Int h.h_delta_rows);
              ("recompute_rows", J.Int h.h_recompute_rows);
              ("rows_speedup", J.Float h.h_rows_speedup);
              ("avoided_rows", J.Int h.h_avoided_rows);
              ("all_delta", J.Bool h.h_all_delta);
            ] );
        ( "staleness",
          J.Obj
            [
              ("query_rate", J.Float rate);
              ("queries", J.Int count);
              ("rows_per_append", J.Int rows_per);
              ("base_append_every", J.Float base_every);
              ("cells", J.List (List.map cell_json cells));
            ] );
        ("verified", J.Bool verified);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n');
  Format.printf
    "@.== ingest: delta maintenance vs full recompute (%s, %d-row batches ~%.0f%% of I) ==@."
    headline_template h.h_batch_rows
    (100. *. float_of_int h.h_batch_rows /. float_of_int inner);
  Format.printf "wrote %s@." out;
  Format.printf
    "delta:     %d batches in %.4fs (%d rows folded, %d scan rows avoided)@."
    h.h_batches h.h_delta_seconds h.h_delta_rows h.h_avoided_rows;
  Format.printf "recompute: %d batches in %.4fs (%d rows scanned)@." h.h_batches
    h.h_recompute_seconds h.h_recompute_rows;
  Format.printf "speedup: %.1fx wall clock, %.0fx rows; all-delta %b; verified %b@."
    h.h_speedup h.h_rows_speedup h.h_all_delta h.h_verified;
  Format.printf "@.== staleness sweep: %d queries at %.0f/s, appends every %.3fs/x ==@."
    count rate base_every;
  Format.printf "%-20s %7s %8s %8s %9s %9s %8s %8s %6s@." "policy" "ingestx" "appends"
    "rows" "p99ms" "hit rate" "scans/q" "maint_s" "fresh";
  List.iter
    (fun c ->
      let qs = c.c_summary.Driver.queries in
      let hit_rate =
        let total = qs.Driver.cache_hits + qs.Driver.cache_misses in
        if total = 0 then 0.
        else float_of_int qs.Driver.cache_hits /. float_of_int total
      in
      Format.printf "%-20s %7d %8d %8d %9.1f %8.0f%% %8.3f %8.4f %6b@."
        (Ingest.policy_name c.c_policy)
        c.c_multiplier c.c_summary.Driver.ingest_batches c.c_summary.Driver.ingest_rows
        (1000. *. Driver.percentile qs.Driver.latencies 99.)
        (100. *. hit_rate) (scans_per_query qs) c.c_summary.Driver.ingest_seconds
        c.c_fresh)
    cells;
  Format.printf "verified (headline + all cells fresh): %b@." verified;
  if not verified then exit 1;
  if not h.h_all_delta then begin
    Format.printf "FAIL: a timed append fell back to recompute (planner not firing)@.";
    exit 1
  end;
  (* The tentpole claim, enforced: at a ~1%% append ratio delta
     maintenance must beat recomputing from scratch by at least 5x. *)
  if h.h_speedup < 5. then begin
    Format.printf "FAIL: delta maintenance speedup %.1fx < 5x@." h.h_speedup;
    exit 1
  end
