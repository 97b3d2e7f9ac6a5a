(* Workloads serve-cached and serve-append: open-loop traffic of SQL
   text over the 17 single-block Table 1 zoo templates, replayed
   through one long-lived server ({!Replay}).

   - serve-cached: a fixed rate well under capacity against a cache
     warmed during set-up, so every answer is a hit and the time is in
     parsing, planning, admission and the hit path.
   - serve-append: a lower rate plus one append to I every quarter
     second, with on-write maintenance of the same-detail templates:
     reads beside writes, through heap appends, delta maintenance and
     recompute.

   Nested templates stay out of the traffic: one 40 ms arrival among
   1 ms ones would make the pooled p95 count tail arrivals.  They are
   measured solo in olap-paper. *)

open Subql_relational
module Server = Subql_server.Server
module Ingest = Subql_ingest.Ingest
module Zoo = Subql_workload.Zoo
module Rng = Subql_workload.Rng

type kind = Cached | Appending

type sizes = {
  outer : int;
  inner : int;
  rate : float;  (** arrivals per virtual second *)
  queries : int;  (** per episode *)
  skew : float;  (** share of draws from the same-detail templates *)
  append_every : float;  (** virtual seconds between appends *)
  appends : int;
      (** per episode.  serve-append: interleaved with the traffic;
          serve-cached: a trailing burst after it, timed for
          append_p50_ms only *)
  append_rows : int;
  episodes : int;
      (** independent replays per run, each on a fresh set-up with its
          own data and trace; their samples are pooled *)
}

(* Each episode replays [seconds / 8] virtual seconds of arrivals. *)
let sizes kind ~seconds =
  let rate = match kind with Cached -> 4000. | Appending -> 300. in
  let span = float_of_int seconds /. 8. in
  {
    outer = 64;
    inner = 4096;
    rate;
    queries = int_of_float (rate *. span);
    skew = 0.8;
    append_every = 0.25;
    appends = (match kind with Cached -> 40 | Appending -> max 1 (int_of_float (span /. 0.25)));
    append_rows = 200;
    episodes = (match kind with Cached -> 12 | Appending -> 16);
  }

let tiny kind =
  {
    outer = 8;
    inner = 64;
    rate = 200.;
    queries = 60;
    skew = 0.8;
    append_every = 0.1;
    appends = (match kind with Cached -> 2 | Appending -> 3);
    append_rows = 10;
    episodes = 2;
  }

(* The 17 single-block templates: the zoo minus the nested shapes that
   olap-paper runs solo, and minus distinct-base, which has no SQL form. *)
let templates =
  List.filter
    (fun (name, _) -> name <> "distinct-base" && not (List.mem name Report.olap_templates))
    Zoo.queries
  |> List.map (fun (name, q) -> (name, Subql_sql.Render.query_to_sql q))

let arrivals ~seed sizes =
  let rng = Rng.create ~seed in
  let all = Array.of_list (List.map fst templates) in
  let shareable = Array.of_list Zoo.same_detail_templates in
  let due = ref 0. in
  List.init sizes.queries (fun _ ->
      due := !due -. (log (1. -. Rng.float rng) /. sizes.rate);
      let label = Rng.choose rng (if Rng.bernoulli rng sizes.skew then shareable else all) in
      Replay.Query { due = !due; label; sql = List.assoc label templates })

type state = { server : Server.t; catalog : Catalog.t; ingest : Ingest.t option }

let release s = Option.iter Ingest.close s.ingest

(* An on-write ingest pipeline over [s]'s catalog and cache, with the
   same-detail templates registered for maintenance. *)
let ingest_pipeline catalog server =
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~catalog ~cache:(Server.cache server) () in
  List.iter (fun t -> ignore (Ingest.register_query ing (Zoo.find_query t))) Zoo.same_detail_templates;
  ing

let setup kind ~seed sizes =
  let catalog = Zoo.catalog ~outer:sizes.outer ~inner:sizes.inner ~seed () in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. () in
  let server = Server.create ~config:Server.default_config ~cache catalog in
  let ingest = match kind with Cached -> None | Appending -> Some (ingest_pipeline catalog server) in
  (* Cache warm-up: every template once through the serving loop. *)
  List.iter
    (fun (label, sql) ->
      match Server.submit server ~now:0. ~label (Subql_sql.Parser.parse sql).Subql_sql.Parser.query with
      | Ok _ -> ()
      | Error _ -> failwith ("perfbench: warm-up rejected " ^ label))
    templates;
  ignore (Server.drain server ~now:0.);
  { server; catalog; ingest }

(* The rows are generated here, so the timed write is only the write. *)
let append_events ~seed sizes ~first_due ing =
  List.init sizes.appends (fun b ->
      let rows =
        Zoo.detail_rows ~seed:(Int64.add (Int64.mul seed 1_000L) (Int64.of_int b)) sizes.append_rows
      in
      Replay.Append
        {
          due = first_due +. (float_of_int b *. sizes.append_every);
          apply =
            (fun () ->
              ignore (Ingest.append ing ~table:"I" rows);
              Array.length rows);
        })

let due = function Replay.Query q -> q.due | Replay.Append a -> a.due

(* The timed trace.  Appends sort ahead of a query due at the same
   instant, so that query reads the post-append state. *)
let events kind ~seed sizes s =
  let queries = arrivals ~seed sizes in
  match (kind, s.ingest) with
  | Appending, Some ing ->
    List.merge
      (fun a b ->
        compare
          (due a, match a with Replay.Append _ -> 0 | _ -> 1)
          (due b, match b with Replay.Append _ -> 0 | _ -> 1))
      queries
      (append_events ~seed sizes ~first_due:sizes.append_every ing)
  | _ -> queries

(* serve-cached's trailing write burst, on a loop that is otherwise idle. *)
let append_probe ~seed sizes s =
  let ing = ingest_pipeline s.catalog s.server in
  Fun.protect
    ~finally:(fun () -> Ingest.close ing)
    (fun () ->
      Replay.replay s.server (append_events ~seed sizes ~first_due:0. ing))

let reference catalog sql =
  Subql.Eval.eval catalog
    (Subql.Transform.to_algebra (Subql_sql.Parser.parse sql).Subql_sql.Parser.query)

(* Per-completion check on serve-cached, where the data never changes:
   every result's row count must match the reference, and the first
   result of each template must equal it as a multiset. *)
let cached_check catalog =
  let refs = List.map (fun (name, sql) -> (name, reference catalog sql)) templates in
  let seen = Hashtbl.create 32 in
  fun label result ->
    let r = List.assoc label refs in
    Relation.cardinality result = Relation.cardinality r
    && (Hashtbl.mem seen label
       || begin
         Hashtbl.add seen label ();
         Relation.equal_as_multiset r result
       end)

(* After the run: every template served now must equal from-scratch
   evaluation of the (possibly grown) catalog. *)
let final_check s =
  List.filter_map
    (fun (name, sql) ->
      let q = (Subql_sql.Parser.parse sql).Subql_sql.Parser.query in
      let report = Subql_mqo.Batch.run ~cache:(Server.cache s.server) s.catalog [ q ] in
      if Relation.equal_as_multiset (reference s.catalog sql) (List.assoc 0 report.Subql_mqo.Batch.results)
      then None
      else Some name)
    templates

let name = function Cached -> "serve-cached" | Appending -> "serve-append"

let ms x = 1000. *. x

type episode = {
  trace : Replay.summary;
  writes : Replay.summary;  (** where the episode's appends ran *)
  setup_seconds : float;
  stale : string list;  (** templates that failed the final check *)
}

(* One episode: set up (timed, from a compacted heap), replay the trace,
   on serve-cached add the trailing write burst, check every template,
   release.  [wrap] runs around the replay and the burst only, so what
   it measures leaves out set-up and checking. *)
let episode ?(wrap = fun f -> f ()) kind ~seed sizes k =
  let seed = Int64.add (Int64.mul seed 16L) (Int64.of_int k) in
  Gc.compact ();
  let s, setup_seconds = Clock.time (fun () -> setup kind ~seed sizes) in
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () ->
      let check = match kind with Cached -> cached_check s.catalog | Appending -> fun _ _ -> true in
      let evs = events kind ~seed sizes s in
      Gc.compact ();
      let trace, writes =
        wrap (fun () ->
            let trace = Replay.replay ~check s.server evs in
            (trace, match kind with Cached -> append_probe ~seed sizes s | Appending -> trace))
      in
      { trace; writes; setup_seconds; stale = final_check s })

(* throughput_qps: completed queries per busy second, over all episodes. *)
let throughput eps =
  float_of_int (List.fold_left (fun acc e -> acc + e.trace.Replay.completed) 0 eps)
  /. List.fold_left (fun acc e -> acc +. e.trace.Replay.busy) 0. eps

let pooled f eps = Array.concat (List.map f eps)

let sum f eps = List.fold_left (fun acc e -> acc + f e) 0 eps

let sumf f eps = List.fold_left (fun acc e -> acc +. f e) 0. eps

let stale_notes eps =
  List.concat_map
    (fun e -> List.map (fun t -> "WRONG ANSWER: " ^ t ^ " differs from evaluation of the final catalog") e.stale)
    eps

let wrong eps = sum (fun e -> e.trace.Replay.wrong + List.length e.stale) eps

(* Queries plus appends; serve-cached's trailing bursts count too. *)
let attempted kind eps =
  sum (fun e -> Replay.attempted e.trace) eps
  + (match kind with Cached -> sum (fun e -> e.writes.Replay.appends) eps | Appending -> 0)

let failed kind eps =
  sum (fun e -> Replay.failed e.trace + List.length e.stale) eps
  + (match kind with Cached -> sum (fun e -> e.writes.Replay.append_failures) eps | Appending -> 0)

let untraced kind ~seed sizes =
  let eps = List.init sizes.episodes (episode kind ~seed sizes) in
  let lat = pooled (fun e -> Array.map ms e.trace.Replay.latencies) eps in
  let append_lat = pooled (fun e -> Array.map ms e.writes.Replay.append_latencies) eps in
  let setups = Array.of_list (List.map (fun e -> e.setup_seconds) eps) in
  let setup_s = Stats.median setups in
  let p50 = Stats.percentile lat 50. and p95 = Stats.percentile lat 95. in
  let busy = sumf (fun e -> e.trace.Replay.busy) eps in
  let completed = sum (fun e -> e.trace.Replay.completed) eps in
  let notes =
    stale_notes eps
    @ [
        Printf.sprintf "%s: %d episodes x %d queries at %.0f q/s (%d appends each), O/I/J %d/%d, skew %.2f"
          (name kind) sizes.episodes sizes.queries sizes.rate sizes.appends sizes.outer sizes.inner sizes.skew;
        Report.setup_line setups;
        Printf.sprintf "latency_p50_ms %.3f, latency_p95_ms %.3f (pooled, n=%d)" p50 p95 (Array.length lat);
        Printf.sprintf
          "throughput_qps %.1f (%d completed / %.4f s busy over %d episodes, utilisation %.1f%%)"
          (throughput eps) completed busy sizes.episodes
          (100. *. busy /. (float_of_int (sizes.episodes * sizes.queries) /. sizes.rate));
        Printf.sprintf "append_p50_ms %.3f (n=%d%s)" (Stats.median append_lat) (Array.length append_lat)
          (match kind with Cached -> ", trailing bursts after the traffic" | Appending -> "");
        Printf.sprintf "failed: %d rejected, %d errors, %d wrong"
          (sum (fun e -> e.trace.Replay.rejected) eps)
          (sum (fun e -> e.trace.Replay.errors) eps)
          (wrong eps);
      ]
  in
  {
    Report.correct = wrong eps = 0;
    attempted = attempted kind eps;
    failed = failed kind eps;
    values =
      [
        ("setup_s", setup_s);
        ("latency_p50_ms", p50);
        ("latency_p95_ms", p95);
        ("throughput_qps", throughput eps);
        ("peak_heap_mb", Measure.peak_heap_mb ());
        ("append_p50_ms", Stats.median append_lat);
      ];
    notes;
  }

let layer_counters =
  [
    "eval.chunks";
    "gmdj.detail_passes";
    "gmdj.detail_rows_scanned";
    "gmdj.early_exits";
    "exchange.rows";
    "exchange.chunks";
    "storage.buffer_pool.page_reads";
    "storage.buffer_pool.hits";
    "ingest.maintain.delta";
    "ingest.maintain.recompute";
  ]

(* The replays of an episode: its trace and, on serve-cached, the
   trailing write burst. *)
let replays kind e = match kind with Cached -> [ e.trace; e.writes ] | Appending -> [ e.trace ]

(* Traced run: untraced and traced episodes alternate, so the tracing
   overhead compares like with like; per-layer numbers come from the
   traced episodes, allocation counts and service times from the
   untraced ones.

   Attribution check: the timed layer calls (the replays' busy time)
   must account for the replays' wall time to within
   {!Report.attribution_tolerance_pct}; otherwise the run fails.  The
   per-query breakdown printed beside it also holds the two waits on
   the replay's timeline, loop.wait and server.queue_wait, which are
   intervals, not calls. *)
let traced kind ~seed sizes =
  Spans.reset ();
  let plain = ref [] and traced_eps = ref [] and counters = Hashtbl.create 16 in
  let alloc = ref 0. and majors = ref 0 in
  let traced_wrap f =
    Spans.enabled := true;
    let r, deltas = Measure.counter_deltas layer_counters f in
    Spans.enabled := false;
    List.iter
      (fun (n, d) -> Hashtbl.replace counters n (d + Option.value ~default:0 (Hashtbl.find_opt counters n)))
      deltas;
    r
  in
  let gc_wrap f =
    let g0 = Measure.gc_now () in
    let r = f () in
    let g = Measure.gc_since g0 in
    alloc := !alloc +. g.Measure.alloc_bytes;
    majors := !majors + g.Measure.major_collections;
    r
  in
  for k = 0 to sizes.episodes - 1 do
    if k mod 2 = 1 then traced_eps := episode ~wrap:traced_wrap kind ~seed sizes k :: !traced_eps
    else plain := episode ~wrap:gc_wrap kind ~seed sizes k :: !plain
  done;
  let eps = !traced_eps and plain = !plain in
  let spans = Spans.spans () in
  let by_name = Spans.self_by_name spans in
  let self name = match List.assoc_opt name by_name with Some (t, _) -> t | None -> 0. in
  let traced_replays = List.concat_map (replays kind) eps in
  let wall = List.fold_left (fun acc r -> acc +. r.Replay.wall) 0. traced_replays in
  let layer_calls = List.fold_left (fun acc r -> acc +. r.Replay.busy) 0. traced_replays in
  let unattributed = 100. *. Stats.ratio (wall -. layer_calls) wall in
  let attributed = unattributed <= Report.attribution_tolerance_pct in
  let field f = float_of_int (sum (fun e -> f e.trace) eps) in
  let fieldf f = sumf (fun e -> f e.trace) eps in
  let completed = Float.max 1. (field (fun r -> r.Replay.completed)) in
  let offered = Float.max 1. (field (fun r -> r.Replay.offered)) in
  let batches = Float.max 1. (field (fun r -> r.Replay.batches)) in
  let batched = Float.max 1. (field (fun r -> r.Replay.batched_queries)) in
  let batch_seconds = fieldf (fun r -> r.Replay.step_seconds +. r.Replay.flushed_seconds) in
  let writes f = sumf (fun e -> f e.writes) eps in
  let appends = Float.max 1. (float_of_int (sum (fun e -> e.writes.Replay.appends) eps)) in
  let hits = field (fun r -> r.Replay.cache_hits) and misses = field (fun r -> r.Replay.cache_misses) in
  let counter name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name)) in
  let reads = counter "storage.buffer_pool.page_reads" and pool_hits = counter "storage.buffer_pool.hits" in
  let untraced_qps = throughput plain and traced_qps = throughput eps in
  let overhead = 100. *. (untraced_qps -. traced_qps) /. untraced_qps in
  let lat = pooled (fun e -> Array.map ms e.trace.Replay.latencies) plain in
  let service = pooled (fun e -> Array.map ms e.trace.Replay.services) plain in
  let pct xs p = if Array.length xs = 0 then 0. else Stats.percentile xs p in
  let notes =
    [
      Printf.sprintf "%s traced: %d traced + %d untraced episodes, %d spans" (name kind) (List.length eps)
        (List.length plain) (List.length spans);
      "per-query time on the traced replays' timeline (waits are intervals, the rest timed calls):";
    ]
    @ List.filter_map
        (fun (n, (t, c)) ->
          if n = "query" || n = "append" then None
          else Some (Printf.sprintf "  %-18s %10.4f ms/query  (%d spans)" n (ms t /. completed) c))
        by_name
    @ [
        Printf.sprintf
          "  layer calls %.4f s vs wall of the traced replays %.4f s: unattributed %.3f%% (tolerance %.0f%%)"
          layer_calls wall unattributed Report.attribution_tolerance_pct;
        Printf.sprintf "  throughput untraced %.1f q/s, traced %.1f q/s: tracing overhead %.2f%%" untraced_qps
          traced_qps overhead;
        Printf.sprintf
          "  untraced episodes (n=%d): latency p50 %.3f / p95 %.3f ms, service (latency minus queue wait) p50 %.3f / p95 %.3f ms"
          (Array.length lat) (pct lat 50.) (pct lat 95.) (pct service 50.) (pct service 95.);
      ]
    @ (if attributed then []
       else [ "ATTRIBUTION FAILED: the layer calls do not account for the wall time within tolerance" ])
    @ stale_notes eps
  in
  let all = plain @ eps in
  {
    Report.correct = wrong all = 0 && attributed;
    attempted = attempted kind all;
    failed = failed kind all;
    values =
      [
        ("sql.parse_us", 1e6 *. fieldf (fun r -> r.Replay.parse_seconds) /. offered);
        ("core.translate_us", 0.);
        ("core.optimize_us", 0.);
        ("server.loop_wait_ms", ms (self "loop.wait") /. completed);
        ("server.submit_us", 1e6 *. fieldf (fun r -> r.Replay.submit_seconds) /. offered);
        ("server.batch_ms", ms batch_seconds /. batches);
        ("server.exec_us_per_query", 1e6 *. batch_seconds /. batched);
        ("server.batch_size", batched /. batches);
        ("server.queue_wait_ms", ms (fieldf (fun r -> r.Replay.queue_wait)) /. completed);
        ("server.service_p50_ms", pct service 50.);
        ("server.service_p95_ms", pct service 95.);
        ("server.rejected", field (fun r -> r.Replay.rejected));
        ("mqo.cache_hit_ratio", Stats.ratio hits (hits +. misses));
        ("mqo.scans_per_query", field (fun r -> r.Replay.shared_scans) /. completed);
        ( "mqo.sharing_ratio",
          Stats.ratio (field (fun r -> r.Replay.naive_scans)) (field (fun r -> r.Replay.shared_scans)) );
      ]
      @ List.map (fun t -> ("eval.exec_ms." ^ t, 0.)) Report.olap_templates
      @ [
          ("eval.exec_ms.fig3.domains2", 0.);
          ("eval.chunks", counter "eval.chunks" /. completed);
          ("eval.peak_rows", 0.);
          ("gmdj.detail_passes", counter "gmdj.detail_passes" /. completed);
          ("gmdj.detail_rows", counter "gmdj.detail_rows_scanned" /. completed);
          ("gmdj.theta_evals", 0.);
          ("gmdj.early_exits", counter "gmdj.early_exits" /. completed);
          ("exchange.rows", counter "exchange.rows" /. completed);
          ("exchange.chunks", counter "exchange.chunks" /. completed);
          ("storage.pull_ms", 0.);
          ("storage.page_reads", reads /. completed);
          ("storage.pool_hit_rate", Stats.ratio pool_hits (pool_hits +. reads));
          ("ingest.apply_ms", ms (writes (fun r -> r.Replay.apply_seconds)) /. appends);
          ( "ingest.refresh_ms",
            ms
              (writes (fun r -> r.Replay.ingest_seconds -. r.Replay.flushed_seconds -. r.Replay.apply_seconds))
            /. appends );
          ("ingest.maintain_delta", counter "ingest.maintain.delta");
          ("ingest.maintain_recompute", counter "ingest.maintain.recompute");
          ( "gc.alloc_mb_per_query",
            !alloc /. 1e6 /. Float.max 1. (float_of_int (sum (fun e -> e.trace.Replay.offered) plain)) );
          ("gc.major_collections", float_of_int !majors);
          ("obs.trace_overhead_pct", overhead);
          ("obs.unattributed_pct", unattributed);
        ];
    notes;
  }
