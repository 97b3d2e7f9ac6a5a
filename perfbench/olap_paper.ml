(* Workload olap-paper: one closed-loop client sends the SQL text of
   the paper's Section 5 queries (Figures 2-5, over the netflow
   warehouse) and of the six nested zoo shapes behind Thms 3.2-3.4
   (over the in-memory O/I/J tables), each through parse -> translate
   -> optimize -> Eval.eval_exec.

   Flow is read from a heap file through a buffer pool more than ten
   times smaller than the file, so this is the one workload larger than
   the program's own cache.  Templates run round-robin, a fixed number
   of rounds, spread over several episodes that each generate their own
   data from the seed: early-exit queries cost what the data decides,
   so one draw of the data would otherwise set the run's figures.
   Latency percentiles are taken per template (their costs differ by
   orders of magnitude) and combined by geometric mean. *)

open Subql_relational
module Heap_file = Subql_storage.Heap_file
module Buffer_pool = Subql_storage.Buffer_pool

type sizes = {
  users : int;
  flows : int;
  outer : int;  (** rows of the zoo's O *)
  inner : int;  (** rows of each of I and J *)
  frames : int;  (** buffer-pool frames for the Flow heap file *)
  rounds : int;  (** timed samples per template, over all episodes *)
  episodes : int;  (** data sets per run, one at a time; setup_s is the median set-up *)
  append_rows : int;  (** rows per timed heap-file append, one append per untraced round *)
}

let sizes ~seconds =
  {
    users = 100;
    flows = 100_000;
    outer = 64;
    inner = 1024;
    frames = 64;
    rounds = 9 * seconds;
    episodes = 5;
    append_rows = 1000;
  }

let tiny =
  {
    users = 20;
    flows = 2_000;
    outer = 8;
    inner = 64;
    frames = 4;
    rounds = 4;
    episodes = 2;
    append_rows = 10;
  }

(* Figures 2-5 of the paper, as a client would send them. *)
let figure_sql =
  [
    ( "fig2",
      "SELECT * FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
       u.IPAddress AND f.Protocol = 'HTTP')" );
    ( "fig3",
      "SELECT * FROM User u WHERE u.Quota < (SELECT SUM(f.NumBytes) FROM Flow f WHERE \
       f.SourceIP = u.IPAddress)" );
    ( "fig4",
      "SELECT * FROM User u WHERE u.IPAddress <> ALL (SELECT f.SourceIP FROM Flow f WHERE \
       f.NumBytes > 150000)" );
    ( "fig5",
      "SELECT * FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
       u.IPAddress AND f.Protocol = 'HTTP') AND EXISTS (SELECT * FROM Flow g WHERE \
       g.DestIP = u.IPAddress AND g.NumBytes > 400000)" );
  ]

type template = { name : string; sql : string; catalog : Catalog.t }

(* One episode's data: the netflow warehouse with Flow in a heap file,
   and the zoo's O/I/J tables in memory. *)
type state = {
  templates : template array;  (** in {!Report.olap_templates} order *)
  heap : Heap_file.t;
  pool : Buffer_pool.t;
  netflow_config : Subql_workload.Netflow.config;
  config : Subql.Eval.config;
}

let release s =
  let path = Heap_file.path s.heap in
  Heap_file.close s.heap;
  Sys.remove path

(* Table scans of Flow page through the heap file; with [traced] every
   pull runs inside a "storage.pull" span. *)
let sources s ~traced ~query name =
  if name <> "Flow" then None
  else
    let src = Heap_file.source s.heap ~pool:s.pool in
    if not traced then Some src
    else
      Some
        (Chunk.Source.create
           ~close:(fun () -> Chunk.Source.close src)
           ~schema:(Chunk.Source.schema src)
           (fun () -> Spans.with_span "storage.pull" ~query (fun () -> Chunk.Source.next src)))

(* One query, SQL text to result rows, each layer call in its own span. *)
let run_query ?gmdj_stats s ~traced ~query t =
  Spans.with_span "query" ~query (fun () ->
      let stmt = Spans.with_span "sql.parse" ~query (fun () -> Subql_sql.Parser.parse t.sql) in
      let alg =
        Spans.with_span "core.translate" ~query (fun () ->
            Subql.Transform.to_algebra stmt.Subql_sql.Parser.query)
      in
      let plan = Spans.with_span "core.optimize" ~query (fun () -> Subql.Optimize.optimize alg) in
      Spans.with_span "eval.exec" ~query (fun () ->
          Subql.Eval.eval_exec ~config:s.config ?gmdj_stats ~sources:(sources s ~traced ~query)
            t.catalog plan))

let setup ~seed sizes =
  let netflow_config =
    {
      Subql_workload.Netflow.default_config with
      Subql_workload.Netflow.n_users = sizes.users;
      n_flows = sizes.flows;
      n_source_ips = max 64 (sizes.users / 2);
      n_dest_ips = max 64 (sizes.users / 2);
      user_ip_match_fraction = 1.0;
      seed;
    }
  in
  let netflow = Subql_workload.Netflow.generate netflow_config in
  let zoo = Subql_workload.Zoo.catalog ~outer:sizes.outer ~inner:sizes.inner ~seed () in
  let path = Filename.temp_file "perfbench_flow" ".heap" in
  let heap = Heap_file.write ~path (Catalog.find netflow "Flow") in
  let template name =
    match List.assoc_opt name figure_sql with
    | Some sql -> { name; sql; catalog = netflow }
    | None ->
      { name; sql = Subql_sql.Render.query_to_sql (Subql_workload.Zoo.find_query name); catalog = zoo }
  in
  let s =
    {
      templates = Array.of_list (List.map template Report.olap_templates);
      heap;
      pool = Buffer_pool.create ~frames:sizes.frames;
      netflow_config;
      config = Subql.Eval.default_config;
    }
  in
  (* Warm-up: every template once, untimed. *)
  Array.iter (fun t -> ignore (run_query s ~traced:false ~query:(-1) t)) s.templates;
  s

(* The reference answer: serial in-memory evaluation of the unoptimized
   translation. *)
let reference t =
  let stmt = Subql_sql.Parser.parse t.sql in
  Subql.Eval.eval t.catalog (Subql.Transform.to_algebra stmt.Subql_sql.Parser.query)

(* Each template's result once against the reference; returns the
   reference row counts and the templates that disagreed. *)
let verify s =
  let mismatched = ref [] in
  let expected =
    Array.map
      (fun t ->
        let want = reference t and got, _ = run_query s ~traced:false ~query:(-1) t in
        if not (Relation.equal_as_multiset want got) then mismatched := t.name :: !mismatched;
        Relation.cardinality want)
      s.templates
  in
  (expected, List.rev !mismatched)

let n_templates = List.length Report.olap_templates

(* Round [r]: every template once; every result's row count is checked
   against the reference.  [each] sees each query's template index,
   seconds and execution report; returns the round's wall seconds. *)
let round ?gmdj_stats s r ~traced ~expected ~wrong ~each =
  let t0 = Clock.now () in
  Array.iteri
    (fun i t ->
      let query = (r * n_templates) + i in
      let (rel, report), seconds = Clock.time (fun () -> run_query ?gmdj_stats s ~traced ~query t) in
      if Relation.cardinality rel <> expected.(i) then incr wrong;
      each i seconds report)
    s.templates;
  Clock.now () -. t0

let index name =
  let rec go i = function
    | [] -> invalid_arg ("Olap_paper.index: " ^ name)
    | n :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 Report.olap_templates

(* The exchange probe: fig3, the one full scan of Flow, evaluated at
   [exchange_domains] domains so that Chunk.Exchange does the routing.
   Every figure the other metrics report runs serially; the traced run
   adds [exchange_probes] of these per episode.  Returns the seconds in
   Eval.eval_exec. *)
let exchange_domains = 2

let exchange_probes = 2

let exchange_probe s ~expected ~wrong =
  let i = index "fig3" in
  let t = s.templates.(i) in
  let plan =
    Subql.Optimize.optimize
      (Subql.Transform.to_algebra (Subql_sql.Parser.parse t.sql).Subql_sql.Parser.query)
  in
  let config = { s.config with Subql.Eval.domains = exchange_domains } in
  let (rel, _), seconds =
    Clock.time (fun () ->
        Subql.Eval.eval_exec ~config ~sources:(sources s ~traced:false ~query:(-1)) t.catalog plan)
  in
  if Relation.cardinality rel <> expected.(i) then incr wrong;
  seconds

let ms x = 1000. *. x

(* Timed writes for append_p50_ms, one after each untraced round: a
   batch of fresh Flow rows appended to a heap file of its own.  Spread
   over the rounds, the appends sample the whole run as the reads do,
   and the Flow file the queries read stays as the reference saw it.
   The rows are generated before the rounds, so only the writes are
   timed. *)
type writer = {
  file : Heap_file.t;
  batches : Tuple.t array array;
  times : float array;  (** ms, one per batch *)
  mutable next : int;
}

let writer s sizes ~seed ~count =
  let path = Filename.temp_file "perfbench_writes" ".heap" in
  {
    file = Heap_file.write ~path (Relation.empty (Heap_file.schema s.heap));
    batches =
      Array.init count (fun b ->
          Subql_workload.Netflow.flow_rows
            ~seed:(Int64.add (Int64.mul seed 1_000L) (Int64.of_int b))
            s.netflow_config sizes.append_rows);
    times = Array.make count 0.;
    next = 0;
  }

let append w =
  let rows = w.batches.(w.next) in
  w.times.(w.next) <- ms (snd (Clock.time (fun () -> ignore (Heap_file.append w.file rows))));
  w.next <- w.next + 1

let release_writer w =
  let path = Heap_file.path w.file in
  Heap_file.close w.file;
  Sys.remove path

type episode = {
  setup_seconds : float;
  mismatched : string list;
  appends : float array;  (** ms *)
}

(* Episode [k] of a run: set up its own data (timed, from a compacted
   heap), check every template against the reference, on untraced runs
   ([writes]) prepare the appends, compact the heap, and hand the state
   to [rounds] with the writer and the global indices of the episode's
   rounds. *)
let episode ~seed sizes k ~writes rounds =
  let seed = Int64.add (Int64.mul seed 16L) (Int64.of_int k) in
  Gc.compact ();
  let s, setup_seconds = Clock.time (fun () -> setup ~seed sizes) in
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () ->
      let expected, mismatched = verify s in
      let per = sizes.rounds / sizes.episodes in
      let first = k * per in
      let last = if k = sizes.episodes - 1 then sizes.rounds - 1 else first + per - 1 in
      let w = if writes then Some (writer s sizes ~seed ~count:(last - first + 1)) else None in
      Fun.protect
        ~finally:(fun () -> Option.iter release_writer w)
        (fun () ->
          Gc.compact ();
          rounds s w ~expected ~first ~last;
          { setup_seconds; mismatched; appends = (match w with Some w -> w.times | None -> [||]) }))

let mismatch_notes eps =
  List.concat_map (fun e -> List.map (fun n -> "WRONG ANSWER: " ^ n ^ " disagrees with the reference") e.mismatched) eps

let mismatches eps = List.fold_left (fun acc e -> acc + List.length e.mismatched) 0 eps

let untraced ~seed sizes =
  let samples = Array.init n_templates (fun _ -> Array.make sizes.rounds 0.) in
  let rates = Array.make sizes.rounds 0. and wrong = ref 0 in
  let eps =
    List.init sizes.episodes (fun k ->
        episode ~seed sizes k ~writes:true (fun s w ~expected ~first ~last ->
            for r = first to last do
              let wall =
                round s r ~traced:false ~expected ~wrong ~each:(fun i seconds _ ->
                    samples.(i).(r) <- ms seconds)
              in
              rates.(r) <- float_of_int n_templates /. wall;
              Option.iter append w
            done))
  in
  let appends = Array.concat (List.map (fun e -> e.appends) eps) in
  let setups = Array.of_list (List.map (fun e -> e.setup_seconds) eps) in
  let setup_s = Stats.median setups in
  let p q = Array.to_list (Array.map (fun xs -> Stats.percentile xs q) samples) in
  let p50 = Stats.geomean (p 50.) and p95 = Stats.geomean (p 95.) in
  let wrong = !wrong + mismatches eps in
  let notes =
    mismatch_notes eps
    @ [
        Printf.sprintf
          "olap-paper: %d templates x %d rounds over %d episodes, serial, Flow %d rows, pool %d frames"
          n_templates sizes.rounds sizes.episodes sizes.flows sizes.frames;
      ]
    @ List.mapi
        (fun i name ->
          Printf.sprintf "  %-28s p50 %9.3f ms  p95 %9.3f ms  (n=%d)" name
            (Stats.percentile samples.(i) 50.) (Stats.percentile samples.(i) 95.)
            (Array.length samples.(i)))
        Report.olap_templates
    @ [
        Report.setup_line setups;
        Printf.sprintf "latency_p50_ms %.3f, latency_p95_ms %.3f (geometric mean over %d templates, n=%d each)"
          p50 p95 n_templates sizes.rounds;
        Printf.sprintf "throughput_qps %.2f (median over %d rounds)" (Stats.median rates) sizes.rounds;
        Printf.sprintf "append_p50_ms %.3f (n=%d heap-file appends of %d Flow rows, one per round)" (Stats.median appends)
          (Array.length appends) sizes.append_rows;
      ]
  in
  {
    Report.correct = wrong = 0;
    attempted = (n_templates * sizes.rounds) + Array.length appends;
    failed = wrong;
    values =
      [
        ("setup_s", setup_s);
        ("latency_p50_ms", p50);
        ("latency_p95_ms", p95);
        ("throughput_qps", Stats.median rates);
        ("peak_heap_mb", Measure.peak_heap_mb ());
        ("append_p50_ms", Stats.median appends);
      ];
    notes;
  }

let layer_counters = [ "gmdj.detail_passes"; "gmdj.detail_rows_scanned"; "gmdj.early_exits" ]

let exchange_counters = [ "exchange.rows"; "exchange.chunks" ]

(* Traced run: untraced and traced rounds alternate, so the tracing
   overhead compares like with like; per-layer numbers come from the
   traced rounds, allocation counts from the untraced ones, exchange
   counts from the exchange probes that end each episode.

   Attribution check: the layer calls the benchmark made (the children
   of each query span) must account for the traced rounds' wall time,
   measured separately around each round, to within
   {!Report.attribution_tolerance_pct}; otherwise the run fails. *)
let traced ~seed sizes =
  Spans.reset ();
  let stats = Subql_gmdj.Gmdj.fresh_stats () in
  let wrong = ref 0 and chunks = ref 0 and peak = ref 0 in
  let counters = Hashtbl.create 8 and reads = ref 0 and hits = ref 0 in
  let add_deltas =
    List.iter (fun (name, d) ->
        Hashtbl.replace counters name (d + Option.value ~default:0 (Hashtbl.find_opt counters name)))
  in
  let untraced_rates = ref [] and traced_rates = ref [] and traced_wall = ref 0. in
  let alloc = ref 0. and majors = ref 0 and exchange_ms = ref [] in
  let eps =
    List.init sizes.episodes (fun k ->
        episode ~seed sizes k ~writes:false (fun s _ ~expected ~first ~last ->
            for r = first to last do
              if r mod 2 = 1 then begin
                let p0 = Buffer_pool.stats s.pool in
                Spans.enabled := true;
                let wall, deltas =
                  Measure.counter_deltas layer_counters (fun () ->
                      round ~gmdj_stats:stats s r ~traced:true ~expected ~wrong ~each:(fun _ _ report ->
                          chunks := !chunks + report.Subql.Eval.chunks;
                          peak := max !peak report.Subql.Eval.peak_materialized_rows))
                in
                Spans.enabled := false;
                let p1 = Buffer_pool.stats s.pool in
                reads := !reads + p1.Buffer_pool.page_reads - p0.Buffer_pool.page_reads;
                hits := !hits + p1.Buffer_pool.hits - p0.Buffer_pool.hits;
                add_deltas deltas;
                traced_wall := !traced_wall +. wall;
                traced_rates := (float_of_int n_templates /. wall) :: !traced_rates
              end
              else begin
                let g0 = Measure.gc_now () in
                let wall = round s r ~traced:false ~expected ~wrong ~each:(fun _ _ _ -> ()) in
                untraced_rates := (float_of_int n_templates /. wall) :: !untraced_rates;
                let g = Measure.gc_since g0 in
                alloc := !alloc +. g.Measure.alloc_bytes;
                majors := !majors + g.Measure.major_collections
              end
            done;
            let probes, deltas =
              Measure.counter_deltas exchange_counters (fun () ->
                  List.init exchange_probes (fun _ -> ms (exchange_probe s ~expected ~wrong)))
            in
            add_deltas deltas;
            exchange_ms := probes @ !exchange_ms))
  in
  let spans = Spans.spans () in
  let traced_queries = float_of_int (n_templates * List.length !traced_rates) in
  let untraced_queries = float_of_int (n_templates * List.length !untraced_rates) in
  let probes = float_of_int (List.length !exchange_ms) in
  let by_name = Spans.self_by_name spans in
  let self name = match List.assoc_opt name by_name with Some (t, _) -> t | None -> 0. in
  let per_call name =
    match List.assoc_opt name by_name with Some (t, c) -> t /. float_of_int c | None -> 0.
  in
  (* Inclusive eval_exec time per template, median over traced rounds. *)
  let exec_ms =
    let per = Array.make n_templates [] in
    List.iter
      (fun (sp : Spans.span) ->
        if sp.Spans.name = "eval.exec" then
          let i = sp.Spans.query mod n_templates in
          per.(i) <- ms (Spans.duration sp) :: per.(i))
      spans;
    Array.map (fun xs -> if xs = [] then 0. else Stats.median (Array.of_list xs)) per
  in
  let layer_calls = List.fold_left (fun acc (name, (t, _)) -> if name = "query" then acc else acc +. t) 0. by_name in
  let unattributed = 100. *. Stats.ratio (!traced_wall -. layer_calls) !traced_wall in
  let attributed = unattributed <= Report.attribution_tolerance_pct in
  let counter name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name)) in
  let untraced_qps = Stats.median (Array.of_list !untraced_rates) in
  let traced_qps = Stats.median (Array.of_list !traced_rates) in
  let overhead = 100. *. (untraced_qps -. traced_qps) /. untraced_qps in
  let exchange_exec = if !exchange_ms = [] then 0. else Stats.median (Array.of_list !exchange_ms) in
  let notes =
    [
      Printf.sprintf "olap-paper traced: %.0f traced + %.0f untraced queries, %d spans" traced_queries
        untraced_queries (List.length spans);
      "per-query self time by layer (traced rounds):";
    ]
    @ List.filter_map
        (fun (name, (t, c)) ->
          if name = "query" then None
          else Some (Printf.sprintf "  %-16s %10.4f ms/query  (%d calls)" name (ms t /. traced_queries) c))
        by_name
    @ [
        Printf.sprintf
          "  layer calls %.4f s vs wall of the traced rounds %.4f s: unattributed %.3f%% (tolerance %.0f%%)"
          layer_calls !traced_wall unattributed Report.attribution_tolerance_pct;
        Printf.sprintf "  throughput untraced %.2f q/s, traced %.2f q/s: tracing overhead %.2f%%" untraced_qps
          traced_qps overhead;
        Printf.sprintf "  exchange probe: fig3 at %d domains, eval_exec p50 %.3f ms (n=%.0f), %.0f rows and %.0f chunks per query"
          exchange_domains exchange_exec probes
          (Stats.ratio (counter "exchange.rows") probes)
          (Stats.ratio (counter "exchange.chunks") probes);
      ]
    @ (if attributed then []
       else [ "ATTRIBUTION FAILED: the layer calls do not account for the wall time within tolerance" ])
    @ mismatch_notes eps
  in
  let wrong = !wrong + mismatches eps in
  let per_query name = counter name /. traced_queries in
  {
    Report.correct = wrong = 0 && attributed;
    attempted = (n_templates * sizes.rounds) + List.length !exchange_ms;
    failed = wrong;
    values =
      [
        ("sql.parse_us", 1e6 *. per_call "sql.parse");
        ("core.translate_us", 1e6 *. per_call "core.translate");
        ("core.optimize_us", 1e6 *. per_call "core.optimize");
        ("server.loop_wait_ms", 0.);
        ("server.submit_us", 0.);
        ("server.batch_ms", 0.);
        ("server.exec_us_per_query", 0.);
        ("server.batch_size", 0.);
        ("server.queue_wait_ms", 0.);
        ("server.service_p50_ms", 0.);
        ("server.service_p95_ms", 0.);
        ("server.rejected", 0.);
        ("mqo.cache_hit_ratio", 0.);
        ("mqo.scans_per_query", 0.);
        ("mqo.sharing_ratio", 0.);
      ]
      @ List.mapi (fun i t -> ("eval.exec_ms." ^ t, exec_ms.(i))) Report.olap_templates
      @ [
          ("eval.exec_ms.fig3.domains2", exchange_exec);
          ("eval.chunks", float_of_int !chunks /. traced_queries);
          ("eval.peak_rows", float_of_int !peak);
          ("gmdj.detail_passes", per_query "gmdj.detail_passes");
          ("gmdj.detail_rows", per_query "gmdj.detail_rows_scanned");
          ("gmdj.theta_evals", float_of_int stats.Subql_gmdj.Gmdj.theta_evals /. traced_queries);
          ("gmdj.early_exits", per_query "gmdj.early_exits");
          ("exchange.rows", Stats.ratio (counter "exchange.rows") probes);
          ("exchange.chunks", Stats.ratio (counter "exchange.chunks") probes);
          ("storage.pull_ms", ms (self "storage.pull") /. traced_queries);
          ("storage.page_reads", float_of_int !reads /. traced_queries);
          ("storage.pool_hit_rate", Stats.ratio (float_of_int !hits) (float_of_int (!hits + !reads)));
          ("ingest.apply_ms", 0.);
          ("ingest.refresh_ms", 0.);
          ("ingest.maintain_delta", 0.);
          ("ingest.maintain_recompute", 0.);
          ("gc.alloc_mb_per_query", !alloc /. 1e6 /. untraced_queries);
          ("gc.major_collections", float_of_int !majors);
          ("obs.trace_overhead_pct", overhead);
          ("obs.unattributed_pct", unattributed);
        ];
    notes;
  }
