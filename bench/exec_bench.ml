(* The streaming-executor benchmark: the zoo's same-detail batch with
   the detail table I resident in a heap file larger than the buffer
   pool.

   Part A runs each template through Eval.eval_exec with a heap-file
   source provider at |I| = N and |I| = 2N: the reported peak of
   executor-materialized rows must not grow with the detail cardinality
   (the pipelined GMDJ holds |O| accumulators, never the detail).

   Part B replays the paper's I/O argument through the pool: k chained
   GMDJs read the detail file k times, the coalesced GMDJ once.

   Part C counts θ evaluations for the zoo shapes whose completions join
   on the push-down's [<=>] keys (Thms 3.3/3.4), at O/I/J 64/1024 and
   128/4096: with those keys hashed, every detail row costs at most one
   θ evaluation; with the inner GMDJ key-factorized, the detail rows of
   both GMDJs together stay below |I| + |J| (the inner GMDJ's base is the
   distinct keys, not the push-down product).

   Part D times [GROUP BY SourceIP] with SUM, COUNT, MIN and AVG of
   NumBytes over an in-memory Flow against the GMDJ fold computing the
   same aggregates over the same rows, its base the distinct SourceIPs:
   the two aggregation paths side by side, results checked equal.

   Part E runs the paper's Fig. 3 fold — SUM(NumBytes) by SourceIP
   against User — over a Flow heap file and counts its key probes: with
   SourceIP dictionary-coded, the fold looks each code up once, so the
   probes stay within the distinct codes plus the pages, where hashing
   every row would make one per row; and the rows the scan's chunks
   build from their column vectors: the fold reads the codes and the
   int vector, so it builds none.

   Writes BENCH_exec.json; scripts/check.sh gates peak rows and page
   reads against the committed baseline, and the key probes against
   the codes and pages and the rows built against zero. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module J = Subql_obs.Json

let templates = [ "exists"; "agg-sum"; "in" ]

let plan q = Subql.Optimize.optimize (Subql.Transform.to_algebra q)

(* Evaluate one template with I streamed off its heap file; returns the
   run report, verifying the result against the in-memory evaluator. *)
let run_streamed catalog hf ~pool name =
  let p = plan (Zoo.find_query name) in
  let sources table =
    if table = "I" then Some (Subql_storage.Heap_file.source hf ~pool) else None
  in
  let streamed, report = Subql.Eval.eval_exec ~sources catalog p in
  let in_memory = Subql.Eval.eval catalog p in
  if not (Relation.equal_as_multiset streamed in_memory) then
    failwith (Printf.sprintf "exec bench: %s: streamed result differs" name);
  report

(* The zoo shapes whose GMDJ conditions carry [<=>] keys, at the size
   the repository benchmark runs them and at 4x the detail. *)
let theta_templates = [ "non-neighboring"; "double-negation-division"; "multi-from-non-neighboring" ]

let theta_sizes = [ (64, 1024); (128, 4096) ]

type theta_count = {
  template : string;
  outer : int;
  inner : int;
  stats : Subql_gmdj.Gmdj.stats;
  peak_rows : int;
}

let theta_counts ~seed =
  List.concat_map
    (fun (outer, inner) ->
      let catalog = Zoo.catalog ~outer ~inner ~seed () in
      List.map
        (fun template ->
          let stats = Subql_gmdj.Gmdj.fresh_stats () in
          let _, report =
            Subql.Eval.eval_exec ~gmdj_stats:stats catalog (plan (Zoo.find_query template))
          in
          { template; outer; inner; stats; peak_rows = report.Subql.Eval.peak_materialized_rows })
        theta_templates)
    theta_sizes

(* Part D.  The two sides alternate for [trials] trials, each after a
   full major collection, and each keeps its best trial. *)
type group_vs_gmdj = {
  flows : int;
  groups : int;
  group_by_ms : float;
  gmdj_ms : float;
  same : bool;
}

let trials = 9

let group_by_vs_gmdj ~flows ~seed =
  let flow =
    Relation.rename "f"
      (Catalog.find
         (Subql_workload.Netflow.generate
            { Subql_workload.Netflow.default_config with n_flows = flows; seed })
         "Flow")
  in
  let keys = [ (Some "f", "SourceIP") ] in
  let nb = Expr.attr ~rel:"f" "NumBytes" in
  let aggs = Aggregate.[ sum nb "s"; count nb "c"; min_ nb "m"; avg nb "a" ] in
  let base = Relation.rename "b" (Ops.group_by ~keys ~aggs:[] (Chunk.Source.of_relation flow)) in
  let block =
    Subql_gmdj.Gmdj.block aggs (Expr.eq (Expr.attr ~rel:"b" "SourceIP") (Expr.attr ~rel:"f" "SourceIP"))
  in
  let group_by () = Ops.group_by ~keys ~aggs (Chunk.Source.of_relation flow) in
  let gmdj () = Subql_gmdj.Gmdj.eval ~domains:1 ~base (Chunk.Source.of_relation flow) [ block ] in
  let best_g = ref infinity and best_m = ref infinity in
  let time best f =
    Gc.full_major ();
    let r, dt = Subql_obs.Clock.time f in
    if dt < !best then best := dt;
    r
  in
  let same = ref true in
  for _ = 1 to trials do
    let g = time best_g group_by in
    let m = time best_m gmdj in
    same :=
      !same
      && Relation.cardinality g = Relation.cardinality m
      && Array.for_all2 Tuple.equal (Relation.rows g) (Relation.rows m)
  done;
  {
    flows;
    groups = Relation.cardinality base;
    group_by_ms = 1000. *. !best_g;
    gmdj_ms = 1000. *. !best_m;
    same = !same;
  }

let with_heap_file rel f =
  let path = Filename.temp_file "subql_exec" ".heap" in
  let hf = Subql_storage.Heap_file.write ~path rel in
  Fun.protect
    ~finally:(fun () ->
      Subql_storage.Heap_file.close hf;
      Sys.remove path)
    (fun () -> f hf)

(* Part E. *)
type keyed_probes = {
  kp_flows : int;
  kp_pages : int;
  distinct_codes : int;
  key_probes : int;
  rows_materialized : int;
  kp_verified : bool;
}

let keyed_probes ~flows ~seed =
  let catalog =
    Subql_workload.Netflow.generate { Subql_workload.Netflow.default_config with n_flows = flows; seed }
  in
  let flow = Catalog.find catalog "Flow" in
  let user = Relation.rename "u" (Catalog.find catalog "User") in
  let block =
    Subql_gmdj.Gmdj.block
      [ Aggregate.sum (Expr.attr ~rel:"f" "NumBytes") "s" ]
      (Expr.eq (Expr.attr ~rel:"f" "SourceIP") (Expr.attr ~rel:"u" "IPAddress"))
  in
  let distinct =
    Relation.cardinality (Ops.group_by ~keys:[ (None, "SourceIP") ] ~aggs:[] (Chunk.Source.of_relation flow))
  in
  let in_memory =
    Subql_gmdj.Gmdj.eval ~domains:1 ~base:user
      (Chunk.Source.of_relation (Relation.rename "f" flow))
      [ block ]
  in
  with_heap_file flow (fun hf ->
      let pool = Subql_storage.Buffer_pool.create ~frames:16 in
      let source = Ops.rename "f" (Subql_storage.Heap_file.source ~columns:[| 0; 5 |] hf ~pool) in
      let stats = Subql_gmdj.Gmdj.fresh_stats () in
      let built = Chunk.rows_built () in
      let paged = Subql_gmdj.Gmdj.eval ~stats ~domains:1 ~base:user source [ block ] in
      let rows_materialized = Chunk.rows_built () - built in
      {
        kp_flows = flows;
        kp_pages = Subql_storage.Heap_file.pages hf;
        distinct_codes = distinct;
        key_probes = stats.Subql_gmdj.Gmdj.key_probes;
        rows_materialized;
        kp_verified = Relation.equal_as_multiset paged in_memory;
      })

let run (options : Figures.options) =
  let out = "BENCH_exec.json" in
  let outer = if options.Figures.full then 500 else 64 in
  let inner = if options.Figures.full then 200_000 else 20_000 in
  let frames = 16 in
  let catalog_at n = Zoo.catalog ~outer ~inner:n ~seed:options.Figures.seed () in
  let small = catalog_at inner and big = catalog_at (2 * inner) in
  let measure catalog =
    with_heap_file (Catalog.find catalog "I") (fun hf ->
        let pool = Subql_storage.Buffer_pool.create ~frames in
        ( Subql_storage.Heap_file.pages hf,
          List.map (fun name -> (name, run_streamed catalog hf ~pool name)) templates ))
  in
  let pages_small, at_n = measure small in
  let pages_big, at_2n = measure big in
  let peak_of reports =
    List.fold_left
      (fun acc (_, r) -> max acc r.Subql.Eval.peak_materialized_rows)
      0 reports
  in
  let peak_n = peak_of at_n and peak_2n = peak_of at_2n in
  (* Part B: chained vs coalesced page I/O over the same heap file. *)
  let base = Relation.rename "o" (Catalog.find small "O") in
  let corr = Expr.eq (Expr.attr ~rel:"i" "k") (Expr.attr ~rel:"o" "k") in
  let b1 = Subql_gmdj.Gmdj.block [ Aggregate.count_star "c" ] corr in
  let b2 = Subql_gmdj.Gmdj.block [ Aggregate.sum (Expr.attr ~rel:"i" "y") "s" ] corr in
  let chained_reads, coalesced_reads, paged_verified =
    with_heap_file (Relation.rename "i" (Catalog.find small "I")) (fun hf ->
        let reads f =
          let pool = Subql_storage.Buffer_pool.create ~frames in
          let r = f pool in
          ((Subql_storage.Buffer_pool.stats pool).Subql_storage.Buffer_pool.page_reads, r)
        in
        let gmdj pool base blocks =
          Subql_gmdj.Gmdj.eval ~domains:1 ~base (Subql_storage.Heap_file.source hf ~pool) blocks
        in
        let chained, r_chained =
          reads (fun pool ->
              List.fold_left (fun base blocks -> gmdj pool base blocks) base [ [ b1 ]; [ b2 ] ])
        in
        let coalesced, r_coalesced = reads (fun pool -> gmdj pool base [ b1; b2 ]) in
        (chained, coalesced, Relation.equal_as_multiset r_chained r_coalesced))
  in
  let thetas = theta_counts ~seed:options.Figures.seed in
  let flows = if options.Figures.full then 400_000 else 100_000 in
  let gvm = group_by_vs_gmdj ~flows ~seed:options.Figures.seed in
  let kp = keyed_probes ~flows ~seed:options.Figures.seed in
  let run_json reports =
    J.List
      (List.map
         (fun (name, r) ->
           J.Obj
             [
               ("template", J.Str name);
               ("peak_rows", J.Int r.Subql.Eval.peak_materialized_rows);
               ("chunks", J.Int r.Subql.Eval.chunks);
             ])
         reports)
  in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "exec");
        ("scale", J.Str (if options.Figures.full then "full" else "default"));
        ("outer_rows", J.Int outer);
        ("inner_rows", J.Int inner);
        ("pool_frames", J.Int frames);
        ("detail_pages", J.Int pages_small);
        ("detail_pages_2x", J.Int pages_big);
        ("streaming_at_n", run_json at_n);
        ("streaming_at_2n", run_json at_2n);
        ("peak_rows", J.Int peak_n);
        ("peak_rows_2x", J.Int peak_2n);
        ("chained_page_reads", J.Int chained_reads);
        ("coalesced_page_reads", J.Int coalesced_reads);
        ( "theta_counts",
          J.List
            (List.map
               (fun t ->
                 J.Obj
                   [
                     ("template", J.Str t.template);
                     ("outer_rows", J.Int t.outer);
                     ("inner_rows", J.Int (2 * t.inner));
                     ("theta_evals", J.Int t.stats.Subql_gmdj.Gmdj.theta_evals);
                     ("detail_rows", J.Int t.stats.Subql_gmdj.Gmdj.detail_scanned);
                     ("peak_rows", J.Int t.peak_rows);
                   ])
               thetas) );
        ( "group_by_vs_gmdj",
          J.Obj
            [
              ("flows", J.Int gvm.flows);
              ("groups", J.Int gvm.groups);
              ("group_by_ms", J.Float gvm.group_by_ms);
              ("gmdj_ms", J.Float gvm.gmdj_ms);
              ("ratio", J.Float (gvm.group_by_ms /. gvm.gmdj_ms));
              ("verified", J.Bool gvm.same);
            ] );
        ( "keyed_probes",
          J.Obj
            [
              ("flows", J.Int kp.kp_flows);
              ("pages", J.Int kp.kp_pages);
              ("distinct_codes", J.Int kp.distinct_codes);
              ("bound", J.Int (kp.distinct_codes + kp.kp_pages));
              ("key_probes", J.Int kp.key_probes);
              ("rows_materialized", J.Int kp.rows_materialized);
              ("verified", J.Bool kp.kp_verified);
            ] );
        ("verified", J.Bool paged_verified);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.== exec: streaming executor over a disk-resident detail ==@.";
  Format.printf "wrote %s@." out;
  Format.printf
    "detail I: %d rows on %d pages (pool: %d frames) — peak materialized rows:@." inner
    pages_small frames;
  Format.printf "  |I| = %-8d %6d rows peak@." inner peak_n;
  Format.printf "  |I| = %-8d %6d rows peak (pipelined: independent of |I|)@." (2 * inner)
    peak_2n;
  Format.printf "page reads over %d data pages:@." pages_small;
  Format.printf "  chained (2 GMDJs)  %6d@." chained_reads;
  Format.printf "  coalesced (1 GMDJ) %6d@." coalesced_reads;
  Format.printf "push-down shapes (|I| + |J| inner rows):@.";
  List.iter
    (fun t ->
      Format.printf "  %-28s O/I/J %d/%-5d %8d θ-evals, %6d detail rows of %6d, peak %6d rows@."
        t.template t.outer t.inner t.stats.Subql_gmdj.Gmdj.theta_evals
        t.stats.Subql_gmdj.Gmdj.detail_scanned (2 * t.inner) t.peak_rows)
    thetas;
  Format.printf
    "GROUP BY SourceIP vs GMDJ, %d flows, %d groups (best of %d): %.1f ms vs %.1f ms \
     (%.2fx), results equal: %b@."
    gvm.flows gvm.groups trials gvm.group_by_ms gvm.gmdj_ms
    (gvm.group_by_ms /. gvm.gmdj_ms)
    gvm.same;
  Format.printf
    "Fig. 3 fold over a Flow heap file, %d flows on %d pages: %d key probes (%d distinct \
     SourceIPs + %d pages = %d), %d rows built, results equal: %b@."
    kp.kp_flows kp.kp_pages kp.key_probes kp.distinct_codes kp.kp_pages
    (kp.distinct_codes + kp.kp_pages) kp.rows_materialized kp.kp_verified;
  Format.printf "verified: %b@." paged_verified;
  if not (paged_verified && gvm.same && kp.kp_verified) then exit 1;
  (* The tentpole claim, enforced: streaming peak memory must not track
     the detail cardinality. *)
  if peak_2n > peak_n + (peak_n / 5) then begin
    Format.printf "FAIL: peak materialized rows grew with the detail (%d -> %d)@." peak_n
      peak_2n;
    exit 1
  end
