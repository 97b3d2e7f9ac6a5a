(* Workloads, engines, and the measurement driver for the paper's four
   experiments (Figures 2-5) and the Section-4 ablations. *)

open Subql_relational
open Subql_nested
open Subql_workload
module N = Nested_ast

(* ------------------------------------------------------------------ *)
(* Engines                                                              *)
(* ------------------------------------------------------------------ *)

(* Cost class drives the skip heuristic: [Quadratic] engines touch
   outer × inner tuple pairs, [Linear] engines a few passes of each. *)
type cost_class = Linear | Quadratic

type engine = {
  e_name : string;
  run : Catalog.t -> N.query -> Relation.t;
  cost : cost_class;
}

let native_plain =
  {
    e_name = "native-plain";
    run = (fun catalog q -> Naive_eval.eval ~mode:Naive_eval.Plain catalog q);
    cost = Quadratic;
  }

let native_smart =
  {
    e_name = "native-smart";
    run = (fun catalog q -> Naive_eval.eval ~mode:Naive_eval.Smart catalog q);
    cost = Linear;
  }

(* The "smart" native evaluator builds an inner hash index only for
   equi-correlations; on non-equi correlations (Fig. 4) its early
   termination still leaves outer × inner work in the worst case. *)
let native_smart_quadratic = { native_smart with cost = Quadratic }

let unnest_indexed =
  {
    e_name = "unnest-join";
    run =
      (fun catalog q -> Subql.Eval.eval catalog (Subql.Unnest.best catalog q));
    cost = Linear;
  }

let unnest_noindex =
  {
    e_name = "unnest-noidx";
    run =
      (fun catalog q ->
        Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog
          (Subql.Unnest.best catalog q));
    cost = Quadratic;
  }

(* Without indexes a DBMS cannot run the cheap semi-join plans; the
   unnested query becomes materialized outer joins + grouping (the
   "DBMS struggles" case of the paper's Figure 5 discussion). *)
let unnest_expansion_noindex =
  {
    e_name = "unnest-noidx";
    run =
      (fun catalog q ->
        Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog
          (Subql.Unnest.via_joins catalog q));
    cost = Quadratic;
  }

let gmdj_basic =
  {
    e_name = "gmdj";
    run = (fun catalog q -> Subql.Eval.eval catalog (Subql.Transform.to_algebra q));
    cost = Linear;
  }

let gmdj_basic_quadratic = { gmdj_basic with cost = Quadratic }

let gmdj_optimized =
  {
    e_name = "gmdj-opt";
    run =
      (fun catalog q ->
        Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra q)));
    cost = Linear;
  }

(* With a <> correlation even the optimized GMDJ tests pairs; completion
   only prunes the live set.  Classify by the dominating term. *)
let gmdj_optimized_quadratic = { gmdj_optimized with cost = Quadratic }

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

type options = { full : bool; budget : float; seed : int64 }

let default_options = { full = false; budget = 4e8; seed = 42L }

type measurement = Seconds of float | Skipped | Disagrees of int * int

let time_run f =
  let reps = ref 0 in
  let best = ref infinity in
  let t_begin = Subql_obs.Clock.now () in
  let result = ref None in
  while !reps < 3 && (!reps = 0 || Subql_obs.Clock.now () -. t_begin < 1.0) do
    let r, dt = Subql_obs.Clock.time f in
    if dt < !best then best := dt;
    result := Some r;
    incr reps
  done;
  (!best, Option.get !result)

let pair_cost ~outer ~inner = float_of_int outer *. float_of_int inner

let measure options ~outer ~inner engine catalog query ~expect =
  let too_expensive =
    match engine.cost with
    | Linear -> false
    | Quadratic -> pair_cost ~outer ~inner > options.budget
  in
  if too_expensive then Skipped
  else
    let seconds, result = time_run (fun () -> engine.run catalog query) in
    let n = Relation.cardinality result in
    match !expect with
    | None ->
      expect := Some n;
      Seconds seconds
    | Some m when m = n -> Seconds seconds
    | Some m -> Disagrees (m, n)

let pp_measurement ppf = function
  | Seconds s -> Format.fprintf ppf "%10.3fs" s
  | Skipped -> Format.fprintf ppf "%11s" "(skipped)"
  | Disagrees (want, got) -> Format.fprintf ppf " !%d<>%d" want got

(* ------------------------------------------------------------------ *)
(* Figure driver                                                        *)
(* ------------------------------------------------------------------ *)

type point = {
  label : string;
  outer : int;
  inner : int;
  catalog : Catalog.t;
  query : N.query;
}

type figure = {
  f_name : string;
  title : string;
  expectation : string;  (** the qualitative shape reported by the paper *)
  engines : engine list;
  points : options -> point list;
}

let run_figure options fig =
  Format.printf "@.== %s: %s ==@." fig.f_name fig.title;
  Format.printf "paper: %s@.@." fig.expectation;
  let points = fig.points options in
  Format.printf "%-24s" "rows (outer/inner)";
  List.iter (fun e -> Format.printf "%11s " e.e_name) fig.engines;
  Format.printf "@.";
  List.iter
    (fun point ->
      Format.printf "%-24s" point.label;
      let expect = ref None in
      List.iter
        (fun engine ->
          let m =
            measure options ~outer:point.outer ~inner:point.inner engine point.catalog
              point.query ~expect
          in
          Format.printf "%a " pp_measurement m)
        fig.engines;
      Format.printf "@.")
    points;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Workload construction                                                *)
(* ------------------------------------------------------------------ *)

let netflow_catalog options ~users ~flows =
  Netflow.generate
    {
      Netflow.default_config with
      Netflow.n_users = users;
      n_flows = flows;
      n_source_ips = max 64 (users / 2);
      n_dest_ips = max 64 (users / 2);
      user_ip_match_fraction = 1.0;
      seed = options.seed;
    }

let scaled options full_sizes =
  if options.full then full_sizes
  else List.map (fun (o, i) -> (o / 10 + 1, i / 10)) full_sizes

(* Figure 2: EXISTS subquery; outer 1000, inner 300k..1.2M. *)
let fig2 =
  let query =
    N.query ~base:(N.table "User") ~alias:"u"
      (N.exists
         ~where:
           (N.atom
              (Expr.and_
                 (Expr.eq (Expr.attr ~rel:"f" "SourceIP") (Expr.attr ~rel:"u" "IPAddress"))
                 (Expr.eq (Expr.attr ~rel:"f" "Protocol") (Expr.str "HTTP"))))
         (N.table "Flow") "f")
  in
  {
    f_name = "fig2";
    title = "EXISTS subquery (outer 1000, inner 300k-1.2M)";
    expectation =
      "joins and GMDJ beat the native evaluation; GMDJ matches joins even on this \
       simplest unnesting case";
    engines = [ native_plain; native_smart; unnest_indexed; gmdj_basic; gmdj_optimized ];
    points =
      (fun options ->
        List.map
          (fun (users, flows) ->
            {
              label = Printf.sprintf "%d/%d" users flows;
              outer = users;
              inner = flows;
              catalog = netflow_catalog options ~users ~flows;
              query;
            })
          (scaled options [ (1000, 300_000); (1000, 600_000); (1000, 900_000); (1000, 1_200_000) ]));
  }

(* Figure 3: comparison predicate with an aggregate function. *)
let fig3 =
  let query =
    N.query ~base:(N.table "User") ~alias:"u"
      (N.agg_cmp
         (Expr.attr ~rel:"u" "Quota")
         Expr.Lt
         (Aggregate.Sum (Expr.attr ~rel:"f" "NumBytes"))
         ~where:(N.atom (Expr.eq (Expr.attr ~rel:"f" "SourceIP") (Expr.attr ~rel:"u" "IPAddress")))
         (N.table "Flow") "f")
  in
  {
    f_name = "fig3";
    title = "aggregate comparison subquery (outer 500-2000, inner 300k-1.2M)";
    expectation =
      "native nested-loop degrades sharply; join unnesting and GMDJ stay flat, with \
       GMDJ the most memory-stable at the largest sizes";
    engines = [ native_plain; native_smart; unnest_indexed; gmdj_basic; gmdj_optimized ];
    points =
      (fun options ->
        List.map
          (fun (users, flows) ->
            {
              label = Printf.sprintf "%d/%d" users flows;
              outer = users;
              inner = flows;
              catalog = netflow_catalog options ~users ~flows;
              query;
            })
          (scaled options
             [ (500, 300_000); (1000, 600_000); (1500, 900_000); (2000, 1_200_000) ]));
  }

(* Figure 4: quantified ALL with a <> correlation on key attributes. *)
let fig4 =
  let query =
    N.query ~base:(N.table "User") ~alias:"u"
      (N.all_
         (Expr.attr ~rel:"u" "IPAddress")
         Expr.Ne
         ~where:(N.atom (Expr.gt (Expr.attr ~rel:"f" "NumBytes") (Expr.int 150_000)))
         (N.table "Flow") "f" ~col:"SourceIP")
  in
  {
    f_name = "fig4";
    title = "quantified ALL, <> correlation (outer = inner = 40k-160k)";
    expectation =
      "no algorithm has an index to use; the basic GMDJ devolves to tuple iteration \
       while tuple completion restores single-scan-like behaviour, as does the \
       native engine's smart nested loop";
    engines =
      [
        native_plain;
        native_smart_quadratic;
        unnest_noindex;
        gmdj_basic_quadratic;
        gmdj_optimized_quadratic;
      ];
    points =
      (fun options ->
        List.map
          (fun (users, flows) ->
            {
              label = Printf.sprintf "%d/%d" users flows;
              outer = users;
              inner = flows;
              catalog = netflow_catalog options ~users ~flows;
              query;
            })
          (scaled options [ (40_000, 40_000); (80_000, 80_000); (120_000, 120_000); (160_000, 160_000) ]));
  }

(* Figure 5: two EXISTS subqueries over the same detail table with
   disjoint correlation attributes; indexed and unindexed variants. *)
let fig5_query =
  N.query ~base:(N.table "User") ~alias:"u"
    (N.pand
       (N.exists
          ~where:
            (N.atom
               (Expr.and_
                  (Expr.eq (Expr.attr ~rel:"f" "SourceIP") (Expr.attr ~rel:"u" "IPAddress"))
                  (Expr.eq (Expr.attr ~rel:"f" "Protocol") (Expr.str "HTTP"))))
          (N.table "Flow") "f")
       (N.exists
          ~where:
            (N.atom
               (Expr.and_
                  (Expr.eq (Expr.attr ~rel:"g" "DestIP") (Expr.attr ~rel:"u" "IPAddress"))
                  (Expr.gt (Expr.attr ~rel:"g" "NumBytes") (Expr.int 400_000))))
          (N.table "Flow") "g"))

let fig5 =
  {
    f_name = "fig5";
    title = "two tree-nested EXISTS over one table (outer 1000, inner 300k-1.2M)";
    expectation =
      "with indexes the native engine and joins do well; coalescing lets the \
       optimized GMDJ evaluate both subqueries in a single scan and win";
    engines = [ native_plain; native_smart; unnest_indexed; gmdj_basic; gmdj_optimized ];
    points =
      (fun options ->
        List.map
          (fun (users, flows) ->
            {
              label = Printf.sprintf "%d/%d" users flows;
              outer = users;
              inner = flows;
              catalog = netflow_catalog options ~users ~flows;
              query = fig5_query;
            })
          (scaled options [ (1000, 300_000); (1000, 600_000); (1000, 900_000); (1000, 1_200_000) ]));
  }

let fig5_noindex =
  {
    fig5 with
    f_name = "fig5-noindex";
    title = "figure 5 without indexes on the source tables";
    expectation =
      "the native engine and join plans degrade by an order of magnitude without \
       indexes; the GMDJ is essentially unaffected (it builds its own hash \
       partitioning over the base values)";
    engines = [ native_plain; unnest_expansion_noindex; gmdj_basic; gmdj_optimized ];
  }

let figures = [ fig2; fig3; fig4; fig5; fig5_noindex ]

(* ------------------------------------------------------------------ *)
(* Machine-readable observability dump                                  *)
(* ------------------------------------------------------------------ *)

(* For every figure's smallest point, run the un-optimized (chained MDs)
   and optimized plans with GMDJ instrumentation and dump the scan
   counts as JSON.  This is the Prop. 4.1 story in machine-readable
   form: the coalesced plan's "detail_scans" collapses to the number of
   distinct detail tables (1 here) while the chained plan pays one scan
   per subquery. *)

let obs options =
  let out = "BENCH_obs.json" in
  let probe catalog plan =
    let stats = Subql_gmdj.Gmdj.fresh_stats () in
    let seconds, result =
      time_run (fun () ->
          let fresh = Subql_gmdj.Gmdj.fresh_stats () in
          let r = Subql.Eval.eval ~gmdj_stats:fresh catalog plan in
          stats.Subql_gmdj.Gmdj.detail_passes <- fresh.Subql_gmdj.Gmdj.detail_passes;
          stats.Subql_gmdj.Gmdj.detail_scanned <- fresh.Subql_gmdj.Gmdj.detail_scanned;
          stats.Subql_gmdj.Gmdj.theta_evals <- fresh.Subql_gmdj.Gmdj.theta_evals;
          r)
    in
    Subql_obs.Json.Obj
      [
        ("detail_scans", Subql_obs.Json.Int stats.Subql_gmdj.Gmdj.detail_passes);
        ("detail_rows", Subql_obs.Json.Int stats.Subql_gmdj.Gmdj.detail_scanned);
        ("theta_evals", Subql_obs.Json.Int stats.Subql_gmdj.Gmdj.theta_evals);
        ("rows_out", Subql_obs.Json.Int (Relation.cardinality result));
        ("seconds", Subql_obs.Json.Float seconds);
      ]
  in
  let entry fig =
    let point = List.hd (fig.points options) in
    let chained = Subql.Transform.to_algebra point.query in
    let optimized = Subql.Optimize.optimize chained in
    ( fig.f_name,
      Subql_obs.Json.Obj
        [
          ("point", Subql_obs.Json.Str point.label);
          ("chained", probe point.catalog chained);
          ("optimized", probe point.catalog optimized);
        ] )
  in
  let doc =
    Subql_obs.Json.Obj
      [
        ("benchmark", Subql_obs.Json.Str "obs");
        ("scale", Subql_obs.Json.Str (if options.full then "full" else "default"));
        ("figures", Subql_obs.Json.Obj (List.map entry [ fig2; fig3; fig4; fig5 ]));
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Subql_obs.Json.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.== obs: per-figure GMDJ scan counts ==@.";
  Format.printf "wrote %s@." out;
  Format.printf "%-8s %-12s %22s %22s@." "figure" "point" "chained scans/rows"
    "optimized scans/rows";
  List.iter
    (fun (name, entry) ->
      match entry with
      | Subql_obs.Json.Obj fields ->
        let str k = match List.assoc k fields with Subql_obs.Json.Str s -> s | _ -> "?" in
        let scans k =
          match List.assoc k fields with
          | Subql_obs.Json.Obj sub ->
            let int f = match List.assoc f sub with Subql_obs.Json.Int i -> i | _ -> 0 in
            Printf.sprintf "%d / %d" (int "detail_scans") (int "detail_rows")
          | _ -> "?"
        in
        Format.printf "%-8s %-12s %22s %22s@." name (str "point") (scans "chained")
          (scans "optimized")
      | _ -> ())
    (match doc with
    | Subql_obs.Json.Obj fields -> (
      match List.assoc "figures" fields with Subql_obs.Json.Obj figs -> figs | _ -> [])
    | _ -> []);
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Ablation: the Section-4 optimizations one at a time                  *)
(* ------------------------------------------------------------------ *)

let ablation options =
  let users, flows = if options.full then (1000, 600_000) else (100, 60_000) in
  let catalog = netflow_catalog options ~users ~flows in
  let alg = Subql.Transform.to_algebra fig5_query in
  let variants =
    [
      ("basic (chained MDs)", alg, Subql.Eval.default_config);
      ( "coalesced",
        Subql.Optimize.optimize ~flags:(Subql.Optimize.only ~coalesce:true ()) alg,
        Subql.Eval.default_config );
      ( "completed",
        Subql.Optimize.optimize ~flags:(Subql.Optimize.only ~completion:true ()) alg,
        Subql.Eval.default_config );
      ("coalesced+completed", Subql.Optimize.optimize alg, Subql.Eval.default_config);
      ("coalesced+completed, scan strategy", Subql.Optimize.optimize alg, Subql.Eval.unindexed_config);
    ]
  in
  Format.printf "@.== ablation: figure-5 query, %d users / %d flows ==@.@." users flows;
  Format.printf "%-40s %10s %14s %14s %6s@." "variant" "seconds" "detail-rows" "theta-evals"
    "early";
  List.iter
    (fun (name, plan, config) ->
      let stats = Subql_gmdj.Gmdj.fresh_stats () in
      let seconds, result =
        time_run (fun () ->
            let fresh = Subql_gmdj.Gmdj.fresh_stats () in
            let r = Subql.Eval.eval ~config ~gmdj_stats:fresh catalog plan in
            stats.Subql_gmdj.Gmdj.detail_scanned <- fresh.Subql_gmdj.Gmdj.detail_scanned;
            stats.Subql_gmdj.Gmdj.theta_evals <- fresh.Subql_gmdj.Gmdj.theta_evals;
            stats.Subql_gmdj.Gmdj.early_exit <- fresh.Subql_gmdj.Gmdj.early_exit;
            r)
      in
      Format.printf "%-40s %9.3fs %14d %14d %6b (%d rows)@." name seconds
        stats.Subql_gmdj.Gmdj.detail_scanned stats.Subql_gmdj.Gmdj.theta_evals
        stats.Subql_gmdj.Gmdj.early_exit (Relation.cardinality result))
    variants;
  Format.printf "@.";
  let base = Relation.rename "u" (Catalog.find catalog "User") in
  let detail = Relation.rename "f" (Catalog.find catalog "Flow") in
  let blocks =
    [
      Subql_gmdj.Gmdj.block
        [ Subql_relational.Aggregate.sum (Expr.attr ~rel:"f" "NumBytes") "bytes" ]
        (Expr.eq (Expr.attr ~rel:"f" "SourceIP") (Expr.attr ~rel:"u" "IPAddress"));
      Subql_gmdj.Gmdj.block
        [ Subql_relational.Aggregate.count_star "flows" ]
        (Expr.eq (Expr.attr ~rel:"f" "DestIP") (Expr.attr ~rel:"u" "IPAddress"));
    ]
  in
  (* Disk-resident detail: exact page I/O for chained vs coalesced GMDJs
     (the paper's central I/O argument, measured through the buffer
     pool). *)
  let path = Filename.temp_file "subql_bench" ".heap" in
  let hf = Subql_storage.Heap_file.write ~path detail in
  Fun.protect
    ~finally:(fun () ->
      Subql_storage.Heap_file.close hf;
      Sys.remove path)
    (fun () ->
      let b1 = [ List.nth blocks 0 ] and b2 = [ List.nth blocks 1 ] in
      Format.printf
        "disk-resident detail (%d pages of 8 KiB, 16-frame buffer pool):@."
        (Subql_storage.Heap_file.pages hf);
      Format.printf "%-40s %10s %12s@." "plan" "seconds" "page-reads";
      let run name plan =
        let pool = Subql_storage.Buffer_pool.create ~frames:16 in
        let seconds, _ =
          time_run (fun () ->
              Subql_storage.Buffer_pool.reset_stats pool;
              plan pool)
        in
        Format.printf "%-40s %9.3fs %12d@." name seconds
          (Subql_storage.Buffer_pool.stats pool).Subql_storage.Buffer_pool.page_reads
      in
      let gmdj pool base blocks =
        Subql_gmdj.Gmdj.eval ~domains:1 ~base (Subql_storage.Heap_file.source hf ~pool) blocks
      in
      run "chained GMDJs (two detail scans)" (fun pool ->
          List.fold_left (fun base blocks -> gmdj pool base blocks) base [ b1; b2 ]);
      run "coalesced GMDJ (one detail scan)" (fun pool -> gmdj pool base blocks));
  Format.printf "@."
