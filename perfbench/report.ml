(* The metric catalogue and the result line.

   Every workload prints the same end-to-end metrics (untraced run) or
   the same per-layer metrics (traced run); a layer a workload does not
   exercise reads 0.  BENCHMARK.json at the repository root lists the
   same names and units; run.py checks the two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("throughput_qps", "1/s");
    ("peak_heap_mb", "MB");
    ("append_p50_ms", "ms");
  ]

(* The olap-paper templates, in the order they run. *)
let olap_templates =
  [
    "fig2";
    "fig3";
    "fig4";
    "fig5";
    "linear-nesting";
    "non-neighboring";
    "double-negation-division";
    "nested-agg";
    "multi-from";
    "multi-from-non-neighboring";
  ]

let per_layer =
  [
    ("sql.parse_us", "us");
    ("core.translate_us", "us");
    ("core.optimize_us", "us");
    ("server.loop_wait_ms", "ms");
    ("server.submit_us", "us");
    ("server.batch_ms", "ms");
    ("server.exec_us_per_query", "us");
    ("server.batch_size", "count");
    ("server.queue_wait_ms", "ms");
    ("server.service_p50_ms", "ms");
    ("server.service_p95_ms", "ms");
    ("server.rejected", "count");
    ("mqo.cache_hit_ratio", "ratio");
    ("mqo.scans_per_query", "count");
    ("mqo.sharing_ratio", "ratio");
  ]
  @ List.map (fun t -> ("eval.exec_ms." ^ t, "ms")) olap_templates
  @ [
      ("eval.exec_ms.fig3.domains2", "ms");
      ("eval.chunks", "count");
      ("eval.peak_rows", "count");
      ("gmdj.detail_passes", "count");
      ("gmdj.detail_rows", "count");
      ("gmdj.theta_evals", "count");
      ("gmdj.early_exits", "count");
      ("exchange.rows", "count");
      ("exchange.chunks", "count");
      ("storage.pull_ms", "ms");
      ("storage.page_reads", "count");
      ("storage.pool_hit_rate", "ratio");
      ("ingest.apply_ms", "ms");
      ("ingest.refresh_ms", "ms");
      ("ingest.maintain_delta", "count");
      ("ingest.maintain_recompute", "count");
      ("gc.alloc_mb_per_query", "MB");
      ("gc.major_collections", "count");
      ("obs.trace_overhead_pct", "%");
      ("obs.unattributed_pct", "%");
    ]

(* The traced run's attribution check: the share of the measured wall
   time (of the traced olap-paper rounds, of the traced serve replays)
   that the separately timed layer calls do not account for, in
   percent.  A run above this tolerance fails. *)
let attribution_tolerance_pct = 5.

(* The line that reports setup_s with its sample count and range. *)
let setup_line setups =
  let sorted = Array.copy setups in
  Array.sort Float.compare sorted;
  Printf.sprintf "setup_s %.4f (median of n=%d set-ups, range %.4f-%.4f s)" (Stats.median setups)
    (Array.length setups) sorted.(0)
    sorted.(Array.length sorted - 1)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** metric name -> value *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The result line: one JSON object holding exactly the catalogue's
   metrics.  A metric the workload did not set is a harness bug. *)
let result_line ~traced o =
  let module J = Subql_obs.Json in
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("perfbench: metric " ^ name ^ " is not in the catalogue"))
    o.values;
  let metric (name, unit_) =
    match List.assoc_opt name o.values with
    | Some v when Float.is_finite v -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit_) ])
    | Some _ -> failwith ("perfbench: metric " ^ name ^ " is not finite")
    | None -> failwith ("perfbench: metric " ^ name ^ " was not measured")
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool o.correct);
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", J.Obj (List.map metric catalogue));
       ])

let print ~traced o =
  List.iter print_endline o.notes;
  print_endline (result_line ~traced o)
