(* olap_cli — generate warehouse data, run SQL with any engine, explain
   plans.

   Examples:
     olap_cli generate --workload netflow --flows 100000 --out /tmp/warehouse
     olap_cli run "SELECT * FROM User u WHERE EXISTS (SELECT * FROM Flow f \
                   WHERE f.SourceIP = u.IPAddress)" --engine gmdj-opt --time
     olap_cli explain "SELECT ..." *)

open Subql_relational
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Data sources                                                         *)
(* ------------------------------------------------------------------ *)

let netflow_catalog ~flows ~users ~seed =
  Subql_workload.Netflow.generate
    {
      Subql_workload.Netflow.default_config with
      Subql_workload.Netflow.n_flows = flows;
      n_users = users;
      seed = Int64.of_int seed;
    }

let tpc_catalog ~scale ~seed =
  let config = Subql_workload.Tpc.scaled scale in
  Subql_workload.Tpc.generate { config with Subql_workload.Tpc.seed = Int64.of_int seed }

(* On-disk format: <table>.csv plus <table>.schema with one
   "<name> <type>" line per column. *)

let ty_of_string = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" -> Value.Tstring
  | "bool" -> Value.Tbool
  | other -> failwith (Printf.sprintf "unknown column type %S in schema file" other)

let save_catalog dir catalog =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun name ->
      let rel = Catalog.find catalog name in
      Table_io.to_csv_file (Filename.concat dir (name ^ ".csv")) rel;
      let oc = open_out (Filename.concat dir (name ^ ".schema")) in
      Schema.to_list (Relation.schema rel)
      |> List.iter (fun a ->
             Printf.fprintf oc "%s %s\n" a.Schema.name (Value.ty_to_string a.Schema.ty));
      close_out oc;
      Printf.printf "wrote %s (%d rows)\n" (name ^ ".csv") (Relation.cardinality rel))
    (Catalog.tables catalog)

let load_catalog dir =
  let catalog = Catalog.create () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".schema")
  |> List.iter (fun schema_file ->
         let table = Filename.chop_suffix schema_file ".schema" in
         let attrs =
           In_channel.with_open_text (Filename.concat dir schema_file) In_channel.input_lines
           |> List.filter (fun l -> String.trim l <> "")
           |> List.map (fun line ->
                  match String.split_on_char ' ' (String.trim line) with
                  | [ name; ty ] -> Schema.attr name (ty_of_string ty)
                  | _ -> failwith (Printf.sprintf "malformed schema line %S" line))
         in
         let schema = Schema.of_list attrs in
         let rel = Table_io.of_csv_file schema (Filename.concat dir (table ^ ".csv")) in
         Catalog.add catalog table rel);
  catalog

let resolve_catalog data workload flows users scale seed =
  match data with
  | Some dir -> load_catalog dir
  | None -> (
    match workload with
    | "netflow" -> netflow_catalog ~flows ~users ~seed
    | "tpc" -> tpc_catalog ~scale ~seed
    | other -> failwith (Printf.sprintf "unknown workload %S (use netflow or tpc)" other))

(* ------------------------------------------------------------------ *)
(* Engines                                                              *)
(* ------------------------------------------------------------------ *)

let engine_names =
  [ "auto"; "native"; "native-plain"; "unnest"; "unnest-noidx"; "gmdj"; "gmdj-scan"; "gmdj-opt" ]

(* The one engine table: what each engine runs.  The native engines
   iterate the nested query directly; every other engine runs an algebra
   plan, which the instrumented paths annotate. *)
type engine_plan = Plan of Subql.Algebra.t | Native of Subql_nested.Naive_eval.mode

let gmdj_opt_plan query = Subql.Optimize.optimize (Subql.Transform.to_algebra query)

let engine_plan engine catalog query =
  match engine with
  | "auto" ->
    let c = Subql.Planner.choose catalog query in
    Format.printf "planner: chose %s (est. cost %.0f, est. rows %.0f)@."
      c.Subql.Planner.label c.Subql.Planner.estimate.Subql.Cost.cost
      c.Subql.Planner.estimate.Subql.Cost.rows;
    Plan c.Subql.Planner.plan
  | "native" -> Native Subql_nested.Naive_eval.Smart
  | "native-plain" -> Native Subql_nested.Naive_eval.Plain
  | "unnest" | "unnest-noidx" -> Plan (Subql.Unnest.best catalog query)
  | "gmdj" | "gmdj-scan" -> Plan (Subql.Transform.to_algebra query)
  | "gmdj-opt" -> Plan (gmdj_opt_plan query)
  | other ->
    failwith
      (Printf.sprintf "unknown engine %S (known: %s)" other (String.concat ", " engine_names))

let parse_sql sql =
  match Subql_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Subql_sql.Parser.Parse_error _ ->
    prerr_endline (Subql_sql.Parser.parse_exn_to_string sql);
    exit 1

(* ------------------------------------------------------------------ *)
(* Common options                                                       *)
(* ------------------------------------------------------------------ *)

let data_arg =
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~doc:"Load tables from $(docv) (as written by $(b,generate)).")

let workload_arg =
  Arg.(value & opt string "netflow" & info [ "workload" ] ~docv:"NAME" ~doc:"Built-in workload: $(b,netflow) or $(b,tpc).")

let flows_arg =
  Arg.(value & opt int 50_000 & info [ "flows" ] ~doc:"Number of Flow rows (netflow).")

let users_arg =
  Arg.(value & opt int 500 & info [ "users" ] ~doc:"Number of User rows (netflow).")

let scale_arg =
  Arg.(value & opt float 0.001 & info [ "scale" ] ~doc:"Scale factor (tpc).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Execute pipeline breakers and GMDJs across $(docv) domains. \
               The default, 1, disables the exchange: on the figure \
               queries the exchange runs several times slower than \
               serial, because it loses completion's early exit.")

let spill_budget_arg =
  Arg.(value & opt int 0 & info [ "spill-budget" ] ~docv:"ROWS"
         ~doc:"Cap pipeline-breaker hash state at $(docv) resident rows; the \
               excess is partitioned through temp heap files and merged in a \
               second pass. 0 keeps everything in memory.")

(* Apply the execution-mode flags to a base config.  --spill-budget 0 means
   "never spill"; Eval gives an explicit budget precedence over the exchange
   at breakers, so both flags compose. *)
let exec_config base ~domains ~spill_budget =
  {
    base with
    Subql.Eval.domains;
    spill_budget_rows = (if spill_budget <= 0 then None else Some spill_budget);
  }

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run workload flows users scale seed out =
    let catalog = resolve_catalog None workload flows users scale seed in
    save_catalog out catalog
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload and write it as CSV files")
    Term.(const run $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg $ out_arg)

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let run_cmd =
  let engine_arg =
    Arg.(value & opt string "gmdj-opt" & info [ "engine" ] ~docv:"ENGINE"
           ~doc:(Printf.sprintf "One of: %s." (String.concat ", " engine_names)))
  in
  let time_arg = Arg.(value & flag & info [ "time" ] ~doc:"Report evaluation time.") in
  let explain_analyze_arg =
    Arg.(value & flag & info [ "explain-analyze"; "analyze" ]
           ~doc:"Evaluate with full instrumentation and print the annotated plan tree \
                 (rows in/out, timings, buffer-pool hits/reads, GMDJ detail-scan counts).")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"After the query, dump the process metrics registry (counters, gauges, \
                 histograms).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Record execution spans and export them as Chrome-tracing JSON to $(docv) \
                 (open with chrome://tracing or Perfetto).")
  in
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Print at most this many rows.")
  in
  let run data workload flows users scale seed domains spill_budget engine timed
      explain_analyze metrics trace_file limit sql =
    let catalog = resolve_catalog data workload flows users scale seed in
    let stmt = parse_sql sql in
    Option.iter (fun _ -> Subql_obs.Trace.set_enabled true) trace_file;
    let query = stmt.Subql_sql.Parser.query in
    let config =
      let base =
        if engine = "gmdj-scan" || engine = "unnest-noidx" then Subql.Eval.unindexed_config
        else Subql.Eval.default_config
      in
      exec_config base ~domains ~spill_budget
    in
    let t0 = Subql_obs.Clock.now () in
    let feedback = ref None in
    let result =
      if engine = "auto" && not explain_analyze then begin
        (* Only the planner path records estimate feedback. *)
        let result, fb = Subql.Planner.run_with_feedback ~config catalog query in
        feedback := Some fb;
        result
      end
      else
        match engine_plan engine catalog query with
        | Native mode when not explain_analyze ->
          Subql_nested.Naive_eval.eval ~mode catalog query
        | (Plan _ | Native _) as p ->
          (* Instrumenting a native engine analyzes the optimized GMDJ plan. *)
          let plan = match p with Plan plan -> plan | Native _ -> gmdj_opt_plan query in
          if explain_analyze then begin
            let result, node = Subql.Eval.eval_analyzed ~config catalog plan in
            Format.printf "%a@." Subql_obs.Explain.pp node;
            result
          end
          else Subql.Eval.eval ~config catalog plan
    in
    let dt = Subql_obs.Clock.now () -. t0 in
    Format.printf "%a" Relation.pp (Ops.sort ~by:[] ~limit (Chunk.Source.of_relation result));
    if Relation.cardinality result > limit then
      Format.printf "(%d rows total, showing %d)@." (Relation.cardinality result) limit;
    if timed then begin
      Format.printf "engine %s: %.3fs" engine dt;
      (match !feedback with
      | Some fb ->
        Format.printf " (plan %s, q-error %.2f)" fb.Subql.Planner.candidate.Subql.Planner.label
          fb.Subql.Planner.q_error
      | None -> ());
      let peak =
        Subql_obs.Metrics.gauge_value
          (Subql_obs.Metrics.gauge Subql_obs.Metrics.default "eval.peak_materialized_rows")
      in
      if peak > 0.0 then Format.printf ", peak %.0f materialized rows" peak;
      Format.printf "@."
    end;
    Option.iter
      (fun path ->
        Subql_obs.Trace.export path;
        Format.printf "trace written to %s@." path)
      trace_file;
    if metrics then
      Format.printf "@.== metrics ==@.%s" (Subql_obs.Metrics.render Subql_obs.Metrics.default)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Parse and evaluate a SQL query")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ domains_arg $ spill_budget_arg $ engine_arg $ time_arg $ explain_analyze_arg $ metrics_arg $ trace_arg $ limit_arg $ sql_arg)

let explain_cmd =
  let run data workload flows users scale seed sql =
    let stmt = parse_sql sql in
    let query = stmt.Subql_sql.Parser.query in
    Format.printf "Nested query expression:@.  %a@.@." Subql_nested.Nested_ast.pp_query query;
    let plan = Subql.Transform.to_algebra query in
    Format.printf "SubqueryToGMDJ translation:@.@[<v 2>  %a@]@.@." Subql.Algebra.pp plan;
    Format.printf "After coalescing and completion:@.@[<v 2>  %a@]@.@." Subql.Algebra.pp
      (Subql.Optimize.optimize plan);
    (match Subql.Unnest.via_semijoins (Catalog.create ()) query with
    | alg -> Format.printf "Classical join unnesting:@.@[<v 2>  %a@]@.@." Subql.Algebra.pp alg
    | exception Subql.Unnest.Not_applicable reason ->
      Format.printf "Classical join unnesting: not applicable (%s)@.@." reason);
    let catalog = resolve_catalog data workload flows users scale seed in
    Format.printf "Cost-based ranking over this catalog:@.";
    let stats = Subql.Cost.Stats.of_catalog catalog in
    List.iter
      (fun c ->
        Format.printf "  %-18s cost %12.0f, est. rows %8.0f, mem height %8.0f@."
          c.Subql.Planner.label c.Subql.Planner.estimate.Subql.Cost.cost
          c.Subql.Planner.estimate.Subql.Cost.rows
          (Subql.Cost.memory_height stats ~config:Subql.Eval.default_config
             c.Subql.Planner.plan))
      (Subql.Planner.candidates ~stats catalog query)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the plans every engine would run")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ sql_arg)

let batch_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"File of SQL queries separated by semicolons.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the whole batch $(docv) times against one result cache — later \
                 rounds demonstrate cache hits.")
  in
  let min_cost_arg =
    Arg.(value & opt float 0. & info [ "cache-min-cost" ] ~docv:"COST"
           ~doc:"Cost-aware admission threshold: only results whose plan cost estimate \
                 is at least $(docv) enter the cache.")
  in
  let run data workload flows users scale seed file repeat min_cost =
    let catalog = resolve_catalog data workload flows users scale seed in
    let text = In_channel.with_open_text file In_channel.input_all in
    let stmts =
      String.split_on_char ';' text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map parse_sql
    in
    if stmts = [] then failwith (Printf.sprintf "no queries in %s" file);
    let queries = List.map (fun s -> s.Subql_sql.Parser.query) stmts in
    let cache = Subql_mqo.Result_cache.create ~min_cost () in
    for round = 1 to repeat do
      let report, dt = Subql_obs.Clock.time (fun () -> Subql_mqo.Batch.run ~cache catalog queries) in
      Format.printf "round %d: %d queries in %.3fs@." round (List.length queries) dt;
      List.iter
        (fun (i, result) -> Format.printf "  q%d: %d rows@." i (Relation.cardinality result))
        report.Subql_mqo.Batch.results;
      Format.printf "  cache: %d hits, %d misses (%d deduplicated in batch); %d entries, %d bytes resident@."
        report.Subql_mqo.Batch.cache_hits report.Subql_mqo.Batch.cache_misses
        report.Subql_mqo.Batch.deduplicated
        (Subql_mqo.Result_cache.entries cache)
        (Subql_mqo.Result_cache.resident_bytes cache);
      Format.printf "  sharing: %d queries in %d shared GMDJ groups@."
        report.Subql_mqo.Batch.grouped report.Subql_mqo.Batch.groups;
      Format.printf "  detail scans: %d (naive baseline: %d)@."
        report.Subql_mqo.Batch.shared_detail_scans
        report.Subql_mqo.Batch.naive_detail_scans
    done
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Evaluate a file of queries as one batch: fingerprint deduplication, \
             cross-query GMDJ sharing, and a result cache across repeats")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ file_arg $ repeat_arg $ min_cost_arg)

let analyze_cmd =
  let sql_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL"
           ~doc:"The query to analyze (omit when using $(b,--zoo)).")
  in
  let zoo_arg =
    Arg.(value & opt (some string) None & info [ "zoo" ] ~docv:"NAME"
           ~doc:"Analyze a query-zoo template by name, or $(b,all) for the whole zoo \
                 (over the deterministic O/I/J database).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as a JSON array.")
  in
  let certify_arg =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Run the certificate passes on top of analysis: sound cardinality \
                 intervals and the certified memory bound, parallel-merge lawfulness \
                 ($(b,PAR00x)), and delta-maintainability ($(b,ING00x)).")
  in
  let run data workload flows users scale seed zoo json certify sql =
    let targets, catalog =
      match zoo, sql with
      | Some "all", _ ->
        Subql_workload.Zoo.queries, Subql_workload.Zoo.catalog ()
      | Some name, _ ->
        [ (name, Subql_workload.Zoo.find_query name) ], Subql_workload.Zoo.catalog ()
      | None, Some sql ->
        let stmt = parse_sql sql in
        ( [ ("query", stmt.Subql_sql.Parser.query) ],
          resolve_catalog data workload flows users scale seed )
      | None, None -> failwith "pass a SQL query or --zoo NAME|all"
    in
    let errors =
      if certify then begin
        let certs =
          List.map
            (fun (label, query) -> Subql_analysis.Analyze.certify catalog ~label query)
            targets
        in
        if json then
          print_endline
            (Subql_obs.Json.to_string
               (Subql_obs.Json.List
                  (List.map Subql_analysis.Analyze.certified_to_json certs)))
        else
          List.iter
            (fun c -> Format.printf "%a@." Subql_analysis.Analyze.pp_certified c)
            certs;
        List.fold_left
          (fun n c -> n + Subql_analysis.Analyze.certified_errors c)
          0 certs
      end
      else begin
        let reports =
          List.map
            (fun (label, query) ->
              Subql_analysis.Analyze.analyze_query catalog ~label query)
            targets
        in
        if json then
          print_endline
            (Subql_obs.Json.to_string
               (Subql_obs.Json.List
                  (List.map Subql_analysis.Analyze.report_to_json reports)))
        else
          List.iter
            (fun r -> Format.printf "%a@." Subql_analysis.Analyze.pp_report r)
            reports;
        List.fold_left (fun n r -> n + Subql_analysis.Analyze.errors r) 0 reports
      end
    in
    if errors > 0 then begin
      Format.eprintf "analyze: %d error-severity diagnostic(s)@." errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis of a query's plans: schema/type checking, nullability \
             dataflow, rewrite verification, lint rules, and (with $(b,--certify)) \
             resource and soundness certificates")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ zoo_arg $ json_arg $ certify_arg $ sql_opt_arg)

(* ------------------------------------------------------------------ *)
(* Serving loop                                                         *)
(* ------------------------------------------------------------------ *)

module Server = Subql_server.Server
module Admission = Subql_server.Admission
module Driver = Subql_server.Driver

let batch_window_arg =
  Arg.(value & opt float 0.02 & info [ "batch-window" ] ~docv:"SECONDS"
         ~doc:"Seal a batch once its oldest request has waited $(docv).")

let batch_max_arg =
  Arg.(value & opt int 16 & info [ "batch-max" ] ~docv:"N"
         ~doc:"Seal a batch early once $(docv) requests are queued.")

let mem_budget_arg =
  Arg.(value & opt float 0. & info [ "mem-budget" ] ~docv:"ROWS"
         ~doc:"Per-query memory budget: reject plans whose predicted peak of \
               materialized rows (Cost.memory_height) exceeds $(docv); 0 disables \
               the gate.")

let queue_cap_arg =
  Arg.(value & opt int 128 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Request-queue depth cap; submits against a full queue are shed with \
               a retry hint.")

let serve_min_cost_arg =
  Arg.(value & opt float 0. & info [ "cache-min-cost" ] ~docv:"COST"
         ~doc:"Result-cache admission threshold (plan cost estimate).")

let serve_metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"On exit, dump the metrics registry (includes the server.* series).")

let server_config window bmax mem_budget qcap ~domains ~spill_budget =
  {
    Server.batch_window = window;
    batch_max = bmax;
    policy =
      {
        Admission.mem_budget_rows = (if mem_budget <= 0. then infinity else mem_budget);
        queue_cap = qcap;
      };
    eval_config = exec_config Subql.Eval.default_config ~domains ~spill_budget;
  }

let pp_rejection ppf (r : Admission.rejection) =
  Format.fprintf ppf "rejected [%s] %s%s" r.Admission.diag.Diag.code
    r.Admission.diag.Diag.message
    (match r.Admission.retry_after with
    | Some s -> Printf.sprintf " (retry in %.3fs)" s
    | None -> "")

let print_batch (b : Server.batch_result) =
  List.iter
    (fun (c : Server.completion) ->
      Format.printf "%s: %d rows in %.3fs@." c.Server.ticket.Server.label
        (Relation.cardinality c.Server.result)
        (c.Server.completed -. c.Server.ticket.Server.submitted))
    b.Server.completions;
  let r = b.Server.report in
  Format.printf "batch of %d: %d detail scans (naive %d), %d cache hits@."
    (List.length b.Server.completions)
    r.Subql_mqo.Batch.shared_detail_scans r.Subql_mqo.Batch.naive_detail_scans
    r.Subql_mqo.Batch.cache_hits

let latency_quantile registry q =
  let snap = Subql_obs.Metrics.snapshot registry in
  match List.assoc_opt "server.latency_seconds" snap.Subql_obs.Metrics.histograms with
  | Some h -> Subql_obs.Metrics.quantile h q
  | None -> 0.

let print_server_summary registry =
  let c name = Subql_obs.Metrics.counter_value_by_name registry name in
  Format.printf "served %d queries in %d batches; rejected %d (budget %d, shed %d)@."
    (c "server.queries_served") (c "server.batches") (c "server.rejected")
    (c "server.rejected.budget") (c "server.rejected.queue");
  if c "ingest.batches" > 0 then
    Format.printf
      "ingested %d rows in %d batches; cache repaired %d, invalidated %d \
       (maintain: %d delta, %d recompute)@."
      (c "ingest.rows_appended") (c "ingest.batches") (c "mqo.cache.repaired")
      (c "mqo.cache.invalidated")
      (c "ingest.maintain.delta") (c "ingest.maintain.recompute")

let serve_cmd =
  let run data workload flows users scale seed domains spill_budget window bmax mem_budget
      qcap min_cost metrics =
    let catalog = resolve_catalog data workload flows users scale seed in
    let config = server_config window bmax mem_budget qcap ~domains ~spill_budget in
    let cache = Subql_mqo.Result_cache.create ~min_cost () in
    let server = Server.create ~config ~cache catalog in
    let now () = Subql_obs.Clock.now () in
    Format.printf
      "serving (catalog resident, %d tables): batch window %.3fs, batch max %d, \
       queue cap %d, mem budget %s@.reading semicolon-terminated SQL from stdin; \
       EOF drains and exits@."
      (List.length (Catalog.tables catalog))
      window bmax qcap
      (if mem_budget <= 0. then "unlimited"
       else Printf.sprintf "%.0f rows" mem_budget);
    let step_due () =
      let rec go () =
        match Server.step server ~now:(now ()) with
        | Some b ->
          print_batch b;
          go ()
        | None -> ()
      in
      go ()
    in
    let submit_stmt sql =
      match Subql_sql.Parser.parse sql with
      | exception Subql_sql.Parser.Parse_error _ ->
        prerr_endline (Subql_sql.Parser.parse_exn_to_string sql)
      | stmt -> (
        match Server.submit server ~now:(now ()) stmt.Subql_sql.Parser.query with
        | Ok _ -> step_due () (* the submit may have size-sealed a batch *)
        | Error r -> Format.printf "%a@." pp_rejection r)
    in
    (* Split the input buffer into complete statements, keeping the
       trailing fragment. *)
    let pending = Buffer.create 256 in
    let flush_complete () =
      let text = Buffer.contents pending in
      Buffer.clear pending;
      let parts = String.split_on_char ';' text in
      let rec go = function
        | [] -> ()
        | [ tail ] -> Buffer.add_string pending tail
        | stmt :: rest ->
          if String.trim stmt <> "" then submit_stmt (String.trim stmt);
          go rest
      in
      go parts
    in
    let chunk = Bytes.create 4096 in
    let rec loop () =
      let timeout =
        match Server.next_deadline server with
        | Some d -> Float.max 0. (d -. now ())
        | None -> -1. (* idle: block until input *)
      in
      match Unix.select [ Unix.stdin ] [] [] timeout with
      | [], _, _ ->
        step_due ();
        loop ()
      | _ :: _, _, _ ->
        let n = Unix.read Unix.stdin chunk 0 (Bytes.length chunk) in
        if n = 0 then () (* EOF *)
        else begin
          Buffer.add_subbytes pending chunk 0 n;
          flush_complete ();
          loop ()
        end
    in
    loop ();
    let tail = String.trim (Buffer.contents pending) in
    if tail <> "" then submit_stmt tail;
    List.iter print_batch (Server.shutdown server ~now:(now ()));
    print_server_summary Subql_obs.Metrics.default;
    (* serve keeps no latency samples, only the histogram: its
       percentiles are bucket bounds, and the line says so.  drive
       prints exact ones. *)
    let registry = Subql_obs.Metrics.default in
    if Subql_obs.Metrics.counter_value_by_name registry "server.queries_served" > 0 then
      Format.printf "latency (histogram buckets) p50 %.1fms, p99 %.1fms@."
        (1000. *. latency_quantile registry 0.5)
        (1000. *. latency_quantile registry 0.99);
    if metrics then
      Format.printf "@.== metrics ==@.%s"
        (Subql_obs.Metrics.render Subql_obs.Metrics.default)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived serving loop: read a SQL stream from stdin, admit it in \
             time/size-bounded batches with memory budgets and queue backpressure, \
             drain on EOF")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ domains_arg $ spill_budget_arg $ batch_window_arg $ batch_max_arg $ mem_budget_arg
      $ queue_cap_arg $ serve_min_cost_arg $ serve_metrics_arg)

let drive_cmd =
  let outer_arg =
    Arg.(value & opt int 64 & info [ "outer" ] ~doc:"Rows in the zoo's outer table O.")
  in
  let inner_arg =
    Arg.(value & opt int 10_000 & info [ "inner" ] ~doc:"Rows in each of I and J.")
  in
  let rate_arg =
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"QPS"
           ~doc:"Open-loop arrival rate (Poisson), queries per virtual second.")
  in
  let queries_arg =
    Arg.(value & opt int 400 & info [ "queries" ] ~docv:"N"
           ~doc:"Total queries to offer (open loop) or per client (closed loop).")
  in
  let skew_arg =
    Arg.(value & opt float 0.8 & info [ "skew" ]
           ~doc:"Probability a draw comes from the shareable same-detail templates.")
  in
  let mode_arg =
    Arg.(value & opt string "open" & info [ "mode" ] ~docv:"open|closed"
           ~doc:"Open loop (imposed Poisson arrivals, sheds dropped) or closed loop \
                 (clients wait for responses, sheds retried).")
  in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Client population (closed loop).")
  in
  let think_arg =
    Arg.(value & opt float 0.005 & info [ "think" ] ~docv:"SECONDS"
           ~doc:"Per-client think time between queries (closed loop).")
  in
  let ingest_rate_arg =
    Arg.(value & opt float 0. & info [ "ingest-rate" ] ~docv:"BATCHES/S"
           ~doc:"Interleave append batches to the detail table I at $(docv) per \
                 virtual second (open loop only); 0 disables ingest.")
  in
  let ingest_batch_arg =
    Arg.(value & opt int 200 & info [ "ingest-batch" ] ~docv:"ROWS"
           ~doc:"Rows per interleaved append batch.")
  in
  let staleness_arg =
    Arg.(value & opt string "on-write" & info [ "staleness" ]
           ~docv:"on-write|recompute"
           ~doc:"Whether cached results over an appended table are brought up to \
                 date: synchronously on every append, or never (stale entries drop \
                 and queries recompute).")
  in
  let run outer inner seed domains spill_budget window bmax mem_budget qcap min_cost
      metrics rate queries skew mode clients think ingest_rate ingest_batch staleness =
    let catalog = Subql_workload.Zoo.catalog ~outer ~inner () in
    let config = server_config window bmax mem_budget qcap ~domains ~spill_budget in
    let cache = Subql_mqo.Result_cache.create ~min_cost () in
    let server = Server.create ~config ~cache catalog in
    let tseed = Int64.of_int seed in
    let summary =
      match mode with
      | "open" when ingest_rate > 0. ->
        let policy =
          match Subql_ingest.Ingest.policy_of_string staleness with
          | Some p -> p
          | None ->
            failwith
              (Printf.sprintf "unknown staleness %S (use on-write or recompute)"
                 staleness)
        in
        let ing = Subql_ingest.Ingest.create ~policy ~catalog ~cache () in
        List.iter
          (fun t ->
            ignore (Subql_ingest.Ingest.register_query ing (Subql_workload.Zoo.find_query t)))
          Subql_workload.Zoo.same_detail_templates;
        let arrivals =
          Subql_workload.Traffic.open_loop ~seed:tseed ~rate ~count:queries ~skew ()
        in
        let batch_no = ref 0 in
        let events =
          Subql_workload.Traffic.with_ingest ~rows:ingest_batch
            ~every:(1. /. ingest_rate) arrivals
          |> List.map (function
               | Subql_workload.Traffic.Query a ->
                 Driver.Query
                   {
                     Driver.at = a.Subql_workload.Traffic.at;
                     label = a.Subql_workload.Traffic.template;
                     query =
                       Subql_workload.Zoo.find_query a.Subql_workload.Traffic.template;
                   }
               | Subql_workload.Traffic.Append ia ->
                 Driver.Ingest
                   {
                     Driver.at = ia.Subql_workload.Traffic.at;
                     label = "append";
                     apply =
                       (fun () ->
                         incr batch_no;
                         let rows =
                           Subql_workload.Zoo.detail_rows
                             ~seed:(Int64.of_int ((seed * 1_000) + !batch_no))
                             ia.Subql_workload.Traffic.rows
                         in
                         ignore (Subql_ingest.Ingest.append ing ~table:"I" rows);
                         Array.length rows);
                   })
        in
        Format.printf
          "drive: open loop, %d queries at %.0f q/s + ingest %.1f batches/s x %d rows \
           (staleness %s, skew %.2f, seed %d)@."
          queries rate ingest_rate ingest_batch
          (Subql_ingest.Ingest.policy_name policy)
          skew seed;
        let ms = Driver.replay_mixed server events in
        Format.printf "ingest: %d batches, %d rows, %.3fs measured apply+maintain@."
          ms.Driver.ingest_batches ms.Driver.ingest_rows ms.Driver.ingest_seconds;
        ms.Driver.queries
      | "open" ->
        let events =
          Subql_workload.Traffic.open_loop ~seed:tseed ~rate ~count:queries ~skew ()
          |> List.map (fun (a : Subql_workload.Traffic.arrival) ->
                 {
                   Driver.at = a.Subql_workload.Traffic.at;
                   label = a.Subql_workload.Traffic.template;
                   query =
                     Subql_workload.Zoo.find_query a.Subql_workload.Traffic.template;
                 })
        in
        Format.printf "drive: open loop, %d queries at %.0f q/s (skew %.2f, seed %d)@."
          queries rate skew seed;
        Driver.replay server events
      | "closed" ->
        let streams =
          Subql_workload.Traffic.closed_loop ~seed:tseed ~clients ~per_client:queries
            ~skew ()
          |> List.map
               (List.map (fun t -> (t, Subql_workload.Zoo.find_query t)))
        in
        Format.printf
          "drive: closed loop, %d clients x %d queries, think %.3fs (skew %.2f, seed %d)@."
          clients queries think skew seed;
        Driver.run_closed server ~clients:streams ~think
      | other -> failwith (Printf.sprintf "unknown mode %S (use open or closed)" other)
    in
    Format.printf "offered %d, completed %d, shed %d, budget-rejected %d, batches %d@."
      summary.Driver.offered summary.Driver.completed summary.Driver.shed
      summary.Driver.rejected_budget summary.Driver.batches;
    let p q = 1000. *. Driver.percentile summary.Driver.latencies q in
    Format.printf "latency p50 %.1fms, p90 %.1fms, p99 %.1fms, max %.1fms@." (p 50.)
      (p 90.) (p 99.) (p 100.);
    if summary.Driver.duration > 0. then
      Format.printf "throughput %.1f q/s over %.3fs virtual (%.3fs measured evaluation)@."
        (float_of_int summary.Driver.completed /. summary.Driver.duration)
        summary.Driver.duration summary.Driver.exec_seconds;
    let per_query =
      if summary.Driver.completed = 0 then 0.
      else float_of_int summary.Driver.detail_scans /. float_of_int summary.Driver.completed
    in
    Format.printf
      "detail scans/query %.3f (naive %.2f); cache hits %d/%d; peak queue depth %d@."
      per_query
      (if summary.Driver.completed = 0 then 0.
       else
         float_of_int summary.Driver.naive_detail_scans
         /. float_of_int summary.Driver.completed)
      summary.Driver.cache_hits
      (summary.Driver.cache_hits + summary.Driver.cache_misses)
      summary.Driver.max_queue_depth;
    print_server_summary Subql_obs.Metrics.default;
    if metrics then
      Format.printf "@.== metrics ==@.%s"
        (Subql_obs.Metrics.render Subql_obs.Metrics.default)
  in
  Cmd.v
    (Cmd.info "drive"
       ~doc:"Generate a deterministic traffic trace over the query zoo — optionally \
             interleaved with ingest batches — and replay it against the serving \
             loop, printing the latency summary")
    Term.(
      const run $ outer_arg $ inner_arg $ seed_arg $ domains_arg $ spill_budget_arg
      $ batch_window_arg $ batch_max_arg $ mem_budget_arg $ queue_cap_arg
      $ serve_min_cost_arg $ serve_metrics_arg $ rate_arg $ queries_arg $ skew_arg
      $ mode_arg $ clients_arg $ think_arg $ ingest_rate_arg $ ingest_batch_arg
      $ staleness_arg)

let ingest_cmd =
  let batches_arg =
    Arg.(value & opt int 8 & info [ "batches" ] ~doc:"Append batches to apply.")
  in
  let batch_rows_arg =
    Arg.(value & opt int 500 & info [ "batch-rows" ] ~doc:"Rows per append batch.")
  in
  let staleness_arg =
    Arg.(value & opt string "on-write" & info [ "staleness" ]
           ~docv:"on-write|recompute"
           ~doc:"Maintenance policy for cached results across appends: repair on \
                 every append, or never (stale entries drop and queries recompute).")
  in
  let run data workload flows users scale seed batches batch_rows staleness min_cost
      metrics =
    let catalog = resolve_catalog data workload flows users scale seed in
    let policy =
      match Subql_ingest.Ingest.policy_of_string staleness with
      | Some p -> p
      | None ->
        failwith
          (Printf.sprintf "unknown staleness %S (use on-write or recompute)"
             staleness)
    in
    let cache = Subql_mqo.Result_cache.create ~min_cost () in
    let ing = Subql_ingest.Ingest.create ~policy ~catalog ~cache () in
    (* A canonical netflow subquery whose detail side is the appended
       table: users with at least one dumped flow from their address. *)
    let sql =
      "SELECT * FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
       u.IPAddress)"
    in
    let stmt = parse_sql sql in
    let entry = Subql_mqo.Batch.prepare stmt.Subql_sql.Parser.query in
    ignore (Subql_ingest.Ingest.register_query ing stmt.Subql_sql.Parser.query);
    Format.printf "ingest demo: %s@.query: %s@."
      (Subql_ingest.Ingest.policy_name policy)
      sql;
    let ask tag =
      let rep = Subql_mqo.Batch.run_prepared ~cache catalog [ entry ] in
      let rows =
        match rep.Subql_mqo.Batch.results with
        | [ (_, r) ] -> Relation.cardinality r
        | _ -> 0
      in
      Format.printf "  %s: %d rows (%s)@." tag rows
        (if rep.Subql_mqo.Batch.cache_hits > 0 then "cache hit" else "evaluated")
    in
    ask "warm";
    let nf =
      {
        Subql_workload.Netflow.default_config with
        n_flows = flows;
        n_users = users;
        seed = Int64.of_int seed;
      }
    in
    let print_report (r : Subql_ingest.Maintenance.report) =
      Format.printf
        "  maintain: %d delta (%d rows folded, %d scan rows avoided), %d recompute@."
        r.Subql_ingest.Maintenance.delta_maintained r.Subql_ingest.Maintenance.delta_rows
        r.Subql_ingest.Maintenance.avoided_rows r.Subql_ingest.Maintenance.recomputed
    in
    for b = 1 to batches do
      let rows =
        Subql_workload.Netflow.flow_rows ~seed:(Int64.of_int ((seed * 1_000) + b)) nf
          batch_rows
      in
      Format.printf "batch %d: +%d Flow rows@." b (Array.length rows);
      (match Subql_ingest.Ingest.append ing ~table:"Flow" rows with
      | Some r -> print_report r
      | None -> Format.printf "  maintenance deferred (%s)@." staleness);
      ask "query"
    done;
    let c name = Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default name in
    Format.printf
      "ingested %d rows in %d batches; cache repaired %d, invalidated %d@."
      (c "ingest.rows_appended") (c "ingest.batches") (c "mqo.cache.repaired")
      (c "mqo.cache.invalidated");
    if metrics then
      Format.printf "@.== metrics ==@.%s"
        (Subql_obs.Metrics.render Subql_obs.Metrics.default);
    Subql_ingest.Ingest.close ing
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Append batches to the Flow table and watch cached subquery results \
             being maintained incrementally (delta vs recompute) under \
             the chosen staleness policy")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ batches_arg $ batch_rows_arg $ staleness_arg $ serve_min_cost_arg
      $ serve_metrics_arg)

let schema_gen_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the module source to $(docv) (default: stdout).")
  in
  let tables_arg =
    Arg.(
      value & opt_all string []
      & info [ "table" ] ~docv:"NAME"
          ~doc:"Emit only $(docv) (repeatable; default: every catalog table).")
  in
  let run data workload flows users scale seed tables out =
    let catalog = resolve_catalog data workload flows users scale seed in
    let tables = match tables with [] -> None | l -> Some l in
    let src = Subql_typed.Codegen.catalog_source ?tables catalog in
    match out with
    | None -> print_string src
    | Some file -> Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc src)
  in
  Cmd.v
    (Cmd.info "schema-gen"
       ~doc:
         "Emit typed OCaml accessor modules (Col handles, row records, of/to_tuple) derived \
          from the catalog schemas for embedding in client code")
    Term.(
      const run $ data_arg $ workload_arg $ flows_arg $ users_arg $ scale_arg $ seed_arg
      $ tables_arg $ out_arg)

let bench_note_cmd =
  let run () =
    print_endline "The figure-reproduction harness lives in a separate executable:";
    print_endline
      "  dune exec bench/main.exe -- [fig2|fig3|fig4|fig5|fig5-noindex|ablation|micro|obs|mqo|exec|par|serve|ingest|codec|all] [--full]"
  in
  Cmd.v (Cmd.info "bench" ~doc:"Where to find the benchmark harness") Term.(const run $ const ())

let () =
  let doc = "Subquery evaluation with GMDJs (Akinde & Böhlen, ICDE 2003)" in
  let info = Cmd.info "olap_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            run_cmd;
            batch_cmd;
            serve_cmd;
            drive_cmd;
            ingest_cmd;
            explain_cmd;
            analyze_cmd;
            schema_gen_cmd;
            bench_note_cmd;
          ]))
