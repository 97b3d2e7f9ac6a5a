(* The serving layer: admission control (memory budgets, queue
   backpressure, shutdown), the time/size-bounded batch scheduler, the
   traffic generator, and the virtual-time driver. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module Traffic = Subql_workload.Traffic
module Admission = Subql_server.Admission
module Server = Subql_server.Server
module Driver = Subql_server.Driver
module Metrics = Subql_obs.Metrics
module Ingest = Subql_ingest.Ingest

let catalog () = Zoo.catalog ~outer:24 ~inner:512 ~key_range:16 ()

let reference cat q =
  Subql.Eval.eval cat (Subql.Optimize.optimize (Subql.Transform.to_algebra q))

let check_rel msg expected actual =
  if not (Relation.equal_as_multiset expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Relation.pp expected Relation.pp
      actual

let config ?(batch_window = 10.) ?(batch_max = 16) ?(mem_budget = infinity)
    ?(queue_cap = 64) () =
  {
    Server.batch_window;
    batch_max;
    policy = { Admission.mem_budget_rows = mem_budget; queue_cap };
    eval_config = Subql.Eval.default_config;
  }

let make ?batch_window ?batch_max ?mem_budget ?queue_cap ?registry cat =
  let registry = match registry with Some r -> r | None -> Metrics.create () in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. ~registry () in
  Server.create ~config:(config ?batch_window ?batch_max ?mem_budget ?queue_cap ())
    ~cache ~registry cat

let submit_ok server ~now name =
  match Server.submit server ~now ~label:name (Zoo.find_query name) with
  | Ok t -> t
  | Error r -> Alcotest.failf "%s unexpectedly rejected: %s" name (Diag.to_string r.Admission.diag)

(* --- admission ------------------------------------------------------- *)

let test_over_budget_rejected_not_executed () =
  let cat = catalog () in
  let registry = Metrics.create () in
  (* Every plan materializes at least its result: a fractional budget is
     unsatisfiable, so admission must reject everything. *)
  let server = make ~mem_budget:0.5 ~registry cat in
  (match Server.submit server ~now:0. (Zoo.find_query "agg-sum") with
  | Ok _ -> Alcotest.fail "over-budget plan admitted"
  | Error r ->
    Alcotest.(check string) "ADM001" Admission.code_over_budget r.Admission.diag.Diag.code;
    Alcotest.(check bool) "error severity" true (Diag.is_error r.Admission.diag);
    Alcotest.(check bool) "structural: no retry hint" true
      (r.Admission.retry_after = None));
  Alcotest.(check int) "nothing queued" 0 (Server.queue_depth server);
  Alcotest.(check bool) "nothing to run" true (Server.drain server ~now:100. = []);
  Alcotest.(check int) "rejection counted" 1
    (Metrics.counter_value_by_name registry "server.rejected.budget");
  Alcotest.(check int) "nothing served" 0
    (Metrics.counter_value_by_name registry "server.queries_served")

let test_budget_admits_fitting_plans () =
  let cat = catalog () in
  (* A generous budget admits the same query the tight one refused. *)
  let server = make ~mem_budget:1e9 cat in
  ignore (submit_ok server ~now:0. "agg-sum");
  Alcotest.(check int) "queued" 1 (Server.queue_depth server)

let test_queue_cap_sheds_with_retry_hint () =
  let cat = catalog () in
  let server = make ~queue_cap:2 ~batch_max:100 ~batch_window:10. cat in
  ignore (submit_ok server ~now:0. "exists");
  ignore (submit_ok server ~now:0. "in");
  match Server.submit server ~now:0. (Zoo.find_query "some") with
  | Ok _ -> Alcotest.fail "third submit should hit the queue cap"
  | Error r ->
    Alcotest.(check string) "ADM002" Admission.code_queue_full r.Admission.diag.Diag.code;
    (match r.Admission.retry_after with
    | Some after ->
      Alcotest.(check (float 1e-9)) "hint is one batch window" 10. after
    | None -> Alcotest.fail "transient shed must carry a retry hint")

let test_shutdown_drains_then_refuses () =
  let cat = catalog () in
  let server = make ~batch_window:1e6 cat in
  ignore (submit_ok server ~now:0. "exists");
  ignore (submit_ok server ~now:0. "not-exists");
  let drained = Server.shutdown server ~now:1. in
  let completions = List.concat_map (fun b -> b.Server.completions) drained in
  Alcotest.(check int) "both in-flight queries answered" 2 (List.length completions);
  List.iter
    (fun (c : Server.completion) ->
      check_rel c.Server.ticket.Server.label
        (reference cat (Zoo.find_query c.Server.ticket.Server.label))
        c.Server.result)
    completions;
  Alcotest.(check bool) "marked down" true (Server.is_shut_down server);
  match Server.submit server ~now:2. (Zoo.find_query "exists") with
  | Ok _ -> Alcotest.fail "submit after shutdown admitted"
  | Error r ->
    Alcotest.(check string) "ADM003" Admission.code_shutdown r.Admission.diag.Diag.code

(* --- batch scheduling ------------------------------------------------ *)

let test_window_seals_batches () =
  let cat = catalog () in
  let server = make ~batch_window:5. ~batch_max:100 cat in
  ignore (submit_ok server ~now:0. "exists");
  Alcotest.(check bool) "not due before the window" true
    (Server.step server ~now:4.9 = None);
  Alcotest.(check (option (float 1e-9))) "deadline = submit + window" (Some 5.)
    (Server.next_deadline server);
  match Server.step server ~now:5. with
  | None -> Alcotest.fail "due batch not sealed"
  | Some b ->
    Alcotest.(check int) "one completion" 1 (List.length b.Server.completions);
    Alcotest.(check (float 1e-9)) "sealed at now" 5. b.Server.closed_at;
    let c = List.hd b.Server.completions in
    Alcotest.(check bool) "completion after sealing" true (c.Server.completed >= 5.)

let test_batch_max_seals_early () =
  let cat = catalog () in
  let server = make ~batch_window:1e6 ~batch_max:2 cat in
  ignore (submit_ok server ~now:0. "exists");
  ignore (submit_ok server ~now:0. "in");
  ignore (submit_ok server ~now:0. "some");
  match Server.step server ~now:0. with
  | None -> Alcotest.fail "full batch not sealed"
  | Some b ->
    Alcotest.(check int) "batch capped at batch_max" 2 (List.length b.Server.completions);
    Alcotest.(check int) "third query still queued" 1 (Server.queue_depth server)

let test_batch_shares_and_answers_correctly () =
  let cat = catalog () in
  let server = make cat in
  List.iter
    (fun t -> ignore (submit_ok server ~now:0. t))
    Zoo.same_detail_templates;
  match Server.step server ~now:100. with
  | None -> Alcotest.fail "batch not sealed"
  | Some b ->
    let k = List.length Zoo.same_detail_templates in
    Alcotest.(check int) "whole batch completed" k (List.length b.Server.completions);
    List.iter
      (fun (c : Server.completion) ->
        check_rel c.Server.ticket.Server.label
          (reference cat (Zoo.find_query c.Server.ticket.Server.label))
          c.Server.result)
      b.Server.completions;
    if b.Server.report.Subql_mqo.Batch.shared_detail_scans >= k then
      Alcotest.failf "no sharing under traffic: %d scans for %d queries"
        b.Server.report.Subql_mqo.Batch.shared_detail_scans k

let test_warm_steady_state_scans_nothing () =
  let cat = catalog () in
  let server = make cat in
  let round now =
    List.iter (fun t -> ignore (submit_ok server ~now t)) Zoo.same_detail_templates;
    match Server.drain server ~now with
    | [ b ] -> b.Server.report
    | bs -> Alcotest.failf "expected one batch, got %d" (List.length bs)
  in
  let cold = round 0. in
  Alcotest.(check int) "cold round misses" 0 cold.Subql_mqo.Batch.cache_hits;
  let warm = round 10. in
  Alcotest.(check int) "warm round all hits"
    (List.length Zoo.same_detail_templates)
    warm.Subql_mqo.Batch.cache_hits;
  Alcotest.(check int) "warm round: zero detail scans" 0
    warm.Subql_mqo.Batch.shared_detail_scans

let test_metrics_published () =
  let cat = catalog () in
  let registry = Metrics.create () in
  let server = make ~registry ~queue_cap:1 cat in
  ignore (submit_ok server ~now:0. "exists");
  (match Server.submit server ~now:0. (Zoo.find_query "in") with
  | Ok _ -> Alcotest.fail "expected shed"
  | Error _ -> ());
  ignore (Server.drain server ~now:1.);
  let snap = Metrics.snapshot registry in
  Alcotest.(check int) "admitted" 1
    (Metrics.counter_value_by_name registry "server.admitted");
  Alcotest.(check int) "served" 1
    (Metrics.counter_value_by_name registry "server.queries_served");
  Alcotest.(check int) "rejected" 1
    (Metrics.counter_value_by_name registry "server.rejected");
  Alcotest.(check (float 1e-9)) "queue drained" 0.
    (match List.assoc_opt "server.queue_depth" snap.Metrics.gauges with
    | Some v -> v
    | None -> Alcotest.fail "no queue_depth gauge");
  (match List.assoc_opt "server.latency_seconds" snap.Metrics.histograms with
  | Some h ->
    Alcotest.(check int) "one latency observation" 1 h.Metrics.count;
    Alcotest.(check bool) "latency includes the queue wait" true
      (Metrics.quantile h 0.5 >= 0.)
  | None -> Alcotest.fail "no latency histogram");
  match List.assoc_opt "server.batch_size" snap.Metrics.histograms with
  | Some h -> Alcotest.(check int) "one batch observed" 1 h.Metrics.count
  | None -> Alcotest.fail "no batch_size histogram"

(* --- traffic generator ---------------------------------------------- *)

let test_traffic_deterministic () =
  let t1 = Traffic.open_loop ~seed:9L ~rate:100. ~count:50 ~skew:0.5 () in
  let t2 = Traffic.open_loop ~seed:9L ~rate:100. ~count:50 ~skew:0.5 () in
  Alcotest.(check bool) "same seed, same trace" true (t1 = t2);
  let t3 = Traffic.open_loop ~seed:10L ~rate:100. ~count:50 ~skew:0.5 () in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let test_traffic_arrivals_ordered_at_rate () =
  let rate = 200. and count = 400 in
  let trace = Traffic.open_loop ~seed:3L ~rate ~count ~skew:0.5 () in
  Alcotest.(check int) "count honoured" count (List.length trace);
  let rec ordered = function
    | (a : Traffic.arrival) :: (b :: _ as rest) ->
      a.Traffic.at <= b.Traffic.at && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing arrival times" true (ordered trace);
  let last = List.nth trace (count - 1) in
  let measured = float_of_int count /. last.Traffic.at in
  if measured < rate /. 2. || measured > rate *. 2. then
    Alcotest.failf "arrival rate %f too far from %f" measured rate

let test_traffic_skew_clusters_shareable () =
  let all_shareable =
    Traffic.open_loop ~seed:5L ~rate:100. ~count:200 ~skew:1. ()
  in
  List.iter
    (fun (a : Traffic.arrival) ->
      if not (List.mem a.Traffic.template Zoo.same_detail_templates) then
        Alcotest.failf "skew 1.0 drew non-shareable template %s" a.Traffic.template)
    all_shareable;
  let uniform = Traffic.open_loop ~seed:5L ~rate:100. ~count:200 ~skew:0. () in
  let outside =
    List.exists
      (fun (a : Traffic.arrival) ->
        not (List.mem a.Traffic.template Zoo.same_detail_templates))
      uniform
  in
  Alcotest.(check bool) "skew 0.0 reaches the whole zoo" true outside

let test_traffic_closed_loop_shape () =
  let streams = Traffic.closed_loop ~seed:4L ~clients:3 ~per_client:7 ~skew:0.5 () in
  Alcotest.(check int) "one stream per client" 3 (List.length streams);
  List.iter
    (fun s -> Alcotest.(check int) "stream length" 7 (List.length s))
    streams;
  let again = Traffic.closed_loop ~seed:4L ~clients:3 ~per_client:7 ~skew:0.5 () in
  Alcotest.(check bool) "deterministic" true (streams = again)

(* --- driver ---------------------------------------------------------- *)

let zoo_events trace =
  List.map
    (fun (a : Traffic.arrival) ->
      {
        Driver.at = a.Traffic.at;
        label = a.Traffic.template;
        query = Zoo.find_query a.Traffic.template;
      })
    trace

let test_replay_completes_everything () =
  let cat = catalog () in
  let server = make ~batch_window:0.01 ~batch_max:8 ~queue_cap:1024 cat in
  let trace = Traffic.open_loop ~seed:11L ~rate:500. ~count:60 ~skew:0.9 () in
  let s = Driver.replay server (zoo_events trace) in
  Alcotest.(check int) "all offered" 60 s.Driver.offered;
  Alcotest.(check int) "all completed (queue never capped)" 60 s.Driver.completed;
  Alcotest.(check int) "no sheds" 0 s.Driver.shed;
  Alcotest.(check int) "latency per completion" 60 (Array.length s.Driver.latencies);
  Array.iter
    (fun l -> if l < 0. then Alcotest.failf "negative latency %f" l)
    s.Driver.latencies;
  if s.Driver.detail_scans >= s.Driver.naive_detail_scans then
    Alcotest.failf "traffic did not share/cache: %d scans vs %d naive"
      s.Driver.detail_scans s.Driver.naive_detail_scans;
  Alcotest.(check bool) "virtual makespan covers the trace" true
    (s.Driver.duration >= (List.nth trace 59).Traffic.at)

let test_replay_sheds_over_cap () =
  let cat = catalog () in
  (* A 1-deep queue under a burst: most of the burst must shed, and the
     server must survive it. *)
  let server = make ~batch_window:10. ~batch_max:100 ~queue_cap:1 cat in
  let events =
    List.init 10 (fun i ->
        { Driver.at = 0.001 *. float_of_int i; label = "exists";
          query = Zoo.find_query "exists" })
  in
  let s = Driver.replay server events in
  Alcotest.(check int) "one admitted" 1 s.Driver.completed;
  Alcotest.(check int) "rest shed" 9 s.Driver.shed

let test_closed_loop_retries_and_finishes () =
  let cat = catalog () in
  let server = make ~batch_window:0.005 ~batch_max:4 ~queue_cap:2 cat in
  let streams =
    Traffic.closed_loop ~seed:2L ~clients:5 ~per_client:8 ~skew:0.9 ()
    |> List.map (List.map (fun t -> (t, Zoo.find_query t)))
  in
  let s = Driver.run_closed server ~clients:streams ~think:0.001 in
  Alcotest.(check int) "every client query eventually served" 40 s.Driver.completed;
  Alcotest.(check int) "sheds were retried, not lost" s.Driver.shed s.Driver.retries;
  Alcotest.(check int) "nothing structurally rejected" 0 s.Driver.rejected_budget

let test_percentiles () =
  let sorted = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 1e-9)) "p50" 5. (Driver.percentile sorted 50.);
  Alcotest.(check (float 1e-9)) "p99" 10. (Driver.percentile sorted 99.);
  Alcotest.(check (float 1e-9)) "p0 is the min" 1. (Driver.percentile sorted 0.);
  Alcotest.(check (float 1e-9)) "empty is 0" 0. (Driver.percentile [||] 99.)

let test_metrics_quantile_interpolates () =
  let registry = Metrics.create () in
  let h = Metrics.histogram ~buckets:[ 1.; 2.; 4. ] registry "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.5; 3. ];
  let snap = Metrics.snapshot registry in
  let hs = List.assoc "h" snap.Metrics.histograms in
  let q50 = Metrics.quantile hs 0.5 in
  if q50 < 1. || q50 > 2. then Alcotest.failf "p50 %f outside its bucket [1, 2]" q50;
  let q100 = Metrics.quantile hs 1. in
  if q100 < 2. || q100 > 4. then Alcotest.failf "p100 %f outside its bucket (2, 4]" q100

(* --- prepared batch entries ------------------------------------------ *)

let test_prepared_entries_match_plain_run () =
  let cat = catalog () in
  let queries = List.map Zoo.find_query Zoo.same_detail_templates in
  let plain =
    Subql_mqo.Batch.run ~cache:(Subql_mqo.Result_cache.create ~min_cost:0. ()) cat
      queries
  in
  let prepared =
    Subql_mqo.Batch.run_prepared
      ~cache:(Subql_mqo.Result_cache.create ~min_cost:0. ())
      cat
      (List.map Subql_mqo.Batch.prepare queries)
  in
  Alcotest.(check int) "same scan count" plain.Subql_mqo.Batch.shared_detail_scans
    prepared.Subql_mqo.Batch.shared_detail_scans;
  List.iter2
    (fun (i, a) (j, b) ->
      Alcotest.(check int) "same key" i j;
      check_rel "prepared result" a b)
    plain.Subql_mqo.Batch.results prepared.Subql_mqo.Batch.results

(* --- ingest under live traffic --------------------------------------- *)

(* A database small enough to reason about exactly: "not-exists" keeps
   the O rows with no matching I key, so appending one I row visibly
   changes the answer. *)
let mini_catalog () =
  let rel cols rows =
    Relation.of_list
      (Schema.of_list (List.map (fun c -> Schema.attr c Value.Tint) cols))
      (List.map Array.of_list rows)
  in
  Catalog.of_list
    [
      ( "O",
        rel [ "k"; "x" ]
          [
            [ Value.Int 1; Value.Int 10 ];
            [ Value.Int 2; Value.Int 20 ];
            [ Value.Int 3; Value.Int 30 ];
          ] );
      ("I", rel [ "k"; "y" ] [ [ Value.Int 1; Value.Int 5 ] ]);
      ("J", rel [ "k"; "y" ] [ [ Value.Int 1; Value.Int 7 ] ]);
    ]

let only_completion msg = function
  | [ { Server.completions = [ c ]; _ } ] -> c
  | bs ->
    Alcotest.failf "%s: expected one batch with one completion, got %d batches" msg
      (List.length bs)

let test_ingest_interleave_no_stale_reads () =
  let cat = mini_catalog () in
  let registry = Metrics.create () in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. ~registry () in
  let server = Server.create ~config:(config ()) ~cache ~registry cat in
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~registry ~catalog:cat ~cache () in
  let q = Zoo.find_query "not-exists" in
  ignore (Ingest.register_query ing q);
  let pre = reference cat q in
  (* A query queued before the write: [Server.ingest] drains it first,
     so it is answered against the pre-append snapshot. *)
  ignore (submit_ok server ~now:0. "not-exists");
  let r =
    match
      Server.ingest server ~now:0.5 ~label:"append-I"
        ~apply:(fun () ->
          ignore (Ingest.append ing ~table:"I" [| [| Value.Int 2; Value.Int 6 |] |]);
          1)
        ()
    with
    | Ok r -> r
    | Error rej -> Alcotest.failf "ingest rejected: %s" (Diag.to_string rej.Admission.diag)
  in
  Alcotest.(check int) "rows counted through the server" 1 r.Server.ingested_rows;
  check_rel "queued query answered from the pre-append snapshot" pre
    (only_completion "flushed" r.Server.flushed).Server.result;
  (* The append changed the answer — and a query submitted after it must
     see the change, served from the entry the write repaired in place. *)
  let post = reference cat q in
  Alcotest.(check bool) "the append visibly changed the answer" false
    (Relation.equal_as_multiset pre post);
  ignore (submit_ok server ~now:1. "not-exists");
  (match Server.drain server ~now:2. with
  | [ b ] ->
    check_rel "post-append query sees the write"
      post
      (only_completion "post" [ b ]).Server.result;
    Alcotest.(check int) "served from the repaired entry" 1
      b.Server.report.Subql_mqo.Batch.cache_hits
  | bs -> Alcotest.failf "expected one post-append batch, got %d" (List.length bs));
  Alcotest.(check int) "repair, not re-admission" 1
    (Metrics.counter_value_by_name registry "mqo.cache.repaired");
  Ingest.close ing

let test_replay_mixed_stays_fresh () =
  let cat = catalog () in
  let registry = Metrics.create () in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. ~registry () in
  let server =
    Server.create ~config:(config ~batch_window:0.01 ~batch_max:8 ~queue_cap:1024 ())
      ~cache ~registry cat
  in
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~registry ~catalog:cat ~cache () in
  List.iter
    (fun t -> ignore (Ingest.register_query ing (Zoo.find_query t)))
    Zoo.same_detail_templates;
  let batch = ref 0 in
  let events =
    Traffic.open_loop ~seed:11L ~rate:100. ~count:60 ~skew:1.0 ()
    |> Traffic.with_ingest ~rows:16 ~every:0.1
    |> List.map (function
         | Traffic.Query (a : Traffic.arrival) ->
           Driver.Query
             {
               Driver.at = a.Traffic.at;
               label = a.Traffic.template;
               query = Zoo.find_query a.Traffic.template;
             }
         | Traffic.Append (i : Traffic.ingest_arrival) ->
           Driver.Ingest
             {
               Driver.at = i.Traffic.at;
               label = "append";
               apply =
                 (fun () ->
                   incr batch;
                   ignore
                     (Ingest.append ing ~table:"I"
                        (Zoo.detail_rows ~seed:(Int64.of_int !batch) i.Traffic.rows));
                   i.Traffic.rows);
             })
  in
  let ms = Driver.replay_mixed server events in
  Alcotest.(check int) "every query completed" 60 ms.Driver.queries.Driver.completed;
  Alcotest.(check bool) "appends interleaved the run" true (ms.Driver.ingest_batches > 0);
  Alcotest.(check int) "rows accounted per batch" (16 * ms.Driver.ingest_batches)
    ms.Driver.ingest_rows;
  (* Whatever was cached, repaired, or invalidated along the way, the
     cache must now answer every template exactly like solo evaluation
     of the final catalog — no stale entry survived the interleaving. *)
  List.iter
    (fun t ->
      let q = Zoo.find_query t in
      let report = Subql_mqo.Batch.run ~cache cat [ q ] in
      check_rel (t ^ " fresh after interleaved run") (reference cat q)
        (List.assoc 0 report.Subql_mqo.Batch.results))
    Zoo.same_detail_templates;
  Alcotest.(check bool) "maintenance repaired cached entries" true
    (Metrics.counter_value_by_name registry "mqo.cache.repaired" > 0);
  Ingest.close ing

let () =
  Alcotest.run "server"
    [
      ( "admission",
        [
          Alcotest.test_case "over-budget rejected, never executed" `Quick
            test_over_budget_rejected_not_executed;
          Alcotest.test_case "fitting plans admitted" `Quick
            test_budget_admits_fitting_plans;
          Alcotest.test_case "queue cap sheds with retry hint" `Quick
            test_queue_cap_sheds_with_retry_hint;
          Alcotest.test_case "shutdown drains then refuses" `Quick
            test_shutdown_drains_then_refuses;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "window seals batches" `Quick test_window_seals_batches;
          Alcotest.test_case "batch_max seals early" `Quick test_batch_max_seals_early;
          Alcotest.test_case "batches share and answer correctly" `Quick
            test_batch_shares_and_answers_correctly;
          Alcotest.test_case "warm steady state scans nothing" `Quick
            test_warm_steady_state_scans_nothing;
          Alcotest.test_case "metrics published" `Quick test_metrics_published;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_traffic_deterministic;
          Alcotest.test_case "ordered arrivals at the rate" `Quick
            test_traffic_arrivals_ordered_at_rate;
          Alcotest.test_case "skew clusters shareable templates" `Quick
            test_traffic_skew_clusters_shareable;
          Alcotest.test_case "closed-loop stream shape" `Quick
            test_traffic_closed_loop_shape;
        ] );
      ( "driver",
        [
          Alcotest.test_case "open-loop replay completes" `Quick
            test_replay_completes_everything;
          Alcotest.test_case "open-loop sheds over the cap" `Quick
            test_replay_sheds_over_cap;
          Alcotest.test_case "closed loop retries sheds" `Quick
            test_closed_loop_retries_and_finishes;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "histogram quantile" `Quick
            test_metrics_quantile_interpolates;
        ] );
      ( "mqo-entries",
        [
          Alcotest.test_case "prepared entries match plain run" `Quick
            test_prepared_entries_match_plain_run;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "interleaved writes never serve stale reads" `Quick
            test_ingest_interleave_no_stale_reads;
          Alcotest.test_case "mixed replay stays fresh" `Quick
            test_replay_mixed_stays_fresh;
        ] );
    ]
