(* Self-tests of the benchmark harness: the order statistics, the replay
   loop's busy-time accounting, a tiny run of every workload, and the
   olap-paper templates against the naive tuple-iteration oracle. *)

open Perfbench
module Server = Subql_server.Server

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.(check close) "p0 is the minimum" 1. (Stats.percentile xs 0.);
  Alcotest.(check close) "p50 nearest rank" 5. (Stats.percentile xs 50.);
  Alcotest.(check close) "p51 rounds the rank up" 6. (Stats.percentile xs 51.);
  Alcotest.(check close) "p95 of ten" 10. (Stats.percentile xs 95.);
  Alcotest.(check close) "p100 is the maximum" 10. (Stats.percentile xs 100.);
  Alcotest.(check close) "single sample" 7. (Stats.percentile [| 7. |] 95.);
  Alcotest.(check close) "input left unsorted" 10. xs.(0);
  Alcotest.check_raises "empty sample" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_geomean () =
  Alcotest.(check close) "two values" 10. (Stats.geomean [ 1.; 100. ]);
  Alcotest.(check close) "three values" 4. (Stats.geomean [ 2.; 4.; 8. ]);
  Alcotest.(check close) "one value" 3. (Stats.geomean [ 3. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

(* A fake clock that advances one millisecond per reading makes every
   call the replay times last exactly 1 ms. *)
let test_busy_accounting () =
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int (!ticks - 1) *. 0.001
  in
  let catalog = Subql_workload.Zoo.catalog ~outer:8 ~inner:32 () in
  let server = Server.create catalog in
  let sql = List.assoc "exists" Serve.templates in
  let q due = Replay.Query { due; label = "exists"; sql } in
  let events = [ q 0.; q 0.001; Replay.Append { due = 0.05; apply = (fun () -> 5) }; q 0.1 ] in
  let s = Replay.replay ~clock server events in
  (* q0: parse [0,1] ms, submit [1,2]; q1 waits for the loop: parse
     [2,3], submit [3,4]; their batch is due one 20 ms window after
     q0's submit began and runs [21,22]; the append runs [50,51]; q2:
     parse [100,101], submit [101,102], its batch runs [121,122]. *)
  Alcotest.(check int) "completed" 3 s.Replay.completed;
  Alcotest.(check int) "two batches" 2 s.Replay.batches;
  Alcotest.(check close) "busy = 9 calls x 1 ms" 0.009 s.Replay.busy;
  Alcotest.(check close) "parse charged" 0.003 s.Replay.parse_seconds;
  Alcotest.(check close) "submit charged" 0.003 s.Replay.submit_seconds;
  Alcotest.(check close) "step charged" 0.002 s.Replay.step_seconds;
  Alcotest.(check close) "ingest charged" 0.001 s.Replay.ingest_seconds;
  let lat = Array.copy s.Replay.latencies in
  Array.sort Float.compare lat;
  Alcotest.(check (array close)) "latency from due time" [| 0.021; 0.022; 0.022 |] lat;
  Alcotest.(check (array close)) "append latency" [| 0.001 |] s.Replay.append_latencies;
  let services = Array.copy s.Replay.services in
  Array.sort Float.compare services;
  (* q1's service time includes its 1 ms wait for the loop. *)
  Alcotest.(check (array close)) "service = latency - queue wait" [| 0.003; 0.003; 0.004 |] services;
  (* One reading opens the replay, two per call, one closes it. *)
  Alcotest.(check close) "wall on the replay's clock" 0.019 s.Replay.wall;
  Alcotest.(check close) "queue wait" (0.019 +. 0.017 +. 0.019) s.Replay.queue_wait;
  Alcotest.(check int) "nothing failed" 0 (Replay.failed s)

let contains line sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length line && (String.sub line i n = sub || go (i + 1)) in
  go 0

(* Every catalogue metric appears in the result line with its unit. *)
let check_result ~traced (o : Report.outcome) =
  Alcotest.(check bool) "correct" true o.Report.correct;
  Alcotest.(check int) "no failures" 0 o.Report.failed;
  let line = Report.result_line ~traced o in
  List.iter
    (fun (name, unit_) ->
      let value = List.assoc name o.Report.values in
      if (not traced) && not (value > 0.) then Alcotest.failf "%s is not positive" name;
      if not (contains line (Printf.sprintf "\"%s\":{\"value\":" name)) then
        Alcotest.failf "%s missing from the result line" name;
      if not (contains line (Printf.sprintf "\"unit\":\"%s\"" unit_)) then
        Alcotest.failf "unit %s missing from the result line" unit_)
    (if traced then Report.per_layer else Report.end_to_end)

let test_tiny_olap () =
  check_result ~traced:false (Olap_paper.untraced ~seed:3L Olap_paper.tiny);
  check_result ~traced:true (Olap_paper.traced ~seed:3L Olap_paper.tiny)

let test_tiny_serve () =
  List.iter
    (fun kind ->
      check_result ~traced:false (Serve.untraced kind ~seed:3L (Serve.tiny kind));
      check_result ~traced:true (Serve.traced kind ~seed:3L (Serve.tiny kind)))
    [ Serve.Cached; Serve.Appending ]

let test_naive_oracle () =
  let s = Olap_paper.setup ~seed:5L Olap_paper.tiny in
  Fun.protect
    ~finally:(fun () -> Olap_paper.release s)
    (fun () ->
      Array.iter
        (fun (t : Olap_paper.template) ->
          let stmt = Subql_sql.Parser.parse t.Olap_paper.sql in
          let oracle = Subql_nested.Naive_eval.eval t.Olap_paper.catalog stmt.Subql_sql.Parser.query in
          let got, _ = Olap_paper.run_query s ~traced:false ~query:0 t in
          if not (Subql_relational.Relation.equal_as_multiset oracle got) then
            Alcotest.failf "%s disagrees with the naive oracle" t.Olap_paper.name)
        s.Olap_paper.templates)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ("replay", [ Alcotest.test_case "busy-time accounting" `Quick test_busy_accounting ]);
      ( "workloads",
        [
          Alcotest.test_case "tiny olap-paper prints every metric" `Quick test_tiny_olap;
          Alcotest.test_case "tiny serve-* print every metric" `Quick test_tiny_serve;
          Alcotest.test_case "olap-paper agrees with the naive oracle" `Quick test_naive_oracle;
        ] );
    ]
