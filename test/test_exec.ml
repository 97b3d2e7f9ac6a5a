(* Tests for the streaming chunk executor.

   The three public entry points ([eval], [eval_exec], [eval_analyzed])
   are thin wrappers over one skeleton — so they must agree on every zoo
   query, under both physical configurations, whether tables arrive as
   catalog relations or as anonymous chunk streams.  A
   heap-file-backed run must additionally stay within a peak that does
   not track the detail cardinality, and [eval ~override] must reject
   overrides whose schema contradicts the node (EVL001). *)

open Subql_relational
module Zoo = Subql_workload.Zoo

let plan q = Subql.Optimize.optimize (Subql.Transform.to_algebra q)

(* Tables as small anonymous chunk streams: [Chunk.Source.map] drops the
   whole-relation origin, forcing every operator down its genuinely
   chunked path instead of the zero-copy shortcut. *)
let chunked_sources catalog table =
  Catalog.find_opt catalog table
  |> Option.map (fun rel ->
         Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:5 rel))

let test_entry_points_agree () =
  let catalog = Zoo.catalog () in
  List.iter
    (fun (name, q) ->
      let p = plan q in
      let reference = Subql.Eval.eval catalog p in
      Helpers.check_multiset_equal (name ^ ": eager analyzed driver") reference
        (fst (Subql.Eval.eval_analyzed catalog p));
      Helpers.check_multiset_equal (name ^ ": chunked sources") reference
        (fst (Subql.Eval.eval_exec ~sources:(chunked_sources catalog) catalog p));
      Helpers.check_multiset_equal (name ^ ": unindexed config") reference
        (Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog p);
      Helpers.check_multiset_equal (name ^ ": unindexed chunked") reference
        (fst
           (Subql.Eval.eval_exec ~config:Subql.Eval.unindexed_config
              ~sources:(chunked_sources catalog) catalog p)))
    Zoo.queries

(* Stream the detail table I off a heap file through a 4-frame pool: the
   same-detail templates must produce the in-memory result while the
   executor's peak stays far below the detail cardinality. *)
let test_heap_streaming_bounded () =
  let inner = 4000 in
  let catalog = Zoo.catalog ~outer:32 ~inner () in
  let path = Filename.temp_file "subql_exec_test" ".heap" in
  let hf = Subql_storage.Heap_file.write ~path (Catalog.find catalog "I") in
  Fun.protect
    ~finally:(fun () ->
      Subql_storage.Heap_file.close hf;
      Sys.remove path)
    (fun () ->
      let pool = Subql_storage.Buffer_pool.create ~frames:4 in
      List.iter
        (fun name ->
          let p = plan (Zoo.find_query name) in
          let sources table =
            if table = "I" then Some (Subql_storage.Heap_file.source hf ~pool) else None
          in
          let streamed, report = Subql.Eval.eval_exec ~sources catalog p in
          Helpers.check_multiset_equal (name ^ ": heap-streamed result")
            (Subql.Eval.eval catalog p) streamed;
          Alcotest.(check bool)
            (name ^ ": peak below detail cardinality")
            true
            (report.Subql.Eval.peak_materialized_rows < inner / 2);
          Alcotest.(check bool) (name ^ ": chunks counted") true (report.Subql.Eval.chunks > 0))
        Zoo.same_detail_templates)

(* The certified memory bound is a ceiling on the measured peak: every
   zoo template, run serially without spilling, holds at most
   [certificate.bound] rows — the root's collected result included. *)
let test_certified_bound_is_ceiling () =
  List.iter
    (fun (outer, inner) ->
      let catalog = Zoo.catalog ~outer ~inner () in
      let stats = Subql.Cost.Stats.of_catalog catalog in
      let config = Subql.Eval.default_config in
      List.iter
        (fun (name, q) ->
          let p = plan q in
          let _, report = Subql.Eval.eval_exec ~config catalog p in
          let cert = Subql.Cost.memory_height_certified stats ~config p in
          let peak = report.Subql.Eval.peak_materialized_rows in
          if float_of_int peak > cert.Subql.Cost.bound then
            Alcotest.failf "%s at %d/%d: peak %d rows > certified bound %.0f" name outer inner
              peak cert.Subql.Cost.bound)
        Zoo.queries)
    [ (64, 1024); (128, 4096) ]

(* Override validation: a well-typed override splices in transparently;
   one whose schema contradicts the node's inferred schema is rejected
   with a structured EVL001 diagnostic, not a downstream crash. *)
let test_override_schema_validation () =
  let catalog = Zoo.catalog ~outer:16 ~inner:64 () in
  let p = plan (Zoo.find_query "exists") in
  let good = function
    | Subql.Algebra.Table "O" -> Some (Catalog.find catalog "O")
    | _ -> None
  in
  Helpers.check_multiset_equal "well-typed override accepted" (Subql.Eval.eval catalog p)
    (Subql.Eval.eval ~override:good catalog p);
  let bad = function
    | Subql.Algebra.Table "O" -> Some (Catalog.find catalog "I")
    | _ -> None
  in
  match Subql.Eval.eval ~override:bad catalog p with
  | _ -> Alcotest.fail "wrong-schema override must be rejected"
  | exception Diag.Fail d -> Alcotest.(check string) "diagnostic code" "EVL001" d.Diag.code

(* --- Parallel exchange execution -------------------------------------- *)

let domains_config domains = { Subql.Eval.default_config with Subql.Eval.domains }

let spill_config budget =
  { Subql.Eval.default_config with Subql.Eval.spill_budget_rows = Some budget }

(* Every zoo query, at 2 and 4 domains, whether inputs are catalog
   relations or anonymous chunk streams, must be multiset-equal to the
   serial evaluation — exchange routing and accumulator merging are
   invisible in the answer. *)
let test_parallel_agrees_with_serial () =
  let catalog = Zoo.catalog () in
  List.iter
    (fun (name, q) ->
      let p = plan q in
      let reference = Subql.Eval.eval catalog p in
      List.iter
        (fun domains ->
          Helpers.check_multiset_equal
            (Printf.sprintf "%s: %d domains" name domains)
            reference
            (Subql.Eval.eval ~config:(domains_config domains) catalog p);
          Helpers.check_multiset_equal
            (Printf.sprintf "%s: %d domains, chunked sources" name domains)
            reference
            (fst
               (Subql.Eval.eval_exec ~config:(domains_config domains)
                  ~sources:(chunked_sources catalog) catalog p)))
        [ 2; 4 ])
    Zoo.queries

(* Exchange accounting: with 4 workers pulling a genuinely chunked
   stream, the workers between them see every row exactly once, and the
   merged scratches land the same total in the registry's
   [exchange.rows] series. *)
let test_exchange_row_accounting () =
  let rows = 1000 in
  let catalog = Zoo.catalog ~outer:8 ~inner:rows () in
  let rel = Catalog.find catalog "I" in
  let src () = Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:7 rel) in
  let registry_rows () =
    Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default "exchange.rows"
  in
  let before = registry_rows () in
  let counts =
    Chunk.Exchange.fold ~domains:4
      ~init:(fun _ -> 0)
      ~fold:(fun acc chunk -> acc + Chunk.length chunk)
      ~finish:Fun.id (src ())
  in
  Alcotest.(check int) "4 workers" 4 (List.length counts);
  Alcotest.(check int) "round-robin: workers saw every row once" rows
    (List.fold_left ( + ) 0 counts);
  Alcotest.(check int) "no exchange.rows count lost" rows (registry_rows () - before);
  (* Hash partitioning: equal keys always meet on the same worker, so the
     per-worker key sets are pairwise disjoint. *)
  let key t = match t.(0) with Value.Int k -> k | _ -> 0 in
  let keysets =
    Chunk.Exchange.fold ~domains:4
      ~partition:(fun t -> key t)
      ~init:(fun _ -> Hashtbl.create 64)
      ~fold:(fun seen chunk ->
        Chunk.iter (fun t -> Hashtbl.replace seen (key t) ()) chunk;
        seen)
      ~finish:Fun.id (src ())
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Hashtbl.iter
              (fun k () ->
                if Hashtbl.mem b k then
                  Alcotest.failf "key %d met on workers %d and %d" k i j)
              a)
        keysets)
    keysets

(* Inline (one domain), [stop] is checked before every pull: once it
   holds, no further chunk is pulled and the source is closed. *)
let test_exchange_inline_stop () =
  let rel = Catalog.find (Zoo.catalog ~outer:8 ~inner:100 ()) "I" in
  let inner = Chunk.Source.of_relation ~chunk_rows:10 rel in
  let pulled = ref 0 and closed = ref false in
  let src =
    Chunk.Source.create ~schema:(Chunk.Source.schema inner)
      ~close:(fun () -> closed := true)
      (fun () ->
        incr pulled;
        Chunk.Source.next inner)
  in
  let folded =
    Chunk.Exchange.fold ~domains:1
      ~stop:(fun n -> n >= 3)
      ~init:(fun _ -> 0)
      ~fold:(fun n _ -> n + 1)
      ~finish:Fun.id src
  in
  Alcotest.(check (list int)) "folded until stop held" [ 3 ] folded;
  Alcotest.(check int) "no pull after stop" 3 !pulled;
  Alcotest.(check bool) "source closed" true !closed

(* The optimizer rewrites EXISTS-style zoo queries to completed [Md]
   nodes (completion rules, Thms 4.1–4.2) — that path must also ride the
   exchange when domains are configured, pushing every detail row
   through a worker exactly once. *)
let test_completed_plans_ride_the_exchange () =
  let inner = 600 in
  let catalog = Zoo.catalog ~outer:16 ~inner () in
  let p = plan (Zoo.find_query "exists") in
  let registry_rows () =
    Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default "exchange.rows"
  in
  let reference = Subql.Eval.eval catalog p in
  let before = registry_rows () in
  Helpers.check_multiset_equal "exists: 4 domains" reference
    (Subql.Eval.eval ~config:(domains_config 4) catalog p);
  Alcotest.(check int) "whole detail crossed the exchange" inner
    (registry_rows () - before)

(* FIRST keeps the earliest non-NULL value in detail order, so its merge
   is not commutative and a GMDJ carrying it must answer as the serial
   fold does at any [domains].  The detail spans five or six chunks with
   only NULLs in the first 1,024 rows, so every key's first value sits
   in a chunk the exchange would route to worker 1 while worker 0 sees
   later values; both a re-sliced whole relation and a 1,000-row stream
   are checked against a direct oracle. *)
let test_parallel_first_is_serial () =
  let open Subql_gmdj in
  let keys = 7 and n = 5120 in
  let base =
    Helpers.rel (Helpers.schema [ ("O", "k", Value.Tint) ])
      (List.init (keys + 1) (fun k -> [ Value.Int k ]))
  in
  let detail_row i = (i mod keys, if i < 1024 then Value.Null else Value.Int i) in
  let detail =
    Helpers.rel
      (Helpers.schema [ ("I", "k", Value.Tint); ("I", "y", Value.Tint) ])
      (List.init n (fun i ->
           let k, y = detail_row i in
           [ Value.Int k; y ]))
  in
  let block =
    Gmdj.block
      [ Aggregate.count_star "cnt"; Aggregate.first (Expr.attr ~rel:"I" "y") "fst" ]
      (Expr.eq (Expr.attr ~rel:"I" "k") (Expr.attr ~rel:"O" "k"))
  in
  let oracle =
    List.init (keys + 1) (fun k ->
        let matching = List.filter (fun i -> fst (detail_row i) = k) (List.init n Fun.id) in
        let first =
          List.find_map
            (fun i -> match snd (detail_row i) with Value.Null -> None | v -> Some v)
            matching
        in
        [ Value.Int k; Value.Int (List.length matching); Option.value first ~default:Value.Null ])
  in
  let rows r = List.map Array.to_list (Array.to_list (Relation.rows r)) in
  let show = List.map (fun row -> String.concat "," (List.map Value.to_string row)) in
  let sources =
    [
      ("whole relation", fun () -> Chunk.Source.of_relation detail);
      ( "1000-row stream",
        fun () -> Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:1000 detail) );
    ]
  in
  List.iter
    (fun (name, source) ->
      List.iter
        (fun domains ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %d domains = oracle" name domains)
            (show oracle)
            (show (rows (Gmdj.eval ~domains ~base (source ()) [ block ]))))
        [ 1; 2; 4 ])
    sources;
  (* The span reports the domains the fold really used. *)
  let traced_domains blocks =
    let module Trace = Subql_obs.Trace in
    Trace.clear ();
    Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.clear ())
      (fun () ->
        ignore (Gmdj.eval ~domains:4 ~base (Chunk.Source.of_relation detail) blocks);
        List.filter_map
          (fun sp ->
            if sp.Trace.name = "gmdj.eval" then List.assoc_opt "domains" sp.Trace.attrs else None)
          (Trace.roots ()))
  in
  Alcotest.(check (list string)) "FIRST span reports 1 domain" [ "1" ] (traced_domains [ block ]);
  Alcotest.(check (list string)) "COUNT span reports 4 domains" [ "4" ]
    (traced_domains [ { block with Gmdj.aggs = [ Aggregate.count_star "cnt" ] } ])

(* --- Spill-to-disk pipeline breakers ----------------------------------- *)

let temp_spill_files () =
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"subql_spill" f)
  |> List.sort String.compare

(* Run [f] with the process's temp directory set to a fresh private one,
   so spill files of other processes sharing the system temp directory
   cannot show up in (or vanish from) the listing. *)
let with_private_temp_dir f =
  let shared = Filename.get_temp_dir_name () in
  let dir = Filename.temp_file "subql_exec_spill" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name shared;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    f

(* Forcing breaker state through temp heap files — down to a 1-row
   resident budget — must not change any answer, must actually spill on
   the join-bearing plans, and must leave no temp file behind. *)
let test_spill_agrees_and_cleans_up () =
  with_private_temp_dir @@ fun () ->
  let catalog = Zoo.catalog ~outer:24 ~inner:400 () in
  let files_before = temp_spill_files () in
  let spills () =
    Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default "exec.spills"
  in
  let spilled_before = spills () in
  List.iter
    (fun (name, q) ->
      (* The GMDJ itself never spills (its state is |B|-bounded); the
         unnest plans carry the joins the spill path exists for. *)
      let plans =
        (Printf.sprintf "%s/gmdj" name, plan q)
        :: (match Subql.Unnest.best catalog q with
           | p -> [ (Printf.sprintf "%s/unnest" name, p) ]
           | exception _ -> [])
      in
      List.iter
        (fun (label, p) ->
          let reference = Subql.Eval.eval catalog p in
          List.iter
            (fun budget ->
              Helpers.check_multiset_equal
                (Printf.sprintf "%s: spill budget %d" label budget)
                reference
                (Subql.Eval.eval ~config:(spill_config budget) catalog p))
            [ 1; 7; 64 ])
        plans)
    Zoo.queries;
  Alcotest.(check bool) "tiny budgets actually spilled" true (spills () > spilled_before);
  Alcotest.(check (list string)) "no temp heap file left behind" files_before
    (temp_spill_files ())

(* Spill and exchange compose: an explicit budget wins at the breakers
   (serial spilling), while everything else still rides the exchange. *)
let test_spill_with_domains () =
  let catalog = Zoo.catalog ~outer:24 ~inner:400 () in
  List.iter
    (fun (name, q) ->
      let p = plan q in
      let config =
        { Subql.Eval.default_config with
          Subql.Eval.domains = 4;
          spill_budget_rows = Some 8
        }
      in
      Helpers.check_multiset_equal
        (name ^ ": 4 domains + 8-row spill budget")
        (Subql.Eval.eval catalog p)
        (Subql.Eval.eval ~config catalog p))
    Zoo.queries

(* The nested shapes, whose inner GMDJ runs over a key-factorized base,
   against the naive oracle in every execution mode, on the seeded
   database and on the edge catalogs where factorization could go
   wrong: an empty side of the push-down product, an empty detail, and
   keys that are all NULL (each NULL key is one distinct value, yet
   never matches). *)
let nested_shapes =
  [
    "linear-nesting";
    "non-neighboring";
    "double-negation-division";
    "nested-agg";
    "multi-from";
    "multi-from-non-neighboring";
  ]

let edge_catalogs () =
  let seeded = Zoo.catalog ~outer:64 ~inner:1024 ~seed:7L () in
  let table t = Catalog.find seeded t in
  let with_table t rel =
    Catalog.of_list
      (List.map (fun n -> (n, if n = t then rel else table n)) [ "O"; "I"; "J" ])
  in
  let emptied t = with_table t (Relation.empty (Relation.schema (table t))) in
  let null_keys rel =
    Relation.create (Relation.schema rel)
      (Array.map (fun row -> [| Value.Null; row.(1) |]) (Relation.rows rel))
  in
  [
    ("seeded 64/1024", seeded);
    ("empty O", emptied "O");
    ("empty I", emptied "I");
    ("empty J", emptied "J");
    ( "all-NULL k",
      Catalog.of_list (List.map (fun n -> (n, null_keys (table n))) [ "O"; "I"; "J" ]) );
  ]

let test_nested_modes_agree_with_oracle () =
  let modes =
    List.concat_map
      (fun domains ->
        List.concat_map
          (fun gmdj_strategy ->
            List.map
              (fun spill_budget_rows ->
                { Subql.Eval.default_config with domains; gmdj_strategy; spill_budget_rows })
              [ None; Some 16 ])
          [ `Scan; `Hash ])
      [ 1; 2 ]
  in
  List.iter
    (fun (db, catalog) ->
      List.iter
        (fun name ->
          let q = Zoo.find_query name in
          let p = plan q in
          let oracle = Subql_nested.Naive_eval.eval catalog q in
          List.iter
            (fun (config : Subql.Eval.config) ->
              Helpers.check_multiset_equal
                (Printf.sprintf "%s on %s: %d domains, %s, budget %s" name db
                   config.Subql.Eval.domains
                   (match config.Subql.Eval.gmdj_strategy with `Scan -> "scan" | `Hash -> "hash")
                   (match config.Subql.Eval.spill_budget_rows with
                   | Some b -> string_of_int b
                   | None -> "none"))
                oracle (Subql.Eval.eval ~config catalog p))
            modes)
        nested_shapes)
    (edge_catalogs ())

(* --- Column-pruned heap-file scans -------------------------------------- *)

module Heap_file = Subql_storage.Heap_file

(* The paper's Figures 2-5, as a client sends them. *)
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

(* SQL tails over Flow: a scan that reads no column at all, GROUP BY,
   DISTINCT, ORDER BY with LIMIT above a subquery, and a global
   aggregate over no rows. *)
let tail_sql =
  [
    ("count-star", "SELECT COUNT(*) AS n FROM Flow f");
    ( "empty-global-aggregate",
      "SELECT COUNT(*) AS n, SUM(f.NumBytes) AS s FROM Flow f WHERE f.NumBytes < 0" );
    ( "group-by",
      "SELECT f.Protocol, SUM(f.NumBytes) AS b FROM Flow f GROUP BY f.Protocol" );
    ("distinct", "SELECT DISTINCT f.Protocol FROM Flow f");
    ( "order-by-limit",
      "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
       u.IPAddress) ORDER BY u.UserName LIMIT 3" );
  ]

let sql_plan sql = plan (Subql_sql.Parser.parse sql).Subql_sql.Parser.query

(* Every table of [catalog] on its own heap file, all paged through one
   4-frame pool.  [f] gets the heap files by table name. *)
let with_heap_catalog catalog f =
  let files =
    List.map
      (fun name ->
        let path = Filename.temp_file "subql_pruned" ".heap" in
        (name, Heap_file.write ~path ~page_size:1024 (Catalog.find catalog name)))
      (Catalog.tables catalog)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, hf) ->
          Heap_file.close hf;
          Sys.remove (Heap_file.path hf))
        files)
    (fun () -> f (Subql_storage.Buffer_pool.create ~frames:4) (fun name -> List.assoc_opt name files))

(* Every zoo template, figure query and SQL tail, with every table streamed off a
   heap file whose scan the executor narrows to the columns the plan
   reads, must equal in-memory evaluation — serially, across 2 domains,
   and under a 64-row spill budget. *)
let test_pruned_heap_scans_agree () =
  let modes =
    [
      ("1 domain", Subql.Eval.default_config);
      ("2 domains", domains_config 2);
      ("spill budget 64", spill_config 64);
    ]
  in
  let netflow =
    Subql_workload.Netflow.generate
      { Subql_workload.Netflow.default_config with n_flows = 3000; n_users = 40; seed = 7L }
  in
  let workloads =
    [
      (Zoo.catalog (), List.map (fun (name, q) -> (name, plan q)) Zoo.queries);
      (netflow, List.map (fun (name, sql) -> (name, sql_plan sql)) (figure_sql @ tail_sql));
    ]
  in
  List.iter
    (fun (catalog, plans) ->
      with_heap_catalog catalog (fun pool file ->
          let sources name = Option.map (fun hf -> Heap_file.source hf ~pool) (file name) in
          List.iter
            (fun (name, p) ->
              let reference = Subql.Eval.eval catalog p in
              List.iter
                (fun (mode, config) ->
                  let got = fst (Subql.Eval.eval_exec ~config ~sources catalog p) in
                  Helpers.check_multiset_equal
                    (Printf.sprintf "%s: heap-file tables, %s" name mode)
                    reference got;
                  (* One row of identities however many workers or
                     spill passes folded the empty input. *)
                  if name = "empty-global-aggregate" then
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: exactly one row (0, NULL), %s" name mode)
                      true
                      (match Relation.rows got with
                      | [| [| Value.Int 0; Value.Null |] |] -> true
                      | _ -> false))
                modes)
            plans))
    workloads;
  (* Each Flow scan must decode only the columns its plan reads.  fig3
     reads SourceIP and NumBytes: two columns, not seven.  In the double
     NOT EXISTS, the key-factorized inner base δπ_K(f) reads the three
     columns of K and the innermost scan of g reads two. *)
  let double_not_exists =
    "SELECT * FROM User u WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = \
     u.IPAddress AND NOT EXISTS (SELECT * FROM Flow g WHERE g.DestIP = f.DestIP AND \
     g.NumBytes > f.NumBytes))"
  in
  List.iter
    (fun (name, sql, expected) ->
      with_heap_catalog netflow (fun pool file ->
          (* One list of chunk widths per Flow scan. *)
          let scans = ref [] in
          let watch src =
            let widths = ref [] in
            scans := widths :: !scans;
            Chunk.Source.map
              (fun c ->
                widths := Schema.arity (Chunk.schema c) :: !widths;
                c)
              src
          in
          let sources name =
            Option.map
              (fun hf ->
                let full = Heap_file.source hf ~pool in
                if name <> "Flow" then full
                else
                  let watched = watch full in
                  Chunk.Source.create ~schema:(Chunk.Source.schema full)
                    ~close:(fun () -> Chunk.Source.close watched)
                    ~narrow:(fun cols ->
                      watch (Chunk.Source.narrow (Heap_file.source hf ~pool) (lazy cols)))
                    (fun () -> Chunk.Source.next watched))
              (file name)
          in
          let p = sql_plan sql in
          Helpers.check_multiset_equal
            (name ^ ": narrowed Flow scans")
            (Subql.Eval.eval netflow p)
            (fst (Subql.Eval.eval_exec ~sources netflow p));
          let pulled = List.filter (fun w -> w <> []) (List.map ( ! ) !scans) in
          Alcotest.(check (list (list int)))
            (name ^ ": chunk widths of each Flow scan")
            expected
            (List.sort compare (List.map (List.sort_uniq compare) pulled))))
    [
      ("fig3", List.assoc "fig3" figure_sql, [ [ 2 ] ]);
      ("double NOT EXISTS", double_not_exists, [ [ 2 ]; [ 3 ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* GROUP BY with aggregates against an oracle that does not use         *)
(* [Aggregate]                                                          *)
(* ------------------------------------------------------------------ *)

module Gmdj = Subql_gmdj.Gmdj

let gb_schema =
  Helpers.schema [ ("R", "k", Value.Tint); ("R", "i", Value.Tint); ("R", "f", Value.Tfloat) ]

let r_attr = Expr.attr ~rel:"R"

(* All seven kinds, over the int column [i] and the float column [f];
   AVG over the float column only. *)
let gb_aggs =
  Aggregate.
    [
      count_star "n";
      count (r_attr "i") "ci";
      sum (r_attr "i") "si";
      sum (r_attr "f") "sf";
      min_ (r_attr "i") "mi";
      max_ (r_attr "i") "xi";
      min_ (r_attr "f") "mf";
      max_ (r_attr "f") "xf";
      avg (r_attr "f") "af";
      first (r_attr "i") "fi";
      first (r_attr "f") "ff";
    ]

(* The oracle's own fold of one aggregate over a group's rows (in input
   order): NULLs skipped, SUM by [Value.add] seeded with the first
   value, MIN/MAX replaced on a strict [Value.compare], AVG a float sum
   from 0. over the count. *)
let oracle_agg ?(schema = gb_schema) (spec : Aggregate.spec) rows =
  let col = function
    | Expr.Attr (_, c) -> Schema.find schema ~rel:"R" c
    | _ -> assert false
  in
  let vals e = List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> r.(col e)) rows) in
  let fold f e =
    match vals e with [] -> Value.Null | v :: rest -> List.fold_left f v rest
  in
  match spec.Aggregate.func with
  | Aggregate.Count_star -> Value.Int (List.length rows)
  | Aggregate.Count e -> Value.Int (List.length (vals e))
  | Aggregate.Sum e -> fold Value.add e
  | Aggregate.Min e -> fold (fun m v -> if Value.compare v m < 0 then v else m) e
  | Aggregate.Max e -> fold (fun m v -> if Value.compare v m > 0 then v else m) e
  | Aggregate.First e -> fold (fun m _ -> m) e
  | Aggregate.Avg e -> (
    match vals e with
    | [] -> Value.Null
    | vs ->
      let total =
        List.fold_left
          (fun s v ->
            match v with
            | Value.Float x -> s +. x
            | Value.Int x -> s +. float_of_int x
            | _ -> assert false)
          0.0 vs
      in
      Value.Float (total /. float_of_int (List.length vs)))

(* Groups in first-seen key order (NULL keys group together), each its
   key followed by its aggregates. *)
let oracle_groups ?schema aggs rows =
  let keys =
    List.fold_left (fun ks r -> if List.mem r.(0) ks then ks else ks @ [ r.(0) ]) [] rows
  in
  List.map
    (fun k ->
      let members = List.filter (fun r -> r.(0) = k) rows in
      Array.of_list (k :: List.map (fun spec -> oracle_agg ?schema spec members) aggs))
    keys

let gb_gen =
  let open QCheck2.Gen in
  let nullable g = frequency [ (1, return Value.Null); (5, g) ] in
  let key = nullable (map (fun i -> Value.Int i) (int_range 0 3)) in
  let int_v =
    nullable
      (map (fun i -> Value.Int i) (oneofl [ -2; -1; 0; 1; 2; 3; max_int; min_int ]))
  in
  let float_v = nullable (map (fun f -> Value.Float f) (oneofl [ -0.; 0.; 0.5; 2.5; nan ])) in
  list_size (int_range 0 30) (map (fun (k, i, f) -> [| k; i; f |]) (triple key int_v float_v))

let print_rows rows = String.concat "; " (List.map (Format.asprintf "%a" Tuple.pp) rows)

(* [exact] compares rendered values, so -0. and 0. differ; otherwise
   {!Value.equal}, for a fold whose merge order may pick either of two
   equal zeros as a MIN or MAX. *)
let same_rows ?(exact = true) expected got =
  let cell a b = if exact then Value.to_string a = Value.to_string b else Value.equal a b in
  List.length expected = List.length got
  && List.for_all2
       (fun a b -> Array.length a = Array.length b && Array.for_all2 cell a b)
       expected got

let chunked = Helpers.chunked

let chunk_sizes = Helpers.chunk_sizes

let group_by_oracle_prop rows =
  let rel = Relation.of_list gb_schema rows in
  let expected = oracle_groups gb_aggs rows in
  let keys = [ (Some "R", "k") ] in
  let sorted l = List.sort Tuple.compare l in
  let check name ?exact ?(expected = expected) ~ordered got =
    let expected, got = if ordered then (expected, got) else (sorted expected, sorted got) in
    same_rows ?exact expected got
    || QCheck2.Test.fail_reportf "%s:@.expected %s@.got %s" name (print_rows expected)
         (print_rows got)
  in
  let of_rel r = Array.to_list (Relation.rows r) in
  let spilled =
    (Subql_storage.Spill.group_by ~budget:2 ~keys ~aggs:gb_aggs (Chunk.Source.of_relation rel))
      .Subql_storage.Spill.result
  in
  let parallel =
    Subql.Eval.eval ~config:(domains_config 2)
      (Catalog.of_list [ ("R", rel) ])
      (Subql.Algebra.Group_by { keys = Some keys; aggs = gb_aggs; input = Subql.Algebra.Table "R" })
  in
  (* GROUP BY K l over R is MD(δπ_K R, R, l, K <=> K), the keys in
     first-seen order.  Every key is in the base twice, so one θ-key
     group stands for two base tuples. *)
  let base =
    Relation.of_list
      (Helpers.schema [ ("B", "k", Value.Tint) ])
      (List.concat_map (fun g -> [ [| g.(0) |]; [| g.(0) |] ]) expected)
  in
  let twice = List.concat_map (fun g -> [ g; g ]) in
  let theta = Expr.Null_safe_eq (Expr.attr ~rel:"B" "k", r_attr "k") in
  let md ?(aggs = gb_aggs) ?(theta = theta) domains n =
    of_rel (Gmdj.eval ~domains ~base (chunked n rel) [ Gmdj.block aggs theta ])
  in
  (* FIRST would pin the fold at one domain; without it the two-domain
     fold merges partial states. *)
  let mergeable = List.filter (fun s -> not (Aggregate.order_sensitive s.Aggregate.func)) gb_aggs in
  let keep =
    0
    :: List.concat
         (List.mapi
            (fun i s -> if Aggregate.order_sensitive s.Aggregate.func then [] else [ i + 1 ])
            gb_aggs)
  in
  let project row = Array.of_list (List.map (fun i -> row.(i)) keep) in
  (* Under a plain [=] the NULL key matches nothing: the definition's
     answer, NULL aggregates and zero counts for it. *)
  let plain = Expr.eq (Expr.attr ~rel:"B" "k") (r_attr "k") in
  let plain_expected = of_rel (Gmdj.reference ~base ~detail:rel [ Gmdj.block gb_aggs plain ]) in
  List.for_all
    (fun n ->
      let at = Printf.sprintf " (%d-row chunks)" n in
      check ("Ops.group_by" ^ at) ~ordered:true
        (of_rel (Ops.group_by ~keys ~aggs:gb_aggs (chunked n rel)))
      && check ("Gmdj.eval, 1 domain" ^ at) ~expected:(twice expected) ~ordered:true (md 1 n)
      && check ("Gmdj.eval on =, 1 domain" ^ at) ~expected:plain_expected ~ordered:true
           (md ~theta:plain 1 n)
      && check ("Gmdj.eval, 2 domains" ^ at) ~exact:false
           ~expected:(twice (List.map project expected))
           ~ordered:true (md ~aggs:mergeable 2 n))
    chunk_sizes
  && check "Spill.group_by ~budget:2" ~ordered:false (of_rel spilled)
  && check "Eval Group_by, 2 domains" ~ordered:false (of_rel parallel)
  && check "Gmdj.reference" ~expected:(twice expected) ~ordered:true
       (of_rel (Gmdj.reference ~base ~detail:rel [ Gmdj.block gb_aggs theta ]))

(* The kernel's own cases, over one column [m] mixing [Int] and [Float]
   (so the relation is unchecked): a SUM slot leaves its unboxed int sum
   at the first non-[Int] value, in either order, and wraps at
   [max_int] while it is still unboxed. *)
let mixed_gen =
  let open QCheck2.Gen in
  let nullable g = frequency [ (1, return Value.Null); (5, g) ] in
  let key = nullable (map (fun i -> Value.Int i) (int_range 0 3)) in
  let m =
    nullable
      (oneof
         [
           map (fun i -> Value.Int i) (oneofl [ -2; 0; 1; 3; max_int; min_int ]);
           map (fun f -> Value.Float f) (oneofl [ -0.; 0.5; 2.5; nan ]);
         ])
  in
  list_size (int_range 0 30) (map2 (fun k m -> [| k; m |]) key m)

let mixed_prop rows =
  let schema = Helpers.schema [ ("R", "k", Value.Tint); ("R", "m", Value.Tfloat) ] in
  let detail_of rows = Relation.of_list ~check:false schema rows in
  let detail = detail_of rows in
  let m = r_attr "m" in
  let aggs =
    Aggregate.[ count_star "n"; count m "c"; sum m "s"; avg m "a"; min_ m "lo"; max_ m "hi"; first m "f" ]
  in
  let expected = oracle_groups ~schema aggs rows in
  let of_rel r = Array.to_list (Relation.rows r) in
  let check ?(exact = true) name expected got =
    same_rows ~exact expected got
    || QCheck2.Test.fail_reportf "%s:@.expected %s@.got %s" name (print_rows expected)
         (print_rows got)
  in
  (* Every key twice (two base tuples share one θ-key), then a key no
     detail row has; [lo] bounds the residual. *)
  let base_rows =
    List.concat_map (fun g -> [ [| g.(0); Value.Int 0 |]; [| g.(0); Value.Int 2 |] ]) expected
    @ [ [| Value.Int 9; Value.Int 0 |] ]
  in
  let base = Relation.of_list (Helpers.schema [ ("B", "k", Value.Tint); ("B", "lo", Value.Tint) ]) base_rows in
  let b c = Expr.attr ~rel:"B" c in
  let key = Expr.Null_safe_eq (b "k", r_attr "k") in
  let plain = Expr.eq (b "k") (r_attr "k") in
  let blocks =
    [
      Gmdj.block aggs key (* a slot per θ-key group *);
      Gmdj.block aggs plain (* a NULL key matches nothing *);
      Gmdj.block aggs (Expr.and_ key (Expr.Is_not_null m)) (* keyed behind a prefilter *);
      Gmdj.block aggs (Expr.and_ key (Expr.ge m (b "lo"))) (* a residual: a slot per base tuple *);
    ]
  in
  let reference = of_rel (Gmdj.reference ~base ~detail blocks) in
  (* The definition's first block, against the list fold. *)
  let width = List.length aggs in
  let identity = [| Value.Int 0; Value.Int 0 |] |> fun c -> Array.append c (Array.make (width - 2) Value.Null) in
  let folded brow =
    match List.find_opt (fun g -> Value.equal g.(0) brow.(0)) expected with
    | Some g -> Array.append brow (Array.sub g 1 width)
    | None -> Array.append brow identity
  in
  let sql q = Subql_sql.Parser.parse q |> fun stmt -> stmt.Subql_sql.Parser.query in
  let catalog = Catalog.of_list [ ("B", base); ("R", detail) ] in
  (* Maintenance takes a delta back out only when that is exact, and
     refuses otherwise — a float, NaN, or an int that rounds once a
     float joins it — leaving the view and the generation as they were. *)
  let d1 = List.filteri (fun i _ -> i mod 2 = 0) rows
  and d2 = List.filteri (fun i _ -> i mod 2 = 1) rows in
  let retractable = List.filter (fun s -> Aggregate.retractable s.Aggregate.func) aggs in
  let mblocks = [ Gmdj.block retractable key; Gmdj.block retractable plain ] in
  let recompute rows = of_rel (Gmdj.reference ~base ~detail:(detail_of rows) mblocks) in
  let view = Gmdj.Maintain.create ~base ~detail:(detail_of d1) mblocks in
  Gmdj.Maintain.insert_detail view (detail_of d2);
  let inserted = of_rel (Gmdj.Maintain.result view) in
  let generation = Gmdj.Maintain.generation () in
  let deleted =
    match Gmdj.Maintain.delete_detail view (detail_of d2) with
    | () -> Ok (of_rel (Gmdj.Maintain.result view))
    | exception Invalid_argument _ -> Error (of_rel (Gmdj.Maintain.result view))
  in
  check "reference, first block = list fold" (List.map folded base_rows)
    (List.map (fun r -> Array.sub r 0 (2 + width)) reference)
  && List.for_all
       (fun n ->
         let at = Printf.sprintf " (%d-row chunks)" n in
         check ("Ops.group_by" ^ at) expected
           (of_rel (Ops.group_by ~keys:[ (Some "R", "k") ] ~aggs (chunked n detail)))
         && List.for_all
              (fun strategy ->
                check ("Gmdj.eval" ^ at) reference
                  (of_rel (Gmdj.eval ~strategy ~domains:1 ~base (chunked n detail) blocks)))
              [ `Hash; `Scan ])
       chunk_sizes
  && List.for_all
       (fun agg ->
         let q =
           sql
             (Printf.sprintf
                "SELECT b.k, b.lo FROM B b WHERE b.lo < (SELECT %s(r.m) FROM R r WHERE r.k = b.k)" agg)
         in
         Relation.equal_as_multiset (Subql_nested.Naive_eval.eval catalog q)
           (Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra q)))
         || QCheck2.Test.fail_reportf "%s: GMDJ and Naive_eval disagree" agg)
       [ "SUM"; "AVG"; "COUNT" ]
  && check ~exact:false "Maintain, inserted" (recompute (d1 @ d2)) inserted
  &&
  match deleted with
  | Ok got -> check ~exact:false "Maintain, deleted" (recompute d1) got
  | Error got ->
    check "Maintain, refused delete leaves the view" inserted got
    && (Gmdj.Maintain.generation () = generation
       || QCheck2.Test.fail_report "a refused delete moved the generation")

(* How edge values render, identical in every serial mode: signed zero,
   first-seen ties, int wrap-around, and the NULL / 0 of empty and
   all-NULL inputs. *)
let test_aggregate_representation () =
  let single ty vs =
    Relation.of_list
      (Helpers.schema [ ("R", "v", ty) ])
      (List.map (fun v -> [| v |]) vs)
  in
  let v = Expr.attr ~rel:"R" "v" in
  let f x = Value.Float x and i x = Value.Int x in
  let cases =
    [
      ("sum [-0.]", Aggregate.sum v "a", single Value.Tfloat [ f (-0.) ], "-0");
      ("min [0.; -0.]", Aggregate.min_ v "a", single Value.Tfloat [ f 0.; f (-0.) ], "0");
      ("max [-0.; 0.]", Aggregate.max_ v "a", single Value.Tfloat [ f (-0.); f 0. ], "-0");
      ("sum [max_int; 1]", Aggregate.sum v "a", single Value.Tint [ i max_int; i 1 ], string_of_int min_int);
      ("avg [-0.]", Aggregate.avg v "a", single Value.Tfloat [ f (-0.) ], "0");
    ]
    @ List.concat_map
        (fun (label, rows) ->
          List.map
            (fun (name, spec) -> (name ^ " " ^ label, spec, rows, "NULL"))
            [
              ("avg", Aggregate.avg v "a");
              ("sum", Aggregate.sum v "a");
              ("min", Aggregate.min_ v "a");
              ("max", Aggregate.max_ v "a");
              ("first", Aggregate.first v "a");
            ]
          @ [ ("count " ^ label, Aggregate.count v "a", rows, "0") ])
        [ ("[]", single Value.Tint []); ("[NULL; NULL]", single Value.Tint [ Value.Null; Value.Null ]) ]
  in
  let one_base = Relation.of_list (Helpers.schema [ ("B", "b", Value.Tint) ]) [ [| i 1 |] ] in
  List.iter
    (fun (name, spec, rel, expected) ->
      let last r =
        let row = (Relation.rows r).(0) in
        Value.to_string row.(Array.length row - 1)
      in
      Alcotest.(check string)
        (name ^ ", GROUP BY ()")
        expected
        (last (Ops.group_by ~keys:[] ~aggs:[ spec ] (Chunk.Source.of_relation rel)));
      Alcotest.(check string) (name ^ ", GMDJ") expected
        (last (Helpers.gmdj ~base:one_base ~detail:rel [ Gmdj.block [ spec ] (Expr.bool true) ])))
    cases

let () =
  Alcotest.run "exec"
    [
      ( "streaming",
        [
          Alcotest.test_case "entry points agree over the zoo" `Quick test_entry_points_agree;
          Alcotest.test_case "certified bound is a ceiling on the peak" `Quick
            test_certified_bound_is_ceiling;
          Alcotest.test_case "heap-file detail stays bounded" `Quick
            test_heap_streaming_bounded;
          Alcotest.test_case "pruned heap-file scans = in-memory, every mode" `Quick
            test_pruned_heap_scans_agree;
        ] );
      ( "overrides",
        [
          Alcotest.test_case "schema validation (EVL001)" `Quick
            test_override_schema_validation;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parallel agrees with serial over the zoo" `Quick
            test_parallel_agrees_with_serial;
          Alcotest.test_case "exchange row accounting" `Quick test_exchange_row_accounting;
          Alcotest.test_case "inline stop closes the source" `Quick test_exchange_inline_stop;
          Alcotest.test_case "FIRST in a GMDJ block folds serially" `Quick
            test_parallel_first_is_serial;
          Alcotest.test_case "completed plans ride the exchange" `Quick
            test_completed_plans_ride_the_exchange;
        ] );
      ( "spill",
        [
          Alcotest.test_case "spill agrees and cleans up temp files" `Quick
            test_spill_agrees_and_cleans_up;
          Alcotest.test_case "spill composes with domains" `Quick test_spill_with_domains;
          Alcotest.test_case "nested shapes = oracle in every mode" `Quick
            test_nested_modes_agree_with_oracle;
        ] );
      ( "group-by",
        [
          Helpers.qtest ~count:150 "GROUP BY = list-fold oracle in every mode" gb_gen
            group_by_oracle_prop;
          Helpers.qtest ~count:150 "mixed Int/Float sums = oracles, every kernel path" mixed_gen
            mixed_prop;
          Alcotest.test_case "edge values render as before" `Quick test_aggregate_representation;
        ] );
    ]
