(* SQL front-end: parsing, lowering, and end-to-end agreement with
   hand-built nested-algebra queries. *)

open Subql_relational
open Subql_nested
module N = Nested_ast
module P = Subql_sql.Parser

let parse_ok sql =
  match P.parse sql with
  | stmt -> stmt
  | exception P.Parse_error (msg, off) ->
    Alcotest.failf "unexpected parse error at %d: %s" off msg

let parse_fails sql =
  match P.parse sql with
  | _ -> Alcotest.failf "expected a parse error for %S" sql
  | exception P.Parse_error _ -> ()

(* SQL text and the equivalent hand-built query must evaluate to the
   same multiset on random databases. *)
let sql_equiv_cases : (string * string * N.query) list =
  let attr = Expr.attr in
  [
    ( "exists",
      "SELECT * FROM O o WHERE EXISTS (SELECT * FROM I i WHERE i.k = o.k AND i.y > 2)",
      List.assoc "exists" Query_zoo.queries );
    ( "not-exists",
      "select * from O o where not exists (select 1 from I i where i.k = o.k)",
      Query_zoo.q (N.not_exists ~where:(N.atom Query_zoo.corr) (N.table "I") "i") );
    ( "some",
      "SELECT * FROM O o WHERE o.x < SOME (SELECT y FROM I i WHERE i.k = o.k)",
      List.assoc "some" Query_zoo.queries );
    ( "any",
      "SELECT * FROM O o WHERE o.x < ANY (SELECT i.y FROM I i WHERE i.k = o.k)",
      List.assoc "some" Query_zoo.queries );
    ( "all",
      "SELECT * FROM O o WHERE o.x <> ALL (SELECT y FROM I i WHERE i.y > 2)",
      List.assoc "all-ne" Query_zoo.queries );
    ( "scalar",
      "SELECT * FROM O o WHERE o.x = (SELECT y FROM I i WHERE i.k = o.k)",
      List.assoc "scalar" Query_zoo.queries );
    ( "agg",
      "SELECT * FROM O o WHERE o.x < (SELECT SUM(i.y) FROM I i WHERE i.k = o.k)",
      List.assoc "agg-sum" Query_zoo.queries );
    ( "in",
      "SELECT * FROM O o WHERE o.x IN (SELECT y FROM I i WHERE i.y > 2)",
      List.assoc "in" Query_zoo.queries );
    ( "not-in",
      "SELECT * FROM O o WHERE o.x NOT IN (SELECT y FROM I i)",
      List.assoc "not-in" Query_zoo.queries );
    ( "negation-disjunction",
      "SELECT * FROM O o WHERE NOT EXISTS (SELECT * FROM I i WHERE i.k = o.k AND i.y > 2) \
       OR o.x > 3",
      Query_zoo.q
        (N.por
           (N.pnot
              (N.exists
                 ~where:(N.atom (Expr.and_ Query_zoo.corr Query_zoo.local_i))
                 (N.table "I") "i"))
           (N.atom (Expr.gt (attr ~rel:"o" "x") (Expr.int 3)))) );
    ( "nested",
      "SELECT * FROM O o WHERE EXISTS (SELECT * FROM I i WHERE i.k = o.k AND EXISTS \
       (SELECT * FROM J j WHERE j.k = i.k AND j.y < i.y))",
      List.assoc "linear-nesting" Query_zoo.queries );
    ( "parenthesized-arith",
      "SELECT * FROM O o WHERE (o.x + 1) * 2 > 4 AND (o.k > 0 OR o.k < 0)",
      Query_zoo.q
        (N.pand
           (N.atom
              (Expr.gt
                 (Expr.Arith (Expr.Mul, Expr.Arith (Expr.Add, attr ~rel:"o" "x", Expr.int 1), Expr.int 2))
                 (Expr.int 4)))
           (N.por
              (N.atom (Expr.gt (attr ~rel:"o" "k") (Expr.int 0)))
              (N.atom (Expr.lt (attr ~rel:"o" "k") (Expr.int 0))))) );
    ( "is-null",
      "SELECT * FROM O o WHERE o.k IS NULL OR o.x IS NOT NULL",
      Query_zoo.q
        (N.por
           (N.atom (Expr.Is_null (attr ~rel:"o" "k")))
           (N.atom (Expr.Is_not_null (attr ~rel:"o" "x")))) );
    ( "select-cols",
      "SELECT o.k, x FROM O o WHERE o.x > 0",
      N.query
        ~select:(N.Select_cols [ (Some "o", "k"); (None, "x") ])
        ~base:(N.table "O") ~alias:"o"
        (N.atom (Expr.gt (attr ~rel:"o" "x") (Expr.int 0))) );
    ( "multi-from",
      "SELECT * FROM O a, I b WHERE a.k = b.k AND EXISTS (SELECT * FROM J j WHERE j.k = \
       a.k AND j.y > b.y)",
      List.assoc "multi-from" Query_zoo.queries );
    ( "select-exprs",
      "SELECT o.k + 1 AS k1 FROM O o",
      N.query
        ~select:(N.Select_exprs [ (Expr.Arith (Expr.Add, attr ~rel:"o" "k", Expr.int 1), "k1") ])
        ~base:(N.table "O") ~alias:"o" N.Ptrue );
  ]

let equiv_prop sql expected db =
  let catalog = Query_zoo.mk_catalog db in
  let stmt = parse_ok sql in
  let from_sql = Naive_eval.eval catalog stmt.P.query in
  let reference = Naive_eval.eval catalog expected in
  Relation.equal_as_multiset reference from_sql

let property_tests =
  List.map
    (fun (name, sql, expected) ->
      Helpers.qtest ~count:60 ("sql ≡ ast: " ^ name) Query_zoo.db_gen (equiv_prop sql expected))
    sql_equiv_cases

let test_distinct () =
  let catalog =
    Query_zoo.mk_catalog
      ([ [ Value.Int 1; Value.Int 1 ]; [ Value.Int 1; Value.Int 1 ]; [ Value.Int 2; Value.Int 1 ] ], [], [])
  in
  let stmt = parse_ok "SELECT DISTINCT x FROM O o" in
  Alcotest.(check bool) "distinct flag" true stmt.P.query.N.q_distinct;
  let result = Naive_eval.eval catalog stmt.P.query in
  Alcotest.(check int) "one distinct value" 1 (Relation.cardinality result)

let test_default_alias () =
  let stmt = parse_ok "SELECT * FROM O WHERE EXISTS (SELECT * FROM I WHERE I.k = O.k)" in
  Alcotest.(check string) "alias defaults to table" "O" stmt.P.query.N.q_alias

let test_string_literals () =
  let stmt = parse_ok "SELECT * FROM O o WHERE o.k = 'it''s'" in
  match stmt.P.query.N.q_where with
  | N.Atom (Expr.Cmp (Expr.Eq, _, Expr.Const (Value.Str s))) ->
    Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "unexpected predicate shape"

let test_parse_errors () =
  List.iter parse_fails
    [
      "";
      "SELECT";
      "SELECT * FROM";
      "SELECT * FROM O o WHERE";
      "SELECT * FROM O o WHERE o.x >";
      "SELECT * FROM O o WHERE EXISTS (SELECT sum(y) FROM I i)";
      "SELECT * FROM O o WHERE o.x IN (SELECT * FROM I i)";
      "SELECT * FROM O o WHERE o.x = (SELECT * FROM I i)";
      "SELECT o.x + 1 FROM O o";
      "SELECT * FROM O o WHERE o.x = ALL (SELECT j.y FROM I i)";
      "SELECT * FROM O o extra";
      "SELECT * FROM O o WHERE o.x = 'unterminated";
      "SELECT * FROM O o WHERE o.x BETWEEN 1";
      "SELECT * FROM O o LIMIT -1";
      "SELECT * FROM O o ORDER BY";
      "SELECT * FROM O o GROUP BY o.k";
      "SELECT o.k FROM O o GROUP BY o.k HAVING EXISTS (SELECT * FROM I i)";
      "SELECT o.k FROM O o GROUP BY";
    ]

let test_between () =
  let catalog =
    Query_zoo.mk_catalog
      (List.init 10 (fun i -> [ Value.Int i; Value.Int i ]) |> fun o -> (o, [], []))
  in
  let stmt = parse_ok "SELECT * FROM O o WHERE o.k BETWEEN 3 AND 6" in
  Alcotest.(check int) "between" 4
    (Relation.cardinality (Naive_eval.eval catalog stmt.P.query));
  let stmt = parse_ok "SELECT * FROM O o WHERE o.k NOT BETWEEN 3 AND 6" in
  Alcotest.(check int) "not between" 6
    (Relation.cardinality (Naive_eval.eval catalog stmt.P.query))

let test_order_by_limit () =
  let catalog =
    Query_zoo.mk_catalog
      ([ [ Value.Int 3; Value.Int 30 ]; [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ] ], [], [])
  in
  let stmt = parse_ok "SELECT * FROM O o ORDER BY o.k DESC LIMIT 2" in
  Alcotest.(check (list (pair (option string) string))) "order cols" [ (Some "o", "k") ]
    (List.map fst stmt.P.query.N.q_order_by);
  Alcotest.(check (option int)) "limit" (Some 2) stmt.P.query.N.q_limit;
  let result = Naive_eval.eval catalog stmt.P.query in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality result);
  Alcotest.(check bool) "descending" true
    (Value.equal (Relation.row result 0).(0) (Value.Int 3));
  let stmt = parse_ok "SELECT * FROM O o ORDER BY k ASC, x DESC" in
  Alcotest.(check int) "two order keys" 2 (List.length stmt.P.query.N.q_order_by)

let run_stmt catalog stmt = Naive_eval.eval catalog stmt.P.query

let test_group_by () =
  let catalog =
    Query_zoo.mk_catalog
      ( Value.
          [
            [ Int 1; Int 10 ];
            [ Int 1; Int 20 ];
            [ Int 2; Int 5 ];
            [ Int 2; Null ];
            [ Int 3; Int 1 ];
          ],
        [],
        [] )
  in
  let stmt =
    parse_ok
      "SELECT o.k, SUM(o.x) AS total, COUNT(*) AS n FROM O o GROUP BY o.k ORDER BY o.k"
  in
  let result = run_stmt catalog stmt in
  Alcotest.(check int) "three groups" 3 (Relation.cardinality result);
  let row0 = Relation.row result 0 in
  Alcotest.(check bool) "k=1 total 30" true (Value.equal row0.(1) (Value.Int 30));
  Alcotest.(check bool) "k=1 count 2" true (Value.equal row0.(2) (Value.Int 2));
  let row1 = Relation.row result 1 in
  Alcotest.(check bool) "k=2 total 5 (null ignored)" true (Value.equal row1.(1) (Value.Int 5))

let test_group_by_having () =
  let catalog =
    Query_zoo.mk_catalog
      ( Value.
          [ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 5 ]; [ Int 3; Int 100 ] ],
        [],
        [] )
  in
  let stmt =
    parse_ok "SELECT o.k FROM O o GROUP BY o.k HAVING SUM(o.x) > 20 AND COUNT(*) >= 1"
  in
  let result = run_stmt catalog stmt in
  (* groups: k=1 sum 30 ✓, k=2 sum 5 ✗, k=3 sum 100 ✓ *)
  Alcotest.(check int) "two groups survive" 2 (Relation.cardinality result)

let test_global_aggregate () =
  let catalog =
    Query_zoo.mk_catalog (Value.[ [ Int 1; Int 10 ]; [ Int 2; Int 20 ] ], [], [])
  in
  let stmt = parse_ok "SELECT COUNT(*) AS n, SUM(o.x) AS s, AVG(o.x) FROM O o" in
  let result = run_stmt catalog stmt in
  Alcotest.(check int) "one row" 1 (Relation.cardinality result);
  let row = Relation.row result 0 in
  Alcotest.(check bool) "count" true (Value.equal row.(0) (Value.Int 2));
  Alcotest.(check bool) "sum" true (Value.equal row.(1) (Value.Int 30));
  Alcotest.(check bool) "avg" true (Value.equal row.(2) (Value.Float 15.0));
  (* Empty input still produces one row with COUNT 0 and NULL sums. *)
  let empty = Query_zoo.mk_catalog ([], [], []) in
  let result = run_stmt empty stmt in
  Alcotest.(check int) "one row on empty" 1 (Relation.cardinality result);
  Alcotest.(check bool) "count 0" true (Value.equal (Relation.row result 0).(0) (Value.Int 0));
  Alcotest.(check bool) "sum null" true (Value.is_null (Relation.row result 0).(1))

let test_group_by_with_subquery_where () =
  (* The WHERE subquery filters rows before grouping — the full pipeline:
     subquery engine, then grouping. *)
  let catalog =
    Query_zoo.mk_catalog
      ( Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 5 ] ],
        Value.[ [ Int 1; Int 0 ] ],
        [] )
  in
  let stmt =
    parse_ok
      "SELECT o.k, COUNT(*) AS n FROM O o WHERE EXISTS (SELECT * FROM I i WHERE i.k = o.k) \
       GROUP BY o.k"
  in
  let result = run_stmt catalog stmt in
  Alcotest.(check int) "only the matching key groups" 1 (Relation.cardinality result);
  Alcotest.(check bool) "count 2" true
    (Value.equal (Relation.row result 0).(1) (Value.Int 2));
  (* And the grouping is engine-independent. *)
  let via_gmdj =
    Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra stmt.P.query))
  in
  Alcotest.(check bool) "gmdj path agrees" true (Relation.equal_as_multiset result via_gmdj)

let test_having_reuses_select_aggregate () =
  let stmt = parse_ok "SELECT o.k, SUM(o.x) AS s FROM O o GROUP BY o.k HAVING SUM(o.x) > 3" in
  match stmt.P.query.N.q_select with
  | N.Select_grouped g -> Alcotest.(check int) "one aggregate computed" 1 (List.length g.N.aggs)
  | N.Select_all | N.Select_cols _ | N.Select_exprs _ ->
    Alcotest.fail "expected a grouped statement"

(* --- One plan per statement ------------------------------------------ *)

(* Every entry point — the naive oracle, the planner, the GMDJ and
   unnesting plans, the batch front door cold and warm, and the serving
   loop — must evaluate a statement's GROUP BY / HAVING / DISTINCT /
   ORDER BY / LIMIT, before and after a maintained append. *)

module Batch = Subql_mqo.Batch
module Cache = Subql_mqo.Result_cache
module Server = Subql_server.Server
module Ingest = Subql_ingest.Ingest

(* How an answer must match the oracle's: row for row when the ORDER BY
   keys order the output totally; as a multiset when row order is
   unspecified; and for LIMIT without ORDER BY, as the right number of
   rows drawn from the answer without the LIMIT. *)
type agreement = Ordered | Unordered | Any_rows

let exists_ik = "EXISTS (SELECT * FROM I i WHERE i.k = o.k)"

let tail_cases =
  [
    ( "group by",
      Unordered,
      "SELECT o.k, COUNT(*) AS n, SUM(o.x) AS s FROM O o WHERE " ^ exists_ik ^ " GROUP BY o.k"
    );
    ("having", Unordered, "SELECT o.k, COUNT(*) AS n FROM O o GROUP BY o.k HAVING COUNT(*) > 1");
    ( "every aggregate kind",
      Unordered,
      "SELECT o.k, COUNT(*) AS n, COUNT(o.x) AS c, SUM(o.x) AS s, MIN(o.x) AS lo, MAX(o.x) AS hi, \
       AVG(o.x) AS a, FIRST(o.x) AS f FROM O o GROUP BY o.k" );
    ( "global aggregate over empty input",
      Unordered,
      "SELECT COUNT(*) AS n, SUM(o.x) AS s FROM O o WHERE " ^ exists_ik ^ " AND NOT " ^ exists_ik
    );
    ("distinct", Unordered, "SELECT DISTINCT o.k FROM O o WHERE " ^ exists_ik);
    ( "multi-key order by",
      Ordered,
      "SELECT o.k, o.x FROM O o WHERE " ^ exists_ik ^ " ORDER BY o.k ASC, o.x DESC" );
    ( "grouped order by",
      Ordered,
      "SELECT o.k, COUNT(*) AS n FROM O o GROUP BY o.k ORDER BY n DESC, o.k" );
    ("limit 0", Unordered, "SELECT * FROM O o WHERE " ^ exists_ik ^ " LIMIT 0");
    ( "order by + limit",
      Ordered,
      "SELECT o.k, o.x FROM O o WHERE " ^ exists_ik ^ " ORDER BY o.k DESC, o.x LIMIT 3" );
    ( "limit without order by",
      Any_rows,
      "SELECT o.k, o.x FROM O o WHERE " ^ exists_ik ^ " LIMIT 3" );
  ]

let agrees catalog mode (q : N.query) ~expected got =
  match mode with
  | Ordered -> Helpers.equal_as_list expected got
  | Unordered -> Relation.equal_as_multiset expected got
  | Any_rows ->
    let untailed = Naive_eval.eval catalog { q with N.q_limit = None } in
    Relation.cardinality expected = Relation.cardinality got
    && Relation.is_empty (Helpers.whole (Ops.diff_all ~build:untailed) got)

let serve ~cache catalog queries =
  let config = { Server.default_config with batch_max = 64 } in
  let server = Server.create ~config ~cache catalog in
  List.iter
    (fun q ->
      match Server.submit server ~now:0. q with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "serve rejected a tail statement")
    queries;
  Server.drain server ~now:1. |> List.concat_map (fun b -> b.Server.completions)
  |> List.sort (fun a b -> compare a.Server.ticket.Server.id b.Server.ticket.Server.id)
  |> List.map (fun c -> c.Server.result)

let test_tail_agreement () =
  (* A sparse detail table, so the append changes every WHERE EXISTS answer. *)
  let catalog = Subql_workload.Zoo.catalog ~outer:48 ~inner:12 () in
  let cases =
    List.map (fun (name, mode, sql) -> (name, mode, (parse_ok sql).P.query)) tail_cases
  in
  let queries = List.map (fun (_, _, q) -> q) cases in
  let cache = Cache.create ~min_cost:0. () in
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~catalog ~cache () in
  List.iter (fun q -> ignore (Ingest.register_query ing q)) queries;
  let check_all phase =
    let oracle = List.map (Naive_eval.eval catalog) queries in
    let check entry results =
      List.iter2
        (fun ((name, mode, q), expected) got ->
          if not (agrees catalog mode q ~expected got) then
            Alcotest.failf "%s, %s disagrees with the oracle on %s:@.expected %a@.got %a" phase
              entry name Relation.pp expected Relation.pp got)
        (List.combine cases oracle) results
    in
    let eval plan_of = List.map (fun q -> Subql.Eval.eval catalog (plan_of q)) queries in
    check "Planner.run" (List.map (Subql.Planner.run catalog) queries);
    check "gmdj-opt" (eval (fun q -> Subql.Optimize.optimize (Subql.Transform.to_algebra q)));
    check "unnest" (eval (Subql.Unnest.best catalog));
    check "batch" (List.map snd (Batch.run ~cache catalog queries).Batch.results);
    let warm = Batch.run ~cache catalog queries in
    Alcotest.(check int) (phase ^ ": warm batch answers from the cache") (List.length queries)
      warm.Batch.cache_hits;
    check "batch (warm)" (List.map snd warm.Batch.results);
    check "serve (cold)" (serve ~cache:(Cache.create ~min_cost:0. ()) catalog queries);
    check "serve (warm)" (serve ~cache catalog queries)
  in
  check_all "before the append";
  ignore (Ingest.append ing ~table:"I" (Subql_workload.Zoo.detail_rows ~seed:5L 64));
  check_all "after the append";
  Ingest.close ing

(* A LIMIT is part of the statement's identity: it changes the
   fingerprint, so a cache warmed with the full answer never serves it
   to the limited statement. *)
let test_limit_changes_identity () =
  let catalog = Subql_workload.Zoo.catalog ~outer:48 ~inner:256 () in
  let full = (parse_ok ("SELECT o.k, o.x FROM O o WHERE " ^ exists_ik)).P.query in
  let limited = (parse_ok ("SELECT o.k, o.x FROM O o WHERE " ^ exists_ik ^ " LIMIT 3")).P.query in
  Alcotest.(check bool) "different fingerprints" false
    (String.equal (Subql_mqo.Fingerprint.of_query full) (Subql_mqo.Fingerprint.of_query limited));
  let cache = Cache.create ~min_cost:0. () in
  let full_rows =
    Relation.cardinality (List.assoc 0 (Batch.run ~cache catalog [ full ]).Batch.results)
  in
  Alcotest.(check bool) "the full answer has more than 3 rows" true (full_rows > 3);
  let report = Batch.run ~cache catalog [ limited ] in
  Alcotest.(check int) "no cache hit for the limited statement" 0 report.Batch.cache_hits;
  Alcotest.(check int) "batch: 3 rows" 3
    (Relation.cardinality (List.assoc 0 report.Batch.results));
  match serve ~cache catalog [ limited ] with
  | [ r ] -> Alcotest.(check int) "serve: 3 rows" 3 (Relation.cardinality r)
  | _ -> Alcotest.fail "expected one completion"

let test_error_rendering () =
  let rendered = P.parse_exn_to_string "SELECT * FROM O o WHERE o.x >" in
  Alcotest.(check bool) "mentions parse error" true
    (String.length rendered > 0 && String.sub rendered 0 11 = "parse error")

let () =
  Alcotest.run "sql"
    [
      ("equivalence", property_tests);
      ( "parsing",
        [
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "default alias" `Quick test_default_alias;
          Alcotest.test_case "string literals" `Quick test_string_literals;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "between" `Quick test_between;
          Alcotest.test_case "order by and limit" `Quick test_order_by_limit;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "having" `Quick test_group_by_having;
          Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
          Alcotest.test_case "group by + where subquery" `Quick
            test_group_by_with_subquery_where;
          Alcotest.test_case "having reuses select aggregate" `Quick
            test_having_reuses_select_aggregate;
          Alcotest.test_case "error rendering" `Quick test_error_rendering;
        ] );
      ( "tail",
        [
          Alcotest.test_case "every entry point" `Quick test_tail_agreement;
          Alcotest.test_case "limit changes identity" `Quick test_limit_changes_identity;
        ] );
    ]
