(* Cost model and cost-based plan selection. *)

open Subql_relational
open Subql_nested
module N = Nested_ast

let attr = Expr.attr

(* --- Stats ---------------------------------------------------------------- *)

let catalog_of rows_o rows_i =
  Query_zoo.mk_catalog
    ( List.init rows_o (fun n -> [ Value.Int (n mod 10); Value.Int n ]),
      List.init rows_i (fun n -> [ Value.Int (n mod 10); Value.Int n ]),
      [] )

let test_stats () =
  let stats = Subql.Cost.Stats.of_catalog (catalog_of 50 200) in
  Alcotest.(check bool) "rows O" true (Subql.Cost.Stats.table_rows stats "O" = 50.0);
  Alcotest.(check bool) "rows I" true (Subql.Cost.Stats.table_rows stats "I" = 200.0);
  Alcotest.(check bool) "unknown default" true
    (Subql.Cost.Stats.table_rows stats "Nope" = 1000.0);
  Alcotest.(check (option (float 0.01))) "ndv of O.k" (Some 10.0)
    (Subql.Cost.Stats.column_distinct stats ~table:"O" ~column:"k");
  Alcotest.(check (option (float 0.01))) "ndv of O.x" (Some 50.0)
    (Subql.Cost.Stats.column_distinct stats ~table:"O" ~column:"x")

let test_selectivity () =
  let stats = Subql.Cost.Stats.of_catalog (catalog_of 50 200) in
  let origins = [ ("o", "O") ] in
  let sel e = Subql.Cost.selectivity stats ~origins e in
  Alcotest.(check (float 0.001)) "eq with ndv" 0.1
    (sel (Expr.eq (attr ~rel:"o" "k") (Expr.int 3)));
  Alcotest.(check (float 0.001)) "range" 0.33 (sel (Expr.gt (attr ~rel:"o" "k") (Expr.int 3)));
  Alcotest.(check bool) "conjunction multiplies" true
    (sel
       (Expr.and_
          (Expr.eq (attr ~rel:"o" "k") (Expr.int 3))
          (Expr.gt (attr ~rel:"o" "x") (Expr.int 0)))
    < 0.1);
  Alcotest.(check bool) "clamped" true (sel (Expr.bool false) > 0.0)

let test_estimate_monotonicity () =
  let stats = Subql.Cost.Stats.of_catalog (catalog_of 100 1000) in
  let config = Subql.Eval.default_config in
  let table = Subql.Algebra.Rename ("o", Subql.Algebra.Table "O") in
  let est_table = Subql.Cost.estimate stats ~config table in
  Alcotest.(check (float 0.01)) "table rows" 100.0 est_table.Subql.Cost.rows;
  let selected =
    Subql.Algebra.Select (Expr.eq (attr ~rel:"o" "k") (Expr.int 1), table)
  in
  let est_sel = Subql.Cost.estimate stats ~config selected in
  Alcotest.(check bool) "selection reduces rows" true
    (est_sel.Subql.Cost.rows < est_table.Subql.Cost.rows);
  Alcotest.(check bool) "selection adds cost" true
    (est_sel.Subql.Cost.cost > est_table.Subql.Cost.cost)

let test_nl_join_costs_more () =
  let stats = Subql.Cost.Stats.of_catalog (catalog_of 100 1000) in
  let join =
    Subql.Algebra.Join
      {
        kind = Subql.Algebra.Inner;
        cond = Expr.eq (attr ~rel:"o" "k") (attr ~rel:"i" "k");
        left = Subql.Algebra.Rename ("o", Subql.Algebra.Table "O");
        right = Subql.Algebra.Rename ("i", Subql.Algebra.Table "I");
      }
  in
  let hash = Subql.Cost.estimate stats ~config:Subql.Eval.default_config join in
  let nl = Subql.Cost.estimate stats ~config:Subql.Eval.unindexed_config join in
  Alcotest.(check bool) "nested loop dearer than hash" true
    (nl.Subql.Cost.cost > hash.Subql.Cost.cost);
  Alcotest.(check (float 0.01)) "same cardinality" hash.Subql.Cost.rows nl.Subql.Cost.rows

(* --- Planner ---------------------------------------------------------------- *)

let exists_query = List.assoc "exists" Query_zoo.queries

let test_candidates_enumerated () =
  let catalog = catalog_of 20 100 in
  let cands = Subql.Planner.candidates catalog exists_query in
  let labels = List.map (fun c -> c.Subql.Planner.label) cands in
  Alcotest.(check bool) "gmdj offered" true (List.mem "gmdj" labels);
  Alcotest.(check bool) "semijoin offered" true (List.mem "semijoin-unnest" labels);
  Alcotest.(check bool) "outerjoin offered" true (List.mem "outerjoin-unnest" labels);
  (* sorted by cost *)
  let costs = List.map (fun c -> c.Subql.Planner.estimate.Subql.Cost.cost) cands in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare costs = costs)

let test_semijoin_unavailable_for_disjunction () =
  let catalog = catalog_of 20 100 in
  let query = List.assoc "disjunction" Query_zoo.queries in
  let labels =
    List.map (fun c -> c.Subql.Planner.label) (Subql.Planner.candidates catalog query)
  in
  Alcotest.(check bool) "no semijoin plan" false (List.mem "semijoin-unnest" labels);
  Alcotest.(check bool) "gmdj still offered" true (List.mem "gmdj" labels)

let planner_agrees_prop db =
  let catalog = Query_zoo.mk_catalog db in
  List.for_all
    (fun (_, query) ->
      let reference = Naive_eval.eval catalog query in
      Relation.equal_as_multiset reference (Subql.Planner.run catalog query))
    Query_zoo.queries

let test_every_candidate_agrees () =
  let catalog = catalog_of 25 120 in
  List.iter
    (fun (name, query) ->
      let reference = Naive_eval.eval catalog query in
      List.iter
        (fun c ->
          let result = Subql.Eval.eval catalog c.Subql.Planner.plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s via %s" name c.Subql.Planner.label)
            true
            (Relation.equal_as_multiset reference result))
        (Subql.Planner.candidates catalog query))
    Query_zoo.queries

(* Every candidate of every zoo template is well typed and has the
   schema of the GMDJ reference translation; a drifting or ill-typed
   plan would be flagged. *)
let test_every_candidate_verifies () =
  let catalog = Subql_workload.Zoo.catalog () in
  let verdict = Subql_analysis.Verify.check_candidate catalog in
  let errors query ~label plan = List.filter Diag.is_error (verdict query ~label plan) in
  let checked = ref 0 in
  List.iter
    (fun (name, query) ->
      List.iter
        (fun c ->
          incr checked;
          let label = c.Subql.Planner.label in
          Alcotest.(check (list string))
            (Printf.sprintf "%s via %s" name label)
            []
            (List.map Diag.to_string (errors query ~label c.Subql.Planner.plan)))
        (Subql.Planner.candidates catalog query))
    Subql_workload.Zoo.queries;
  Alcotest.(check bool) "unnesting candidates checked too" true
    (!checked > List.length Subql_workload.Zoo.queries);
  let query = Subql_workload.Zoo.find_query "exists" in
  let drifting =
    Subql.Algebra.Project_cols
      { cols = [ (Some "o", "k") ]; input = Subql.Algebra.Rename ("o", Subql.Algebra.Table "O") }
  in
  let codes plan = List.map (fun d -> d.Diag.code) (errors query ~label:"bad" plan) in
  Alcotest.(check bool) "schema drift flagged" true (List.mem "VER001" (codes drifting));
  Alcotest.(check bool) "ill-typed plan flagged" true (codes (Subql.Algebra.Table "Nope") <> [])

(* --- Instrumented evaluation --------------------------------------------- *)

(* The cost model prices a GMDJ block as hashable exactly when the
   [`Hash] strategy finds a key in it: over every MD condition of the
   optimized zoo plans, [Cost.block_hashable] agrees with
   [Expr.split_equi] over the node's base and detail schemas. *)
let test_block_hashable_matches_split_equi () =
  let catalog = Subql_workload.Zoo.catalog ~outer:8 ~inner:16 () in
  let checked = ref 0 and null_safe_keys = ref 0 in
  let check label ~base ~detail theta =
    let bs = Subql.Eval.schema catalog base and ds = Subql.Eval.schema catalog detail in
    let keys, _ = Expr.split_equi ~left:bs ~right:ds theta in
    if List.exists (fun k -> k.Expr.null_safe) keys then incr null_safe_keys;
    incr checked;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" label (Expr.to_string theta))
      (keys <> []) (Subql.Cost.block_hashable theta)
  in
  let rec walk label alg =
    (match alg with
    | Subql.Algebra.Md { base; detail; blocks; completion } ->
      List.iter (fun b -> check label ~base ~detail b.Subql_gmdj.Gmdj.theta) blocks;
      Option.iter
        (fun c ->
          List.iter (check label ~base ~detail)
            (c.Subql_gmdj.Gmdj.kill_when @ c.Subql_gmdj.Gmdj.require_fired))
        completion
    | _ -> ());
    List.iter (walk label) (Subql.Algebra.children alg)
  in
  List.iter
    (fun (label, query) -> walk label (Subql.Optimize.optimize (Subql.Transform.to_algebra query)))
    Subql_workload.Zoo.queries;
  Alcotest.(check bool) "MD conditions checked" true (!checked >= 24);
  Alcotest.(check bool) "some keys are null-safe" true (!null_safe_keys > 0)

let test_eval_analyzed () =
  let catalog = catalog_of 30 200 in
  let query = List.assoc "exists" Query_zoo.queries in
  let plan = Subql.Optimize.optimize (Subql.Transform.to_algebra query) in
  let plain = Subql.Eval.eval catalog plan in
  let analyzed, node = Subql.Eval.eval_analyzed ~registry:(Subql_obs.Metrics.create ()) catalog plan in
  let module E = Subql_obs.Explain in
  Alcotest.(check bool) "same result" true (Relation.equal_as_multiset plain analyzed);
  Alcotest.(check int) "root cardinality recorded" (Relation.cardinality plain) node.E.rows_out;
  let rec count n = 1 + List.fold_left (fun acc c -> acc + count c) 0 n.E.children in
  Alcotest.(check bool) "per-node annotations" true (count node >= 4);
  let rendered = Format.asprintf "%a" E.pp node in
  Alcotest.(check bool) "renders rows" true
    (String.length rendered > 0
    &&
    let re = Str.regexp_string "rows-out=" in
    (try ignore (Str.search_forward re rendered 0); true with Not_found -> false))

let () =
  Alcotest.run "planner"
    [
      ( "cost",
        [
          Alcotest.test_case "catalog statistics" `Quick test_stats;
          Alcotest.test_case "selectivities" `Quick test_selectivity;
          Alcotest.test_case "estimate monotonicity" `Quick test_estimate_monotonicity;
          Alcotest.test_case "nested loop dearer" `Quick test_nl_join_costs_more;
          Alcotest.test_case "hashable blocks are split_equi's" `Quick
            test_block_hashable_matches_split_equi;
        ] );
      ( "planner",
        [
          Alcotest.test_case "candidates enumerated" `Quick test_candidates_enumerated;
          Alcotest.test_case "semijoin gated by applicability" `Quick
            test_semijoin_unavailable_for_disjunction;
          Alcotest.test_case "every candidate agrees" `Quick test_every_candidate_agrees;
          Alcotest.test_case "every candidate verifies" `Quick test_every_candidate_verifies;
          Helpers.qtest ~count:40 "chosen plan agrees with naive" Query_zoo.db_gen
            planner_agrees_prop;
        ] );
      ("traced", [ Alcotest.test_case "instrumented evaluation" `Quick test_eval_analyzed ]);
    ]
