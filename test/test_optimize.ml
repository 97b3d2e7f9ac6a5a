(* Optimizer: coalescing (Prop. 4.1), selection push-up (Ex. 4.1), and
   completion detection (Thms 4.1/4.2) — plan shapes and semantics. *)

open Subql_relational
open Subql_gmdj
open Subql_nested
module N = Nested_ast
module A = Subql.Algebra

let attr = Expr.attr

let count_nodes pred alg =
  let n = ref 0 in
  let rec go a =
    if pred a then incr n;
    ignore
      (Subql.Algebra.map_children
         (fun c ->
           go c;
           c)
         a)
  in
  go alg;
  !n

let count_mds = count_nodes (function A.Md _ -> true | _ -> false)

let count_completed = count_nodes (function A.Md { completion = Some _; _ } -> true | _ -> false)

(* The last node [f] picks out, in pre-order. *)
let find_node f alg =
  let found = ref None in
  let rec go a =
    Option.iter (fun x -> found := Some x) (f a);
    ignore
      (Subql.Algebra.map_children
         (fun c ->
           go c;
           c)
         a)
  in
  go alg;
  !found

let find_completion =
  find_node (function A.Md { completion = Some c; _ } -> Some c | _ -> None)

let coalesce_only = Subql.Optimize.only ~coalesce:true ()

let completion_only = Subql.Optimize.only ~completion:true ()

(* --- Coalescing -------------------------------------------------------- *)

let test_coalesce_same_table () =
  let query = List.assoc "two-subqueries-same-table" Query_zoo.queries in
  let basic = Subql.Transform.to_algebra query in
  let coalesced = Subql.Optimize.optimize ~flags:coalesce_only basic in
  Alcotest.(check int) "two MDs before" 2 (count_mds basic);
  Alcotest.(check int) "one MD after" 1 (count_mds coalesced)

let test_no_coalesce_different_tables () =
  let query = List.assoc "two-subqueries-or" Query_zoo.queries in
  let basic = Subql.Transform.to_algebra query in
  let coalesced = Subql.Optimize.optimize ~flags:coalesce_only basic in
  Alcotest.(check int) "different detail tables stay apart" (count_mds basic)
    (count_mds coalesced)

let test_no_coalesce_dependent_blocks () =
  (* The outer blocks read the inner GMDJ's count column: merging would
     change meaning, so the rule must not fire. *)
  let detail = A.Rename ("i", A.Table "I") in
  let inner =
    A.Md
      {
        base = A.Rename ("o", A.Table "O");
        detail;
        blocks = [ Gmdj.block [ Aggregate.count_star "c1" ] (Expr.bool true) ];
        completion = None;
      }
  in
  let outer =
    A.Md
      {
        base = inner;
        detail;
        blocks =
          [
            Gmdj.block
              [ Aggregate.count_star "c2" ]
              (Expr.gt (attr "c1") (Expr.int 0));
          ];
        completion = None;
      }
  in
  let optimized = Subql.Optimize.optimize ~flags:coalesce_only outer in
  Alcotest.(check int) "still two MDs" 2 (count_mds optimized)

let test_coalesce_requalifies () =
  (* Same underlying table under different aliases: outer θs must be
     rewritten to the surviving alias. *)
  let mk alias cnt =
    ( A.Rename (alias, A.Table "I"),
      Gmdj.block
        [ Aggregate.count_star cnt ]
        (Expr.eq (attr ~rel:alias "k") (attr ~rel:"o" "k")) )
  in
  let d1, b1 = mk "i1" "c1" in
  let d2, b2 = mk "i2" "c2" in
  let plan =
    A.Md
      {
        base =
          A.Md
            { base = A.Rename ("o", A.Table "O"); detail = d1; blocks = [ b1 ]; completion = None };
        detail = d2;
        blocks = [ b2 ];
        completion = None;
      }
  in
  match Subql.Optimize.optimize ~flags:coalesce_only plan with
  | A.Md { blocks = [ _; rewritten ]; completion = None; _ } ->
    Alcotest.(check (list string)) "θ requalified to i1" [ "i1"; "o" ]
      (List.sort String.compare (Expr.qualifiers rewritten.Gmdj.theta))
  | other -> Alcotest.failf "expected a single merged MD, got %a" A.pp other

let test_selection_push_up () =
  (* Ex. 4.1's second step: a count-selection between two coalescible
     GMDJs is hoisted above the merged operator. *)
  let query = List.assoc "two-subqueries-same-table" Query_zoo.queries in
  let stack, cond = Subql.Transform.where_condition query in
  let with_mid_selection =
    match stack with
    | A.Md { base = A.Md _ as inner; detail; blocks; completion = None } ->
      A.Md { base = A.Select (Expr.bool true, inner); detail; blocks; completion = None }
    | other -> other
  in
  let coalesced = Subql.Optimize.optimize ~flags:coalesce_only with_mid_selection in
  ignore cond;
  Alcotest.(check int) "merged through the selection" 1 (count_mds coalesced);
  match coalesced with
  | A.Select (_, A.Md _) -> ()
  | other -> Alcotest.failf "expected Select over merged MD, got %a" A.pp other

(* --- Completion detection ----------------------------------------------- *)

let test_completion_exists () =
  let query = List.assoc "exists" Query_zoo.queries in
  let optimized = Subql.Optimize.optimize ~flags:completion_only (Subql.Transform.to_algebra query) in
  match find_completion optimized with
  | Some c ->
    Alcotest.(check int) "one require" 1 (List.length c.Gmdj.require_fired);
    Alcotest.(check int) "no kills" 0 (List.length c.Gmdj.kill_when);
    Alcotest.(check bool) "aggregates skipped" false c.Gmdj.maintain_aggregates
  | None -> Alcotest.fail "completion did not fire for EXISTS"

let test_completion_not_exists_is_kill () =
  let query = List.assoc "not-exists" Query_zoo.queries in
  let optimized = Subql.Optimize.optimize ~flags:completion_only (Subql.Transform.to_algebra query) in
  match find_completion optimized with
  | Some c ->
    Alcotest.(check int) "one kill" 1 (List.length c.Gmdj.kill_when);
    Alcotest.(check int) "no requires" 0 (List.length c.Gmdj.require_fired)
  | None -> Alcotest.fail "completion did not fire for NOT EXISTS"

let test_completion_all_pattern () =
  let query = List.assoc "all-ne" Query_zoo.queries in
  let optimized = Subql.Optimize.optimize (Subql.Transform.to_algebra query) in
  match find_completion optimized with
  | Some c ->
    Alcotest.(check int) "ALL compiles to a kill" 1 (List.length c.Gmdj.kill_when);
    (match c.Gmdj.kill_when with
    | [ Expr.And (_, Expr.Not (Expr.Is_true _)) ] -> ()
    | [ other ] -> Alcotest.failf "unexpected kill shape %a" Expr.pp other
    | _ -> Alcotest.fail "expected exactly one kill")
  | None -> Alcotest.fail "completion did not fire for ALL"

let test_completion_respects_needed_aggregates () =
  (* The aggregate column feeds the final projection: maintenance must
     stay on.  Build Select(cnt > 0, Md) and project the count out. *)
  let md =
    A.Md
      {
        base = A.Rename ("o", A.Table "O");
        detail = A.Rename ("i", A.Table "I");
        blocks =
          [
            Gmdj.block
              [ Aggregate.count_star "cnt" ]
              (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k"));
          ];
        completion = None;
      }
  in
  let keeps = A.Project ([ (attr "cnt", "n") ], A.Select (Expr.gt (attr "cnt") (Expr.int 0), md)) in
  (match Subql.Optimize.optimize ~flags:completion_only keeps with
  | A.Project (_, A.Md { completion = Some completion; _ }) ->
    Alcotest.(check bool) "maintained when projected" true completion.Gmdj.maintain_aggregates
  | other -> Alcotest.failf "expected completed plan, got %a" A.pp other);
  let drops =
    A.Project
      ( [ (attr ~rel:"o" "k", "k") ],
        A.Select (Expr.gt (attr "cnt") (Expr.int 0), md) )
  in
  match Subql.Optimize.optimize ~flags:completion_only drops with
  | A.Project (_, A.Md { completion = Some completion; _ }) ->
    Alcotest.(check bool) "skipped when dropped" false completion.Gmdj.maintain_aggregates
  | other -> Alcotest.failf "expected completed plan, got %a" A.pp other

let test_completion_residual_preserved () =
  (* Non-count conjuncts must survive in a residual selection when
     selection push-down is off... *)
  let query = List.assoc "mixed-atoms" Query_zoo.queries in
  let optimized = Subql.Optimize.optimize ~flags:completion_only (Subql.Transform.to_algebra query) in
  Alcotest.(check int) "one completed MD" 1 (count_completed optimized);
  let has_residual_select =
    count_nodes
      (function A.Select (_, A.Md { completion = Some _; _ }) -> true | _ -> false)
      optimized
  in
  Alcotest.(check int) "residual Select kept" 1 has_residual_select;
  (* ... and with push-down on, those base-only conjuncts move below the
     GMDJ instead, leaving a pure completion. *)
  let full = Subql.Optimize.optimize (Subql.Transform.to_algebra query) in
  Alcotest.(check int) "still one completed MD" 1 (count_completed full);
  let pushed_into_base =
    count_nodes
      (function A.Md { base = A.Select _; completion = Some _; _ } -> true | _ -> false)
      full
  in
  Alcotest.(check int) "atoms pushed below the GMDJ" 1 pushed_into_base

(* --- Selection push-down -------------------------------------------------- *)

let pushdown_only = Subql.Optimize.only ~pushdown:true ()

let test_pushdown_product_to_join () =
  let plan =
    A.Select
      ( Expr.conjoin
          [
            Expr.eq (attr ~rel:"a" "k") (attr ~rel:"b" "k");
            Expr.gt (attr ~rel:"a" "x") (Expr.int 0);
            Expr.lt (attr ~rel:"b" "y") (Expr.int 5);
          ],
        A.Product (A.Rename ("a", A.Table "O"), A.Rename ("b", A.Table "I")) )
  in
  match Subql.Optimize.optimize ~flags:pushdown_only plan with
  | A.Join { kind = A.Inner; cond; left = A.Select (le, _); right = A.Select (re, _) } ->
    Alcotest.(check (list string)) "join cond on both" [ "a"; "b" ]
      (List.sort String.compare (Expr.qualifiers cond));
    Alcotest.(check (list string)) "left select" [ "a" ] (Expr.qualifiers le);
    Alcotest.(check (list string)) "right select" [ "b" ] (Expr.qualifiers re)
  | other -> Alcotest.failf "expected join over pushed selects, got %a" A.pp other

let test_pushdown_below_md () =
  let query = List.assoc "multi-from" Query_zoo.queries in
  let optimized = Subql.Optimize.optimize ~flags:pushdown_only (Subql.Transform.to_algebra query) in
  (* The a.k = b.k join predicate must have moved below the GMDJ and
     turned the base product into a join. *)
  let md_over_join =
    count_nodes
      (function
        | A.Md { base = A.Join { kind = A.Inner; _ }; completion = None; _ } -> true | _ -> false)
      optimized
  in
  Alcotest.(check int) "base product became a join" 1 md_over_join

let test_pushdown_keeps_count_conditions () =
  let query = List.assoc "exists" Query_zoo.queries in
  let plan = Subql.Transform.to_algebra query in
  Alcotest.(check bool) "count-only selections untouched" true
    (Subql.Optimize.optimize ~flags:pushdown_only plan = plan)

(* --- Key factorization of aggregate-free completions ------------------ *)

let inner_md_base =
  find_node (function
    | A.Md { detail = A.Md { base; completion = None; _ }; completion = Some _; _ } -> Some base
    | _ -> None)

(* Scans of I not under a distinct projection: the rows the push-down's
   product would multiply. *)
let rec bare_scans_of_i = function
  | A.Table "I" -> 1
  | A.Group_by { keys = Some _; aggs = []; _ } -> 0
  | a ->
    let n = ref 0 in
    ignore
      (Subql.Algebra.map_children
         (fun c ->
           n := !n + bare_scans_of_i c;
           c)
         a);
    !n

let count_distinct_projections =
  count_nodes (function A.Group_by { keys = Some _; aggs = []; _ } -> true | _ -> false)

let factorized_shapes =
  [
    "linear-nesting"; "non-neighboring"; "double-negation-division"; "nested-agg";
    "multi-from-non-neighboring";
  ]

let test_factorization_fires () =
  List.iter
    (fun name ->
      let plan = Subql.Optimize.optimize (Subql.Transform.to_algebra (List.assoc name Query_zoo.queries)) in
      match inner_md_base plan with
      | None -> Alcotest.failf "%s: no completion over an inner GMDJ in %a" name A.pp plan
      | Some base ->
        Alcotest.(check bool)
          (name ^ ": inner base holds a distinct projection")
          true
          (count_distinct_projections base > 0);
        Alcotest.(check int) (name ^ ": no bare scan of I under the inner GMDJ") 0
          (bare_scans_of_i base))
    factorized_shapes

(* The double negation's [i.y > 2] sits in every completion and block θ:
   it is hoisted into the inner base, so K is {o#2.k, i.k} alone. *)
let test_factorization_hoists_detail_filter () =
  let plan =
    Subql.Optimize.optimize
      (Subql.Transform.to_algebra (List.assoc "double-negation-division" Query_zoo.queries))
  in
  (match find_completion plan with
  | Some c ->
    Alcotest.(check bool) "i.y left the kill rule" false
      (List.exists (Expr.references_rel "i") c.Gmdj.kill_when)
  | None -> Alcotest.fail "no completion");
  let keys_of_i =
    count_nodes
      (function
        | A.Group_by { keys = Some [ (Some "i", "k") ]; aggs = []; input = A.Select _ } -> true
        | _ -> false)
      plan
  in
  Alcotest.(check int) "distinct i.k over the hoisted filter" 1 keys_of_i

(* A residual reading the completion's own count keeps its aggregates
   maintained: the detail then counts as a multiset and stays as it is. *)
let test_factorization_needs_aggregate_free () =
  let translated = Subql.Transform.to_algebra (List.assoc "non-neighboring" Query_zoo.queries) in
  let reads_count =
    match translated with
    | A.Project_rel (aliases, A.Select (cond, md)) ->
      let cnt =
        List.find_map
          (function
            | Expr.Cmp (Expr.Gt, (Expr.Attr (None, _) as c), _) -> Some c | _ -> None)
          (Expr.conjuncts cond)
        |> Option.get
      in
      A.Project_rel (aliases, A.Select (Expr.and_ cond (Expr.lt cnt (Expr.int 1000)), md))
    | other -> Alcotest.failf "unexpected translation %a" A.pp other
  in
  let plan = Subql.Optimize.optimize reads_count in
  (match find_completion plan with
  | Some c -> Alcotest.(check bool) "aggregates maintained" true c.Gmdj.maintain_aggregates
  | None -> Alcotest.fail "no completion");
  Alcotest.(check int) "no distinct projection added" (count_distinct_projections translated)
    (count_distinct_projections plan);
  let catalog = Subql_workload.Zoo.catalog ~outer:16 ~inner:64 () in
  Helpers.check_multiset_equal "same answer" (Subql.Eval.eval catalog reads_count)
    (Subql.Eval.eval catalog plan)

(* Single-block plans have no inner GMDJ: the rule leaves them alone. *)
let test_factorization_skips_single_block () =
  List.iter
    (fun (name, q) ->
      if not (List.mem name factorized_shapes) then
        let translated = Subql.Transform.to_algebra q in
        let plan = Subql.Optimize.optimize translated in
        Alcotest.(check int) (name ^ ": distinct projections unchanged")
          (count_distinct_projections translated) (count_distinct_projections plan))
    Query_zoo.queries

(* --- Semantics preservation on the whole zoo (belt and braces: the
   transform suite also covers this; here with both rules isolated) ---- *)

let optimize_preserves_prop flags db =
  let catalog = Query_zoo.mk_catalog db in
  List.for_all
    (fun (_, query) ->
      let plan = Subql.Transform.to_algebra query in
      Relation.equal_as_multiset (Subql.Eval.eval catalog plan)
        (Subql.Eval.eval catalog (Subql.Optimize.optimize ~flags plan)))
    Query_zoo.queries

let () =
  Alcotest.run "optimize"
    [
      ( "coalesce",
        [
          Alcotest.test_case "same detail table merges" `Quick test_coalesce_same_table;
          Alcotest.test_case "different tables stay" `Quick test_no_coalesce_different_tables;
          Alcotest.test_case "dependent blocks stay" `Quick test_no_coalesce_dependent_blocks;
          Alcotest.test_case "aliases requalified" `Quick test_coalesce_requalifies;
          Alcotest.test_case "selection push-up" `Quick test_selection_push_up;
        ] );
      ( "completion",
        [
          Alcotest.test_case "exists -> require-fired" `Quick test_completion_exists;
          Alcotest.test_case "not exists -> kill" `Quick test_completion_not_exists_is_kill;
          Alcotest.test_case "ALL -> kill with IS TRUE" `Quick test_completion_all_pattern;
          Alcotest.test_case "aggregate need detection" `Quick
            test_completion_respects_needed_aggregates;
          Alcotest.test_case "residual preserved" `Quick test_completion_residual_preserved;
        ] );
      ( "pushdown",
        [
          Alcotest.test_case "product becomes join" `Quick test_pushdown_product_to_join;
          Alcotest.test_case "join predicate below MD" `Quick test_pushdown_below_md;
          Alcotest.test_case "count conditions stay" `Quick test_pushdown_keeps_count_conditions;
        ] );
      ( "factorize",
        [
          Alcotest.test_case "fires on the nested shapes" `Quick test_factorization_fires;
          Alcotest.test_case "hoists a detail-only filter" `Quick
            test_factorization_hoists_detail_filter;
          Alcotest.test_case "not with maintained aggregates" `Quick
            test_factorization_needs_aggregate_free;
          Alcotest.test_case "single-block plans untouched" `Quick
            test_factorization_skips_single_block;
        ] );
      ( "semantics",
        [
          Helpers.qtest ~count:50 "coalesce preserves" Query_zoo.db_gen
            (optimize_preserves_prop coalesce_only);
          Helpers.qtest ~count:50 "completion preserves" Query_zoo.db_gen
            (optimize_preserves_prop completion_only);
          Helpers.qtest ~count:50 "pushdown preserves" Query_zoo.db_gen
            (optimize_preserves_prop pushdown_only);
          Helpers.qtest ~count:50 "all preserve" Query_zoo.db_gen
            (optimize_preserves_prop Subql.Optimize.all);
        ] );
    ]
