(* Join/outer-join unnesting correctness: the classical semi-/anti-join
   plans and the general GMDJ-to-joins expansion must agree with the
   naive tuple-iteration semantics on the full query zoo. *)

open Subql_relational
open Subql_nested
module N = Nested_ast

let agree name query db =
  let catalog = Query_zoo.mk_catalog db in
  let reference = Naive_eval.eval catalog query in
  let check engine result =
    if Relation.equal_as_multiset reference result then true
    else begin
      Format.eprintf "engine %s disagrees on %s:@.reference:@.%a@.got:@.%a@." engine name
        Relation.pp reference Relation.pp result;
      false
    end
  in
  let joins_ok =
    check "unnest-via-joins" (Subql.Eval.eval catalog (Subql.Unnest.via_joins catalog query))
  in
  let joins_unindexed_ok =
    check "unnest-via-joins-unindexed"
      (Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog
         (Subql.Unnest.via_joins catalog query))
  in
  let semi_ok =
    match Subql.Unnest.via_semijoins catalog query with
    | alg -> check "unnest-semijoins" (Subql.Eval.eval catalog alg)
    | exception Subql.Unnest.Not_applicable _ -> true
  in
  let best_ok = check "unnest-best" (Subql.Eval.eval catalog (Subql.Unnest.best catalog query)) in
  joins_ok && joins_unindexed_ok && semi_ok && best_ok

let property_tests =
  List.map
    (fun (name, query) ->
      Helpers.qtest ~count:80 ("agree: " ^ name) Query_zoo.db_gen (agree name query))
    Query_zoo.queries

(* The classical path must actually be exercised for the simple shapes. *)
let test_semijoin_applicability () =
  let applicable name =
    let query = List.assoc name Query_zoo.queries in
    let catalog = Query_zoo.mk_catalog ([], [], []) in
    match Subql.Unnest.via_semijoins catalog query with
    | _ -> true
    | exception Subql.Unnest.Not_applicable _ -> false
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " applicable") true (applicable name))
    [ "exists"; "not-exists"; "some"; "all-ne"; "scalar"; "agg-sum"; "two-subqueries-same-table" ];
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " not applicable") false (applicable name))
    [ "disjunction"; "linear-nesting"; "non-neighboring" ]

(* The COUNT bug: o.x >= count(...) over an empty range must compare
   against 0, not against a spuriously counted NULL-padded row. *)
let test_count_bug () =
  let catalog = Query_zoo.mk_catalog ([ [ Value.Int 7; Value.Int 0 ] ], [], []) in
  let query =
    Query_zoo.q
      (N.agg_cmp
         (Expr.attr ~rel:"o" "x")
         Expr.Ge Aggregate.Count_star
         ~where:(N.atom (Expr.eq (Expr.attr ~rel:"i" "k") (Expr.attr ~rel:"o" "k")))
         (N.table "I") "i")
  in
  (* x = 0 >= count(empty) = 0: the row qualifies. *)
  let expected = Naive_eval.eval catalog query in
  Alcotest.(check int) "naive keeps the row" 1 (Relation.cardinality expected);
  let via_semi =
    Subql.Eval.eval catalog (Subql.Unnest.via_semijoins catalog query)
  in
  Alcotest.(check int) "semijoin path keeps the row" 1 (Relation.cardinality via_semi);
  let via_joins = Subql.Eval.eval catalog (Subql.Unnest.via_joins catalog query) in
  Alcotest.(check int) "join path keeps the row" 1 (Relation.cardinality via_joins)

let () =
  Alcotest.run "unnest"
    [
      ("zoo-agreement", property_tests);
      ( "pinned",
        [
          Alcotest.test_case "classical applicability" `Quick test_semijoin_applicability;
          Alcotest.test_case "count bug" `Quick test_count_bug;
        ] );
    ]
