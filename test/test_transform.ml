(* SubqueryToGMDJ correctness: for every subquery form of Table 1 and the
   nesting shapes of Section 3, the translated (and optimized) algebra
   must agree with the naive tuple-iteration semantics on random data
   with NULLs and duplicates. *)

open Subql_relational
open Subql_nested
module N = Nested_ast

let attr = Expr.attr

let q = Query_zoo.q

let mk_catalog = Query_zoo.mk_catalog

let db_gen = Query_zoo.db_gen

let queries = Query_zoo.queries

(* --- engines --------------------------------------------------------- *)

let engines (catalog : Catalog.t) (query : N.query) : (string * (unit -> Relation.t)) list =
  [
    ("naive-plain", fun () -> Naive_eval.eval ~mode:Naive_eval.Plain catalog query);
    ("naive-smart", fun () -> Naive_eval.eval ~mode:Naive_eval.Smart catalog query);
    ("gmdj", fun () -> Subql.Eval.eval catalog (Subql.Transform.to_algebra query));
    ( "gmdj-scan",
      fun () ->
        Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog
          (Subql.Transform.to_algebra query) );
    ( "gmdj-optimized",
      fun () ->
        Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra query))
    );
    ( "gmdj-coalesce-only",
      fun () ->
        Subql.Eval.eval catalog
          (Subql.Optimize.optimize
             ~flags:(Subql.Optimize.only ~coalesce:true ())
             (Subql.Transform.to_algebra query)) );
    ( "gmdj-completion-only",
      fun () ->
        Subql.Eval.eval catalog
          (Subql.Optimize.optimize
             ~flags:(Subql.Optimize.only ~completion:true ())
             (Subql.Transform.to_algebra query)) );
  ]

let agree name query db =
  let catalog = mk_catalog db in
  match engines catalog query with
  | [] -> true
  | (_, first) :: rest ->
    let reference = first () in
    List.for_all
      (fun (engine, f) ->
        let result = f () in
        if Relation.equal_as_multiset reference result then true
        else begin
          Format.eprintf "engine %s disagrees on %s:@.reference:@.%a@.got:@.%a@." engine name
            Relation.pp reference Relation.pp result;
          false
        end)
      rest

let property_tests =
  List.map
    (fun (name, query) -> Helpers.qtest ~count:120 ("agree: " ^ name) db_gen (agree name query))
    queries

(* --- pinned concrete cases ------------------------------------------- *)

(* The footnote-2 pitfall: x >all (empty) is TRUE even though
   x > max(empty) is unknown.  Both engines must agree on the dialect
   semantics (ALL over the empty range selects; the aggregate comparison
   does not). *)
let test_all_vs_max_on_empty () =
  let catalog =
    mk_catalog ([ [ Value.Int 1; Value.Int 5 ] ], (* O = {(1,5)} *) [], [])
  in
  let all_q =
    q (N.all_ (attr ~rel:"o" "x") Expr.Gt (N.table "I") "i" ~col:"y")
  in
  let max_q =
    q (N.agg_cmp (attr ~rel:"o" "x") Expr.Gt (Aggregate.Max (attr ~rel:"i" "y")) (N.table "I") "i")
  in
  let run query = Subql.Eval.eval catalog (Subql.Transform.to_algebra query) in
  Alcotest.(check int) "ALL over empty selects" 1 (Relation.cardinality (run all_q));
  Alcotest.(check int) "x > max(empty) does not" 0 (Relation.cardinality (run max_q));
  Alcotest.(check int) "naive agrees on ALL" 1
    (Relation.cardinality (Naive_eval.eval catalog all_q));
  Alcotest.(check int) "naive agrees on max" 0
    (Relation.cardinality (Naive_eval.eval catalog max_q))

let test_unsupported_unknown_alias () =
  let query =
    q
      (N.exists
         ~where:(N.atom (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"nosuch" "k")))
         (N.table "I") "i")
  in
  let catalog = mk_catalog ([], [], []) in
  match Subql.Eval.eval catalog (Subql.Transform.to_algebra query) with
  | exception Schema.Unknown_attribute _ -> ()
  | _ -> Alcotest.fail "expected Unknown_attribute for a reference to an unbound alias"

(* Example 3.1: a single EXISTS over Hours/Flow translates to exactly
   σ[cnt > 0](MD(Hours, Flow, count, θ_S)). *)
let test_example_3_1_shape () =
  let query =
    N.query ~base:(N.table "Hours") ~alias:"h"
      (N.exists
         ~where:
           (N.atom
              (Expr.conjoin
                 [
                   Expr.eq (attr ~rel:"fi" "DestIP") (Expr.str "167.167.167.0");
                   Expr.ge (attr ~rel:"fi" "StartTime") (attr ~rel:"h" "StartInterval");
                   Expr.lt (attr ~rel:"fi" "StartTime") (attr ~rel:"h" "EndInterval");
                 ]))
         (N.table "Flow") "fi")
  in
  match Subql.Transform.to_algebra query with
  | Subql.Algebra.Project_rel
      ( [ "h" ],
        Subql.Algebra.Select
          ( Expr.Cmp (Expr.Gt, Expr.Attr (None, _), Expr.Const (Value.Int 0)),
            Subql.Algebra.Md
              {
                base = Subql.Algebra.Rename ("h", Subql.Algebra.Table "Hours");
                detail = Subql.Algebra.Rename ("fi", Subql.Algebra.Table "Flow");
                blocks = [ { Subql_gmdj.Gmdj.aggs = [ { Aggregate.func = Aggregate.Count_star; _ } ]; _ } ];
                completion = None;
              } ) ) ->
    ()
  | other -> Alcotest.failf "unexpected shape for Example 3.1:@.%a" Subql.Algebra.pp other

(* Example 3.2: three same-level subqueries chain three GMDJs before
   optimization; Example 4.1: coalescing folds them into one. *)
let test_example_3_2_and_4_1_shapes () =
  let sub alias dest =
    N.atom
      (Expr.and_
         (Expr.eq (attr ~rel:alias "SourceIP") (attr ~rel:"f0" "SourceIP"))
         (Expr.eq (attr ~rel:alias "DestIP") (Expr.str dest)))
  in
  let query =
    N.query
      ~base:(N.Bproject { cols = [ "SourceIP" ]; distinct = true; input = N.table "Flow" })
      ~alias:"f0"
      (N.pand
         (N.not_exists ~where:(sub "f1" "167.167.167.0") (N.table "Flow") "f1")
         (N.pand
            (N.exists ~where:(sub "f2" "168.168.168.0") (N.table "Flow") "f2")
            (N.not_exists ~where:(sub "f3" "169.169.169.0") (N.table "Flow") "f3")))
  in
  let count_mds alg =
    let n = ref 0 in
    let rec go a =
      (match a with
      | Subql.Algebra.Md _ -> incr n
      | _ -> ());
      ignore
        (Subql.Algebra.map_children
           (fun c ->
             go c;
             c)
           a)
    in
    go alg;
    !n
  in
  let basic = Subql.Transform.to_algebra query in
  Alcotest.(check int) "Example 3.2: three chained GMDJs" 3 (count_mds basic);
  let coalesced =
    Subql.Optimize.optimize ~flags:(Subql.Optimize.only ~coalesce:true ()) basic
  in
  Alcotest.(check int) "Example 4.1: one GMDJ after coalescing" 1 (count_mds coalesced)

(* Example 3.4: the non-neighboring reference in the double negation
   pushes a distinct copy of the User columns into the inner GMDJ's
   base-values expression (a product with the Hours occurrence). *)
let test_example_3_4_shape () =
  let theta_f =
    Expr.conjoin
      [
        Expr.ge (attr ~rel:"f" "StartTime") (attr ~rel:"h" "StartInterval");
        Expr.lt (attr ~rel:"f" "StartTime") (attr ~rel:"h" "EndInterval");
        Expr.eq (attr ~rel:"f" "SourceIP") (attr ~rel:"u" "IPAddress");
      ]
  in
  let query =
    N.query ~base:(N.table "User") ~alias:"u"
      (N.not_exists
         ~where:(N.not_exists ~where:(N.atom theta_f) (N.table "Flow") "f")
         (N.table "Hours") "h")
  in
  let plan = Subql.Transform.to_algebra query in
  let found_pushed_product = ref false in
  let rec go a =
    (match a with
    | Subql.Algebra.Md
        {
          base =
            Subql.Algebra.Product
              ( Subql.Algebra.Rename
                  ( _,
                    Subql.Algebra.Group_by
                      { keys = Some [ (Some "u", "IPAddress") ]; aggs = []; _ } ),
                Subql.Algebra.Rename ("h", _) );
          completion = None;
          _;
        } ->
      found_pushed_product := true
    | _ -> ());
    ignore
      (Subql.Algebra.map_children
         (fun c ->
           go c;
           c)
         a)
  in
  go plan;
  Alcotest.(check bool) "distinct User copy embedded in the inner base" true
    !found_pushed_product

let () =
  Alcotest.run "transform"
    [
      ("table-1-and-nesting", property_tests);
      ( "pinned",
        [
          Alcotest.test_case "all vs max on empty range" `Quick test_all_vs_max_on_empty;
          Alcotest.test_case "unknown alias is rejected" `Quick test_unsupported_unknown_alias;
          Alcotest.test_case "Example 3.1 plan shape" `Quick test_example_3_1_shape;
          Alcotest.test_case "Examples 3.2/4.1 coalescing" `Quick test_example_3_2_and_4_1_shapes;
          Alcotest.test_case "Example 3.4 push-down shape" `Quick test_example_3_4_shape;
        ] );
    ]
