(* Extended algebra: schema inference, structural equality, rendering,
   and evaluator edge cases. *)

open Subql_relational
open Subql_gmdj
module A = Subql.Algebra

let attr = Expr.attr

let catalog =
  Query_zoo.mk_catalog
    ( [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ] ],
      [ [ Value.Int 1; Value.Int 5 ] ],
      [] )

let lookup name = Relation.schema (Catalog.find catalog name)

let test_schema_inference () =
  let plan =
    A.Md
      {
        base = A.Rename ("o", A.Table "O");
        detail = A.Rename ("i", A.Table "I");
        blocks =
          [
            Gmdj.block
              [ Aggregate.count_star "cnt"; Aggregate.avg (attr ~rel:"i" "y") "a" ]
              (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k"));
          ];
        completion = None;
      }
  in
  let s = A.schema_of ~lookup plan in
  Alcotest.(check int) "arity" 4 (Schema.arity s);
  Alcotest.(check string) "count col" "cnt" (Schema.attr_at s 2).Schema.name;
  Alcotest.(check bool) "avg is float" true
    (Value.equal_ty (Schema.attr_at s 3).Schema.ty Value.Tfloat);
  (* Evaluation produces exactly the inferred schema. *)
  let result = Subql.Eval.eval catalog plan in
  Alcotest.(check bool) "eval schema matches" true (Schema.equal s (Relation.schema result));
  (* Join kinds. *)
  let join kind =
    A.Join
      {
        kind;
        cond = Expr.eq (attr ~rel:"o" "k") (attr ~rel:"i" "k");
        left = A.Rename ("o", A.Table "O");
        right = A.Rename ("i", A.Table "I");
      }
  in
  Alcotest.(check int) "inner join schema" 4 (Schema.arity (A.schema_of ~lookup (join A.Inner)));
  Alcotest.(check int) "semi join schema" 2 (Schema.arity (A.schema_of ~lookup (join A.Semi)));
  Alcotest.(check int) "anti join schema" 2 (Schema.arity (A.schema_of ~lookup (join A.Anti)));
  let grouped =
    A.Group_by
      {
        keys = Some [ (Some "o", "k") ];
        aggs = [ Aggregate.sum (attr ~rel:"o" "x") "s" ];
        input = A.Rename ("o", A.Table "O");
      }
  in
  Alcotest.(check int) "group by schema" 2 (Schema.arity (A.schema_of ~lookup grouped));
  let rels =
    A.schema_of ~lookup (A.Project_rel ([ "o" ], join A.Inner)) |> Schema.rels
  in
  Alcotest.(check (list string)) "project_rel keeps one alias" [ "o" ] rels

let test_structural_equality () =
  let t = A.Rename ("o", A.Table "O") in
  let sel e = A.Select (e, t) in
  let e1 = Expr.gt (attr ~rel:"o" "x") (Expr.int 1) in
  let e2 = Expr.gt (attr ~rel:"o" "x") (Expr.int 2) in
  Alcotest.(check bool) "equal selects" true (A.equal (sel e1) (sel e1));
  Alcotest.(check bool) "different predicates" false (A.equal (sel e1) (sel e2));
  Alcotest.(check bool) "different nodes" false (A.equal (sel e1) t);
  Alcotest.(check bool) "same occurrence modulo alias" true
    (A.same_occurrence_modulo_alias
       (A.Rename ("a", A.Table "I"))
       (A.Rename ("b", A.Table "I")));
  Alcotest.(check bool) "different tables differ" false
    (A.same_occurrence_modulo_alias
       (A.Rename ("a", A.Table "I"))
       (A.Rename ("b", A.Table "J")))

let test_pp_smoke () =
  (* Every node kind renders without raising and mentions its operator. *)
  let md =
    A.Md
      {
        base = A.Rename ("o", A.Table "O");
        detail = A.Rename ("i", A.Table "I");
        blocks = [ Gmdj.block [ Aggregate.count_star "c" ] (Expr.bool true) ];
        completion = None;
      }
  in
  let completed =
    match md with
    | A.Md m ->
      A.Md
        {
          m with
          completion =
            Some
              {
                Gmdj.kill_when = [ Expr.bool true ];
                require_fired = [];
                maintain_aggregates = true;
              };
        }
    | _ -> assert false
  in
  let plans =
    [
      ("Table", A.Table "O");
      ("Select", A.Select (Expr.bool true, A.Table "O"));
      ("Project", A.Project ([ (Expr.int 1, "one") ], A.Table "O"));
      ("ProjectRel", A.Project_rel ([ "o" ], A.Table "O"));
      ("AddRownum", A.Add_rownum ("rid", A.Table "O"));
      ("Product", A.Product (A.Table "O", A.Table "I"));
      ("GroupBy [k]", A.Group_by { keys = Some [ (None, "k") ]; aggs = []; input = A.Table "O" });
      ("GroupBy []", A.Group_by { keys = Some []; aggs = []; input = A.Table "O" });
      ("GroupBy [*]", A.Group_by { keys = None; aggs = []; input = A.Table "O" });
      ("MD [", md);
      ("MD-completed", completed);
      ("UnionAll", A.Union_all (A.Table "O", A.Table "O"));
      ("DiffAll", A.Diff_all (A.Table "O", A.Table "O"));
    ]
  in
  List.iter
    (fun (token, plan) ->
      let rendered = Format.asprintf "%a" A.pp plan in
      Alcotest.(check bool) (token ^ " rendered") true
        (String.length rendered > 0
        &&
        let re = Str.regexp_string token in
        (try ignore (Str.search_forward re rendered 0); true with Not_found -> false)))
    plans

let test_eval_errors () =
  (match Subql.Eval.eval catalog (A.Table "Nope") with
  | exception Catalog.Unknown_table "Nope" -> ()
  | _ -> Alcotest.fail "unknown table");
  match Subql.Eval.eval catalog (A.Select (attr ~rel:"o" "x", A.Rename ("o", A.Table "O"))) with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "non-boolean selection must be rejected"

let test_catalog () =
  let c = Catalog.create () in
  let rel = Relation.of_list (Schema.of_list [ Schema.attr "x" Value.Tint ]) [ [| Value.Int 1 |] ] in
  Catalog.add c "T" rel;
  Alcotest.(check (list string)) "tables" [ "T" ] (Catalog.tables c);
  let stored = Catalog.find c "T" in
  Alcotest.(check string) "requalified to the table name" "T"
    (Schema.attr_at (Relation.schema stored) 0).Schema.rel;
  Catalog.add c "T" (Relation.empty (Relation.schema rel));
  Alcotest.(check int) "replaced" 0 (Relation.cardinality (Catalog.find c "T"));
  Alcotest.(check bool) "find_opt none" true (Catalog.find_opt c "U" = None)

let () =
  Alcotest.run "algebra"
    [
      ( "core",
        [
          Alcotest.test_case "schema inference" `Quick test_schema_inference;
          Alcotest.test_case "structural equality" `Quick test_structural_equality;
          Alcotest.test_case "plan rendering" `Quick test_pp_smoke;
          Alcotest.test_case "evaluator errors" `Quick test_eval_errors;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
    ]
