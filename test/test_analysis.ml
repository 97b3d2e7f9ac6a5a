(* The static analyzer: diagnostics corpus (each seeded defect produces
   its expected rule code), nullability dataflow facts, the rewrite
   verifier, and NOT IN / NOT EXISTS 3VL regressions against the naive
   oracle. *)

open Subql_relational
open Subql_gmdj
module A = Subql.Algebra
module N = Subql_nested.Nested_ast
module T = Subql_analysis.Typing
module V = Subql_analysis.Verify
module L = Subql_analysis.Lint
module An = Subql_analysis.Analyze
module Nul = Subql_analysis.Nullability

let attr = Expr.attr

(* O(k,x) and I(k,y) both carry a NULL; J is clean. *)
let catalog =
  Query_zoo.mk_catalog
    ( [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Null ] ],
      [ [ Value.Int 1; Value.Int 5 ]; [ Value.Int 2; Value.Null ] ],
      [ [ Value.Int 1; Value.Int 7 ] ] )

let env = T.env_of_catalog catalog

let codes diags = List.map (fun d -> d.Diag.code) diags

let has code diags = List.mem code (codes diags)

let o = A.Rename ("o", A.Table "O")

let i = A.Rename ("i", A.Table "I")

let count_md =
  A.Md
    {
      base = o;
      detail = i;
      blocks =
        [
          Gmdj.block
            [ Aggregate.count_star "cnt"; Aggregate.max_ (attr ~rel:"i" "y") "mx" ]
            (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k"));
        ];
      completion = None;
    }

(* --- Seeded-defect corpus: one plan per rule code -------------------- *)

let corpus : (string * A.t * string) list =
  [
    ( "SCH001",
      A.Select (Expr.eq (attr ~rel:"o" "nope") (Expr.int 1), o),
      "SCH001" );
    ( "SCH002",
      A.Select
        ( Expr.eq (attr "k") (Expr.int 1),
          A.Product (A.Rename ("a", A.Table "O"), A.Rename ("b", A.Table "O")) ),
      "SCH002" );
    ( "SCH003",
      A.Project ([ (attr ~rel:"o" "k", "a"); (attr ~rel:"o" "x", "a") ], o),
      "SCH003" );
    ("SCH004", A.Table "Nope", "SCH004");
    ("TYP001", A.Select (Expr.Arith (Expr.Add, attr ~rel:"o" "k", Expr.int 1), o), "TYP001");
    ("TYP002", A.Select (Expr.eq (attr ~rel:"o" "k") (Expr.str "s"), o), "TYP002");
    ( "TYP003",
      A.Group_by { keys = Some []; aggs = [ Aggregate.sum (Expr.str "s") "s" ]; input = o },
      "TYP003" );
    ( "NUL002",
      A.Select (Expr.gt (attr "mx") (Expr.int 3), count_md),
      "NUL002" );
    ("LNT001", A.Product (o, i), "LNT001");
    ( "LNT002",
      A.Md
        {
          base =
            A.Md
              {
                base = o;
                detail = A.Rename ("i1", A.Table "I");
                blocks = [ Gmdj.block [ Aggregate.count_star "c1" ] (Expr.bool true) ];
                completion = None;
              };
          detail = A.Rename ("i2", A.Table "I");
          blocks = [ Gmdj.block [ Aggregate.count_star "c2" ] (Expr.bool true) ];
          completion = None;
        },
      "LNT002" );
    ( "LNT003",
      A.Project_cols
        {
          cols = [ (None, "a") ];
          input = A.Project ([ (attr ~rel:"o" "k", "a"); (attr ~rel:"o" "x", "b") ], o);
        },
      "LNT003" );
  ]

let test_corpus () =
  List.iter
    (fun (name, plan, expected) ->
      let r = An.analyze_plan env ~label:name plan in
      if not (has expected r.An.diags) then
        Alcotest.failf "%s: expected %s, got [%s]" name expected
          (String.concat "; " (List.map Diag.to_string r.An.diags)))
    corpus

(* Counting conditions guarded by a COUNT column are the NULL-sound
   pattern the translation emits — no NUL002. *)
let test_guarded_count_condition () =
  let guarded =
    A.Select
      ( Expr.or_ (Expr.eq (attr "cnt") (Expr.int 0)) (Expr.gt (attr "mx") (Expr.int 3)),
        count_md )
  in
  let r = An.analyze_plan env ~label:"guarded" guarded in
  Alcotest.(check bool) "no NUL002" false (has "NUL002" r.An.diags);
  Alcotest.(check int) "no errors" 0 (An.errors r)

(* --- Query-level rules ------------------------------------------------ *)

let test_query_rules () =
  let not_in_trap =
    N.query ~base:(N.table "O") ~alias:"o"
      (N.not_in (attr ~rel:"o" "k") (N.table "I") "i" ~col:"y")
  in
  Alcotest.(check bool) "NUL001 fires" true (has "NUL001" (L.query_lints env not_in_trap));
  let filtered =
    N.query ~base:(N.table "O") ~alias:"o"
      (N.not_in (attr ~rel:"o" "k")
         ~where:(N.atom (Expr.Is_not_null (attr ~rel:"i" "y")))
         (N.table "I") "i" ~col:"y")
  in
  Alcotest.(check bool) "IS NOT NULL filter suppresses NUL001" false
    (has "NUL001" (L.query_lints env filtered));
  let non_neighboring = Subql_workload.Zoo.find_query "non-neighboring" in
  Alcotest.(check bool) "LNT004 fires" true
    (has "LNT004" (L.query_lints env non_neighboring));
  (* a correlation against an alias no scope binds survives translation
     (the reference flows through unresolved) but must be reported as an
     error by the end-to-end analysis, never crash it *)
  let bad =
    N.query ~base:(N.table "O") ~alias:"o"
      (N.exists
         ~where:(N.atom (Expr.eq (attr ~rel:"zzz" "k") (Expr.int 1)))
         (N.table "I") "i")
  in
  let r = An.analyze_query catalog ~label:"bad" bad in
  Alcotest.(check bool) "unbound alias is an error" true (An.errors r > 0);
  Alcotest.(check bool) "reported as SCH001" true (has "SCH001" r.An.diags)

(* --- Nullability dataflow facts --------------------------------------- *)

let test_nullability () =
  let verdict plan =
    let v = T.infer env plan in
    (Option.get v.T.schema, Option.get v.T.nulls)
  in
  (* base columns reflect the instance: O.x has a NULL *)
  let _, nulls = verdict o in
  Alcotest.(check bool) "o.k non-null" true (nulls.(0) = Nul.Non_null);
  Alcotest.(check bool) "o.x maybe-null" true (nulls.(1) = Nul.Maybe_null);
  (* the certified GMDJ fact: count columns are non-NULL, value
     aggregates over a possibly-empty range are not *)
  let schema, nulls = verdict count_md in
  let slot name = Schema.find schema name in
  Alcotest.(check bool) "cnt non-null" true (nulls.(slot "cnt") = Nul.Non_null);
  Alcotest.(check bool) "mx maybe-null" true (nulls.(slot "mx") = Nul.Maybe_null);
  (* selections narrow: a satisfied comparison proves its operands *)
  let _, nulls =
    verdict (A.Select (Expr.gt (attr ~rel:"o" "x") (Expr.int 0), o))
  in
  Alcotest.(check bool) "comparison narrows o.x" true (nulls.(1) = Nul.Non_null);
  let _, nulls = verdict (A.Select (Expr.Is_not_null (attr ~rel:"o" "x"), o)) in
  Alcotest.(check bool) "IS NOT NULL narrows o.x" true (nulls.(1) = Nul.Non_null);
  (* outer joins widen the inner side *)
  let _, nulls =
    verdict
      (A.Join
         {
           kind = A.Left_outer;
           cond = Expr.eq (attr ~rel:"o" "k") (attr ~rel:"i" "k");
           left = o;
           right = i;
         })
  in
  Alcotest.(check bool) "left side kept" true (nulls.(0) = Nul.Non_null);
  Alcotest.(check bool) "right side widened" true (nulls.(2) = Nul.Maybe_null)

(* --- The rewrite verifier --------------------------------------------- *)

let test_verifier () =
  (* schema drift *)
  let narrowed =
    A.Project_cols { cols = [ (Some "o", "k") ]; input = o }
  in
  Alcotest.(check bool) "VER001 on schema drift" true
    (has "VER001" (V.check_rewrite env ~label:"t" ~before:o ~after:narrowed));
  (* widened nullability *)
  let selective = A.Select (Expr.Is_not_null (attr ~rel:"o" "x"), o) in
  Alcotest.(check bool) "VER002 on widening" true
    (has "VER002" (V.check_rewrite env ~label:"t" ~before:selective ~after:o));
  (* narrowing in the other direction is allowed *)
  Alcotest.(check int) "narrowing verifies" 0
    (List.length (V.check_rewrite env ~label:"t" ~before:o ~after:selective))

(* --- The whole zoo analyzes clean ------------------------------------- *)

let test_zoo_clean () =
  let zcat = Subql_workload.Zoo.catalog () in
  List.iter
    (fun (name, q) ->
      let r = An.analyze_query zcat ~label:name q in
      if An.errors r > 0 then
        Alcotest.failf "%s: %s" name
          (String.concat "; "
             (List.map Diag.to_string (List.filter Diag.is_error r.An.diags))))
    Subql_workload.Zoo.queries

(* --- Diagnostic ordering is deterministic ----------------------------- *)

let test_diag_order () =
  let w = Diag.warning ~path:[ "A" ] ~code:"LNT001" "w" in
  let e = Diag.error ~path:[ "Z" ] ~code:"SCH001" "e" in
  let i = Diag.info ~path:[ "A" ] ~code:"LNT004" "i" in
  Alcotest.(check (list string)) "errors first, then severity"
    [ "SCH001"; "LNT001"; "LNT004" ]
    (codes (Diag.sort [ i; w; e; w ]));
  Alcotest.(check int) "duplicates dropped" 3 (List.length (Diag.sort [ i; w; e; w ]))

(* --- NOT IN / NOT EXISTS 3VL regressions vs the naive oracle ---------- *)

let agree_and_count name query expected =
  let oracle = Subql_nested.Naive_eval.eval catalog query in
  let check engine result =
    if not (Relation.equal_as_multiset oracle result) then
      Alcotest.failf "%s: %s disagrees with the naive oracle" name engine
  in
  check "gmdj" (Subql.Eval.eval catalog (Subql.Transform.to_algebra query));
  check "gmdj-opt"
    (Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra query)));
  check "planner" (Subql.Planner.run catalog query);
  Alcotest.(check int) (name ^ " cardinality") expected (Relation.cardinality oracle)

let test_3vl_null_semantics () =
  let q pred = N.query ~base:(N.table "O") ~alias:"o" pred in
  (* one NULL in I.y poisons NOT IN for every outer row *)
  agree_and_count "not-in over NULL column"
    (q (N.not_in (attr ~rel:"o" "k") (N.table "I") "i" ~col:"y"))
    0;
  (* the standard fix: filter the NULLs inside the subquery *)
  agree_and_count "not-in with IS NOT NULL"
    (q
       (N.not_in (attr ~rel:"o" "k")
          ~where:(N.atom (Expr.Is_not_null (attr ~rel:"i" "y")))
          (N.table "I") "i" ~col:"y"))
    2;
  (* NOT EXISTS is count-based, not 3VL-poisoned: the row of O whose
     correlated range is emptied by an unknown comparison survives *)
  agree_and_count "not-exists under 3VL"
    (q
       (N.not_exists
          ~where:
            (N.pand
               (N.atom (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k")))
               (N.atom (Expr.gt (attr ~rel:"i" "y") (Expr.int 3))))
          (N.table "I") "i"))
    1;
  (* ALL over a range containing NULL is unknown for every outer row *)
  agree_and_count "all over NULL column"
    (q (N.all_ (attr ~rel:"o" "x") Expr.Gt (N.table "I") "i" ~col:"y"))
    0

(* --- Parallel-merge lawfulness (PAR) ---------------------------------- *)

module M = Subql_analysis.Mergeable
module D = Subql_analysis.Deltaable

(* The seeded unlawful aggregate: FIRST merges associatively (earliest
   non-NULL in concatenation order) but not commutatively. *)
let first_md =
  A.Md
    {
      base = o;
      detail = i;
      blocks =
        [
          Gmdj.block
            [ Aggregate.count_star "cnt"; Aggregate.first (attr ~rel:"i" "y") "fst" ]
            (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k"));
        ];
      completion = None;
    }

let test_mergeable () =
  (* the one law that can fail: commutativity, for FIRST only *)
  Alcotest.(check bool) "FIRST is order-sensitive" true
    (Aggregate.order_sensitive (Aggregate.First (attr ~rel:"i" "y")));
  Alcotest.(check bool) "SUM is not" false
    (Aggregate.order_sensitive (Aggregate.Sum (attr ~rel:"i" "y")));
  (* standard aggregates certify clean *)
  Alcotest.(check (list string)) "count/max MD certifies" [] (codes (M.certify count_md));
  Alcotest.(check bool) "certified for parallel" true (M.certified_for_parallel count_md);
  (* FIRST in a GMDJ block: cross-domain accumulator merge -> error *)
  let diags = M.certify first_md in
  Alcotest.(check (list string)) "PAR001 on FIRST in MD" [ "PAR001" ] (codes diags);
  Alcotest.(check bool) "errors refuse parallelism" false
    (M.certified_for_parallel first_md);
  (* FIRST under hash-partitioned GROUP BY: warning, still certified *)
  let gb =
    A.Group_by
      {
        keys = Some [ (Some "i", "k") ];
        aggs = [ Aggregate.first (attr ~rel:"i" "y") "fst" ];
        input = i;
      }
  in
  Alcotest.(check (list string)) "PAR003 under GROUP BY" [ "PAR003" ] (codes (M.certify gb));
  Alcotest.(check bool) "warnings do not refuse" true (M.certified_for_parallel gb)

(* --- Delta-maintainability (ING) -------------------------------------- *)

let test_deltaable () =
  (* the classic shape is maintainable, no diagnostics *)
  let v = D.analyze count_md in
  Alcotest.(check bool) "plain MD maintainable" true (Option.is_some v.D.maintainable);
  Alcotest.(check (list string)) "no refusal" [] (codes v.D.diags);
  let m = Option.get v.D.maintainable in
  Alcotest.(check string) "detail table" "I" m.D.detail_table;
  (* the widened class: a row-local chain on the detail side *)
  let widened =
    A.Md
      {
        base = o;
        detail = A.Select (Expr.gt (attr ~rel:"i" "y") (Expr.int 2), i);
        blocks =
          [ Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.eq (attr ~rel:"i" "k") (attr ~rel:"o" "k")) ];
        completion = None;
      }
  in
  Alcotest.(check bool) "filtered detail maintainable" true
    (Option.is_some (D.analyze widened).D.maintainable);
  (* the delta pipeline replays the detail chain on a suffix *)
  let pipe = (Option.get (D.analyze widened).D.maintainable).D.delta_pipeline in
  let raw = Catalog.find catalog "I" in
  let out = Chunk.Source.to_relation (pipe (Chunk.Source.of_relation raw)) in
  let expect =
    Subql.Eval.eval catalog (A.Select (Expr.gt (attr ~rel:"i" "y") (Expr.int 2), i))
  in
  Alcotest.(check bool) "pipeline = detail chain" true
    (Relation.equal_as_multiset expect out);
  (* refusals carry their ING codes *)
  Alcotest.(check bool) "no MD -> ING001" true (has "ING001" (D.analyze o).D.diags);
  let both_sides =
    A.Md
      {
        base = A.Rename ("o", A.Table "I");
        detail = i;
        blocks = [ Gmdj.block [ Aggregate.count_star "c" ] (Expr.bool true) ];
        completion = None;
      }
  in
  Alcotest.(check bool) "detail feeds base -> ING001" true
    (has "ING001" (D.analyze both_sides).D.diags);
  let rownum_detail =
    A.Md
      {
        base = o;
        detail = A.Add_rownum ("rn", i);
        blocks = [ Gmdj.block [ Aggregate.count_star "c" ] (Expr.bool true) ];
        completion = None;
      }
  in
  Alcotest.(check bool) "rownum detail -> ING003" true
    (has "ING003" (D.analyze rownum_detail).D.diags);
  let completed = Subql.Optimize.optimize (Subql.Transform.to_algebra
    (N.query ~base:(N.table "O") ~alias:"o" (N.exists (N.table "I") "i"))) in
  (* the completed form is maintained with its completion *)
  let v = D.analyze completed in
  Alcotest.(check bool) "completed form maintainable" true (v.D.diags = []);
  Alcotest.(check bool) "carries its completion" true
    (match v.D.maintainable with
    | Some { D.md_node = A.Md { completion = Some c; _ }; completion = Some c'; _ } -> c == c'
    | _ -> false)

(* --- Interval certificates -------------------------------------------- *)

let test_intervals () =
  let zcat = Subql_workload.Zoo.catalog () in
  let stats = Subql.Cost.Stats.of_catalog zcat in
  let config = Subql.Eval.default_config in
  (* exact leaves, sound MD bound *)
  let tree = Subql.Cost.intervals stats count_md in
  Alcotest.(check bool) "MD interval = base interval" true
    (tree.Subql.Cost.Interval.ival = { Subql.Cost.Interval.lo = 64.; hi = 64. });
  (* a contradictory selection is proven dead *)
  let dead =
    A.Select
      ( Expr.and_
          (Expr.gt (attr ~rel:"o" "x") (Expr.int 5))
          (Expr.lt (attr ~rel:"o" "x") (Expr.int 3)),
        o )
  in
  let t = Subql.Cost.intervals stats dead in
  Alcotest.(check bool) "contradiction -> [0,0]" true
    (t.Subql.Cost.Interval.ival.Subql.Cost.Interval.hi = 0.);
  (* a satisfiable range keeps the input's upper bound *)
  let alive = A.Select (Expr.gt (attr ~rel:"o" "x") (Expr.int 5), o) in
  let t = Subql.Cost.intervals stats alive in
  Alcotest.(check bool) "sound hi kept" true
    (t.Subql.Cost.Interval.ival.Subql.Cost.Interval.hi = 64.);
  (* unknown table -> top -> infinite certified bound, IVL001 *)
  let unknown = A.Group_by { keys = None; aggs = []; input = A.Rename ("z", A.Table "Zzz") } in
  let c = Subql_analysis.Interval.certify ~config stats unknown in
  Alcotest.(check bool) "infinite bound" false
    (Float.is_finite c.Subql_analysis.Interval.certificate.Subql.Cost.bound);
  Alcotest.(check bool) "IVL001 names the table" true
    (has "IVL001" c.Subql_analysis.Interval.diags)

(* The certified bound admits plans the point estimate over-rejects:
   the contradictory selection's breaker is provably empty, but the
   heuristic still prices it at sel * |O| rows. *)
let test_certified_admission () =
  let zcat = Subql_workload.Zoo.catalog () in
  let stats = Subql.Cost.Stats.of_catalog zcat in
  let config = Subql.Eval.default_config in
  let module Adm = Subql_server.Admission in
  let policy = { Adm.unlimited with Adm.mem_budget_rows = 2. } in
  let dead_distinct =
    A.Group_by
      {
        keys = None;
        aggs = [];
        input =
          A.Select
            ( Expr.and_
                (Expr.gt (attr ~rel:"o" "x") (Expr.int 5))
                (Expr.lt (attr ~rel:"o" "x") (Expr.int 3)),
              o );
      }
  in
  (* the point estimate alone over-rejects this plan... *)
  let point = Subql.Cost.memory_height stats ~config dead_distinct in
  Alcotest.(check bool) "point estimate exceeds budget" true (point > 2.);
  (* ...the certificate proves it empty and admits it *)
  (match Adm.check_budget policy ~stats ~config ~label:"dead" dead_distinct with
  | Ok rows -> Alcotest.(check (float 1e-9)) "certified footprint 0" 0. rows
  | Error _ -> Alcotest.fail "certificate should admit the dead plan");
  (* and the plan really is that small when run *)
  let result = Subql.Eval.eval ~config zcat dead_distinct in
  Alcotest.(check int) "provably empty" 0 (Relation.cardinality result);
  (* a genuinely big breaker is still rejected, and the ADM001 message
     names the certificate's argmax operator *)
  let big = A.Group_by { keys = None; aggs = []; input = A.Rename ("i", A.Table "I") } in
  match Adm.check_budget policy ~stats ~config ~label:"big" big with
  | Ok _ -> Alcotest.fail "big distinct must be rejected"
  | Error r ->
    Alcotest.(check string) "ADM001" "ADM001" r.Adm.diag.Diag.code;
    let msg = r.Adm.diag.Diag.message in
    let mentions s =
      Alcotest.(check bool) (Printf.sprintf "message mentions %S" s) true
        (try
           ignore (Str.search_forward (Str.regexp_string s) msg 0);
           true
         with Not_found -> false)
    in
    mentions "certified bound";
    mentions "GroupBy [*]"

(* --- Certification over the zoo: clean and finite --------------------- *)

let test_certify_zoo () =
  let zcat = Subql_workload.Zoo.catalog () in
  List.iter
    (fun (label, q) ->
      let c = An.certify zcat ~label q in
      Alcotest.(check int) (label ^ " certifies clean") 0 (An.certified_errors c);
      match c.An.certificate with
      | Some cert ->
        Alcotest.(check bool) (label ^ " bound finite") true (Float.is_finite cert.Subql.Cost.bound)
      | None -> Alcotest.failf "%s: no certificate" label)
    Subql_workload.Zoo.queries

(* --- Cross-query sharing still verifies ------------------------------- *)

let test_share_verified () =
  let zcat = Subql_workload.Zoo.catalog () in
  let queries =
    List.map Subql_workload.Zoo.find_query
      (match Subql_workload.Zoo.same_detail_templates with
      | a :: b :: c :: _ -> [ a; b; c ]
      | short -> short)
  in
  let report = Subql_mqo.Batch.run zcat queries in
  Alcotest.(check bool) "sharing survives the verifier" true
    (report.Subql_mqo.Batch.grouped >= 2)

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "seeded-defect corpus" `Quick test_corpus;
          Alcotest.test_case "guarded count condition" `Quick test_guarded_count_condition;
          Alcotest.test_case "query rules" `Quick test_query_rules;
          Alcotest.test_case "deterministic ordering" `Quick test_diag_order;
        ] );
      ( "nullability",
        [
          Alcotest.test_case "dataflow facts" `Quick test_nullability;
          Alcotest.test_case "3vl null semantics vs oracle" `Quick test_3vl_null_semantics;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rewrite verifier" `Quick test_verifier;
          Alcotest.test_case "sharing verified" `Quick test_share_verified;
        ] );
      ("zoo", [ Alcotest.test_case "all templates clean" `Quick test_zoo_clean ]);
      ( "certificates",
        [
          Alcotest.test_case "merge lawfulness" `Quick test_mergeable;
          Alcotest.test_case "delta maintainability" `Quick test_deltaable;
          Alcotest.test_case "interval soundness" `Quick test_intervals;
          Alcotest.test_case "certified admission" `Quick test_certified_admission;
          Alcotest.test_case "zoo certifies finite" `Quick test_certify_zoo;
        ] );
    ]
