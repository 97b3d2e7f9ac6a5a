(* Quickstart: Example 2.1 / Figure 1 of the paper.

   "On an hourly basis, what fraction of the traffic is due to web
   traffic?" — a single GMDJ with two aggregation blocks over the same
   detail table, then the same question phrased as SQL with a subquery.

   Run with: dune exec examples/quickstart.exe *)

open Subql_relational
open Subql_gmdj

let hours =
  Relation.of_list
    (Schema.of_list
       [
         Schema.attr ~rel:"H" "HourDsc" Value.Tint;
         Schema.attr ~rel:"H" "StartInterval" Value.Tint;
         Schema.attr ~rel:"H" "EndInterval" Value.Tint;
       ])
    [
      [| Value.Int 1; Value.Int 0; Value.Int 60 |];
      [| Value.Int 2; Value.Int 61; Value.Int 120 |];
      [| Value.Int 3; Value.Int 121; Value.Int 180 |];
    ]

let flow =
  Relation.of_list
    (Schema.of_list
       [
         Schema.attr ~rel:"F" "StartTime" Value.Tint;
         Schema.attr ~rel:"F" "Protocol" Value.Tstring;
         Schema.attr ~rel:"F" "NumBytes" Value.Tint;
       ])
    [
      [| Value.Int 43; Value.Str "HTTP"; Value.Int 12 |];
      [| Value.Int 86; Value.Str "HTTP"; Value.Int 36 |];
      [| Value.Int 99; Value.Str "FTP"; Value.Int 48 |];
      [| Value.Int 132; Value.Str "HTTP"; Value.Int 24 |];
      [| Value.Int 156; Value.Str "HTTP"; Value.Int 24 |];
      [| Value.Int 161; Value.Str "FTP"; Value.Int 48 |];
    ]

let () =
  Format.printf "Input table Hours:@.%a@." Relation.pp hours;
  Format.printf "Input table Flow:@.%a@." Relation.pp flow;

  (* The GMDJ of Example 2.1: one operator, two aggregation blocks.
     θ1 restricts to web traffic within the hour, θ2 to all traffic. *)
  let in_hour =
    Expr.and_
      (Expr.ge (Expr.attr ~rel:"F" "StartTime") (Expr.attr ~rel:"H" "StartInterval"))
      (Expr.lt (Expr.attr ~rel:"F" "StartTime") (Expr.attr ~rel:"H" "EndInterval"))
  in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.sum (Expr.attr ~rel:"F" "NumBytes") "sum1" ]
        (Expr.and_ in_hour (Expr.eq (Expr.attr ~rel:"F" "Protocol") (Expr.str "HTTP")));
      Gmdj.block [ Aggregate.sum (Expr.attr ~rel:"F" "NumBytes") "sum2" ] in_hour;
    ]
  in
  let md = Gmdj.eval ~domains:1 ~base:hours (Chunk.Source.of_relation flow) blocks in
  Format.printf "MD(Hours, Flow, (sum1, sum2), (θ1, θ2)) — the table of Figure 1:@.%a@."
    Relation.pp md;

  (* The fraction itself, computed with ordinary operators on top. *)
  let result =
    Chunk.Source.to_relation
    @@ Ops.project
      [
        (Expr.attr ~rel:"H" "HourDsc", "hour");
        ( Expr.Arith
            ( Expr.Div,
              Expr.Arith (Expr.Mul, Expr.float 1.0, Expr.attr "sum1"),
              Expr.attr "sum2" ),
          "web_fraction" );
      ]
      (Chunk.Source.of_relation md)
  in
  Format.printf "Web-traffic fraction per hour:@.%a@." Relation.pp result;

  (* The same data queried through the SQL front-end: which hours have
     web traffic at all?  The subquery is translated to a GMDJ by
     SubqueryToGMDJ — no nesting remains in the plan. *)
  let catalog = Catalog.of_list [ ("Hours", hours); ("Flow", flow) ] in
  let stmt =
    Subql_sql.Parser.parse
      "SELECT h.HourDsc FROM Hours h WHERE EXISTS (SELECT * FROM Flow f WHERE \
       f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval AND f.Protocol = \
       'HTTP')"
  in
  let plan = Subql.Optimize.optimize (Subql.Transform.to_algebra stmt.Subql_sql.Parser.query) in
  Format.printf "Translated and optimized plan:@.@[%a@]@.@." Subql.Algebra.pp plan;
  Format.printf "Hours with web traffic:@.%a@." Relation.pp (Subql.Eval.eval catalog plan)
