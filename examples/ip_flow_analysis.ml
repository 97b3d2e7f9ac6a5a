(* IP-flow analysis: Examples 2.2, 2.3 and 4.1 of the paper.

   Demonstrates the full pipeline on generated warehouse data:
   a nested query is translated by SubqueryToGMDJ, the optimizer
   coalesces the GMDJs, and the whole multi-subquery analysis runs in a
   single scan of the Flow table.

   Run with: dune exec examples/ip_flow_analysis.exe *)

open Subql_relational
open Subql_nested
open Subql_gmdj
open Subql_workload
module N = Nested_ast

let attr = Expr.attr

let catalog =
  Netflow.generate
    { Netflow.default_config with Netflow.n_flows = 50_000; n_users = 60; n_source_ips = 40; n_dest_ips = 40 }

let time label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Format.printf "  [%s: %.3fs]@." label (Unix.gettimeofday () -. t0);
  r

(* Example 2.2: "For each hour in which there exists traffic to a given
   destination, what fraction of the total traffic is due to web
   traffic?"  The base-values table B is itself a nested query. *)
let example_2_2 () =
  Format.printf "@.--- Example 2.2: hourly web fraction, hours filtered by a subquery ---@.";
  let dest = Netflow.ip 7 in
  let b_query =
    N.query ~base:(N.table "Hours") ~alias:"h"
      (N.exists
         ~where:
           (N.atom
              (Expr.conjoin
                 [
                   Expr.eq (attr ~rel:"fi" "DestIP") (Expr.str dest);
                   Expr.ge (attr ~rel:"fi" "StartTime") (attr ~rel:"h" "StartInterval");
                   Expr.lt (attr ~rel:"fi" "StartTime") (attr ~rel:"h" "EndInterval");
                 ]))
         (N.table "Flow") "fi")
  in
  (* B as a GMDJ expression (Example 3.1), then the outer complex OLAP
     aggregation as a further GMDJ on top of it. *)
  let b_alg = Subql.Optimize.optimize (Subql.Transform.to_algebra b_query) in
  let in_hour =
    Expr.and_
      (Expr.ge (attr ~rel:"f" "StartTime") (attr ~rel:"h" "StartInterval"))
      (Expr.lt (attr ~rel:"f" "StartTime") (attr ~rel:"h" "EndInterval"))
  in
  let plan =
    Subql.Algebra.Project
      ( [
          (attr ~rel:"h" "HourDsc", "hour");
          ( Expr.Arith
              ( Expr.Div,
                Expr.Arith (Expr.Mul, Expr.float 100.0, attr "sum1"),
                attr "sum2" ),
            "web_pct" );
        ],
        Subql.Algebra.Md
          {
            base = b_alg;
            detail = Subql.Algebra.Rename ("f", Subql.Algebra.Table "Flow");
            blocks =
              [
                Gmdj.block
                  [ Aggregate.sum (attr ~rel:"f" "NumBytes") "sum1" ]
                  (Expr.and_ in_hour (Expr.eq (attr ~rel:"f" "Protocol") (Expr.str "HTTP")));
                Gmdj.block [ Aggregate.sum (attr ~rel:"f" "NumBytes") "sum2" ] in_hour;
              ];
            completion = None;
          } )
  in
  let result = time "evaluate" (fun () -> Subql.Eval.eval catalog plan) in
  Format.printf "%a@." Relation.pp (Ops.sort ~by:[] ~limit:8 (Chunk.Source.of_relation result));
  Format.printf "(%d hours qualified; showing up to 8)@." (Relation.cardinality result)

(* Example 2.3 / 4.1: per-source traffic totals for sources selected by
   three EXISTS/NOT EXISTS subqueries over the same Flow table.  After
   coalescing, all three subqueries are answered by one GMDJ — a single
   scan of Flow computes every count. *)
let example_2_3 () =
  Format.printf "@.--- Examples 2.3 and 4.1: three subqueries, one scan ---@.";
  (* A sparser traffic matrix so that the three DestIP conditions are
     selective rather than vacuous. *)
  let catalog =
    Netflow.generate
      {
        Netflow.default_config with
        Netflow.n_flows = 50_000;
        n_source_ips = 2_000;
        n_dest_ips = 200;
      }
  in
  let ip1 = Netflow.ip 1 and ip2 = Netflow.ip 2 and ip3 = Netflow.ip 3 in
  let sub alias dest =
    N.atom
      (Expr.and_
         (Expr.eq (attr ~rel:alias "SourceIP") (attr ~rel:"f0" "SourceIP"))
         (Expr.eq (attr ~rel:alias "DestIP") (Expr.str dest)))
  in
  let b_query =
    N.query
      ~base:(N.Bproject { cols = [ "SourceIP" ]; distinct = true; input = N.table "Flow" })
      ~alias:"f0"
      (N.pand
         (N.not_exists ~where:(sub "f1" ip1) (N.table "Flow") "f1")
         (N.pand
            (N.exists ~where:(sub "f2" ip2) (N.table "Flow") "f2")
            (N.not_exists ~where:(sub "f3" ip3) (N.table "Flow") "f3")))
  in
  let basic = Subql.Transform.to_algebra b_query in
  let coalesced =
    Subql.Optimize.optimize ~flags:(Subql.Optimize.only ~coalesce:true ()) basic
  in
  let rec count_mds alg =
    List.fold_left
      (fun n c -> n + count_mds c)
      (match alg with Subql.Algebra.Md _ -> 1 | _ -> 0)
      (Subql.Algebra.children alg)
  in
  Format.printf "GMDJ operators before coalescing: %d, after: %d@." (count_mds basic)
    (count_mds coalesced);
  let full_plan b_alg =
    Subql.Algebra.Project
      ( [
          (attr ~rel:"f0" "SourceIP", "source");
          (attr "sumTo", "bytes_sent");
          (attr "sumFrom", "bytes_received");
        ],
        Subql.Algebra.Md
          {
            base = b_alg;
            detail = Subql.Algebra.Rename ("f", Subql.Algebra.Table "Flow");
            blocks =
              [
                Gmdj.block
                  [ Aggregate.sum (attr ~rel:"f" "NumBytes") "sumTo" ]
                  (Expr.eq (attr ~rel:"f0" "SourceIP") (attr ~rel:"f" "SourceIP"));
                Gmdj.block
                  [ Aggregate.sum (attr ~rel:"f" "NumBytes") "sumFrom" ]
                  (Expr.eq (attr ~rel:"f0" "SourceIP") (attr ~rel:"f" "DestIP"));
              ];
            completion = None;
          } )
  in
  let r1 = time "basic plan" (fun () -> Subql.Eval.eval catalog (full_plan basic)) in
  let r2 = time "coalesced plan" (fun () -> Subql.Eval.eval catalog (full_plan coalesced)) in
  assert (Relation.equal_as_multiset r1 r2);
  Format.printf "%a@." Relation.pp (Ops.sort ~by:[] ~limit:8 (Chunk.Source.of_relation r2));
  Format.printf "(%d qualifying sources; plans agree)@." (Relation.cardinality r2)

let () =
  Format.printf "IP-flow warehouse: %d flows, %d hours, %d users@."
    (Relation.cardinality (Catalog.find catalog "Flow"))
    (Relation.cardinality (Catalog.find catalog "Hours"))
    (Relation.cardinality (Catalog.find catalog "User"));
  example_2_2 ();
  example_2_3 ()
