(* Scaling the GMDJ: parallel evaluation, incremental maintenance and
   cost-based plan choice.

   The paper notes that the GMDJ "is well-suited to evaluation in a
   parallel or distributed DBMS environment": every detail row only
   folds into mergeable per-base-tuple accumulators.  This example
   demonstrates that on one analysis — per-user traffic totals over a
   large Flow table — evaluated over one and several domains, then
   maintains the result under appends and lets the cost-based planner
   choose between GMDJ and join plans.

   Run with: dune exec examples/scaling.exe *)

open Subql_relational
open Subql_gmdj
open Subql_workload

let attr = Expr.attr

let catalog =
  Netflow.generate
    {
      Netflow.default_config with
      Netflow.n_flows = 400_000;
      n_users = 2_000;
      n_source_ips = 1_000;
      n_dest_ips = 1_000;
    }

let base = Relation.rename "u" (Catalog.find catalog "User")

let detail = Relation.rename "f" (Catalog.find catalog "Flow")

let blocks =
  [
    Gmdj.block
      [
        Aggregate.sum (attr ~rel:"f" "NumBytes") "bytes_out";
        Aggregate.count_star "flows_out";
      ]
      (Expr.eq (attr ~rel:"f" "SourceIP") (attr ~rel:"u" "IPAddress"));
    Gmdj.block
      [ Aggregate.sum (attr ~rel:"f" "NumBytes") "bytes_in" ]
      (Expr.eq (attr ~rel:"f" "DestIP") (attr ~rel:"u" "IPAddress"));
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  Format.printf "Per-user traffic analysis: %d users x %d flows, 3 aggregates@.@."
    (Relation.cardinality base) (Relation.cardinality detail);

  let eval ~domains detail =
    Gmdj.eval ~domains ~base (Chunk.Source.of_relation detail) blocks
  in
  let t_whole, whole = time (fun () -> eval ~domains:1 detail) in
  Format.printf "single scan, one domain:        %6.3fs@." t_whole;

  let cores = Domain.recommended_domain_count () in
  let domain_counts =
    List.sort_uniq compare (List.filter (fun d -> d <= max 2 cores) [ 2; 4; 8 ])
  in
  if cores = 1 then
    Format.printf
      "(this machine reports a single core; partitioned evaluation is verified for@.\
      \ correctness but cannot speed up here)@.";
  List.iter
    (fun domains ->
      let t, par = time (fun () -> eval ~domains detail) in
      assert (Relation.equal_as_multiset whole par);
      Format.printf "partitioned over %d domains:    %6.3fs  (speedup %.2fx on %d cores)@."
        domains t (t_whole /. t) cores)
    domain_counts;

  Format.printf "@.Incremental maintenance: a day of new flows arrives@.";
  let view = Gmdj.Maintain.create ~base ~detail blocks in
  let fresh_flows =
    Relation.rename "f"
      (Catalog.find
         (Netflow.generate
            { Netflow.default_config with Netflow.n_flows = 50_000; n_users = 2_000;
              n_source_ips = 1_000; n_dest_ips = 1_000; seed = 99L })
         "Flow")
  in
  let t_delta, () = time (fun () -> Gmdj.Maintain.insert_detail view fresh_flows) in
  let t_recompute, recomputed =
    time (fun () ->
        Gmdj.eval ~domains:1 ~base
          (Ops.union_all (Chunk.Source.of_relation detail) (Chunk.Source.of_relation fresh_flows))
          blocks)
  in
  assert (Relation.equal_as_multiset recomputed (Gmdj.Maintain.result view));
  Format.printf "  delta fold: %.3fs vs full recompute: %.3fs (%.1fx)@." t_delta t_recompute
    (t_recompute /. t_delta);

  Format.printf "@.Cost-based planning for a subquery over the same data:@.";
  let stmt =
    Subql_sql.Parser.parse
      "SELECT u.UserName FROM User u WHERE u.Quota < (SELECT SUM(f.NumBytes) FROM Flow f \
       WHERE f.SourceIP = u.IPAddress)"
  in
  List.iter
    (fun c ->
      Format.printf "  %-18s estimated cost %12.0f@." c.Subql.Planner.label
        c.Subql.Planner.estimate.Subql.Cost.cost)
    (Subql.Planner.candidates catalog stmt.Subql_sql.Parser.query);
  let t_auto, result = time (fun () -> Subql.Planner.run catalog stmt.Subql_sql.Parser.query) in
  Format.printf "  chosen plan evaluated in %.3fs (%d users over quota)@." t_auto
    (Relation.cardinality result)
