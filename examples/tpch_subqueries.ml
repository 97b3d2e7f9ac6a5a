(* TPC-style subqueries through the SQL front-end.

   The paper's experiments ran on databases derived from the TPC(R)
   dbgen program; this example runs classic decision-support subquery
   patterns over the offline dbgen substitute, comparing all four
   engines on each query.

   Run with: dune exec examples/tpch_subqueries.exe *)

open Subql_relational
open Subql_workload

let catalog = Tpc.generate { Tpc.default_config with Tpc.customers = 400; orders = 4_000; lineitems = 16_000 }

let queries =
  [
    ( "customers with an urgent order (EXISTS)",
      "SELECT c.c_custkey FROM Customer c WHERE EXISTS (SELECT * FROM Orders o WHERE \
       o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')" );
    ( "customers who never ordered (NOT EXISTS)",
      "SELECT c.c_custkey FROM Customer c WHERE NOT EXISTS (SELECT * FROM Orders o WHERE \
       o.o_custkey = c.c_custkey)" );
    ( "orders above their customer's balance (scalar-style aggregate)",
      "SELECT o.o_orderkey FROM Orders o WHERE o.o_totalprice > (SELECT MAX(c.c_acctbal) \
       FROM Customer c WHERE c.c_custkey = o.o_custkey)" );
    ( "orders larger than every early shipment (ALL)",
      "SELECT o.o_orderkey FROM Orders o WHERE o.o_totalprice > ALL (SELECT \
       l.l_extendedprice FROM Lineitem l WHERE l.l_orderkey = o.o_orderkey AND \
       l.l_shipdate < 100)" );
    ( "customers in an order's nation set (IN)",
      "SELECT c.c_custkey FROM Customer c WHERE c.c_nationkey IN (SELECT cc.c_nationkey \
       FROM Customer cc WHERE cc.c_acctbal > 9000)" );
    ( "big spenders (SUM comparison)",
      "SELECT c.c_custkey FROM Customer c WHERE 100000.0 < (SELECT SUM(o.o_totalprice) \
       FROM Orders o WHERE o.o_custkey = c.c_custkey)" );
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  Format.printf "TPC-style catalog: %d customers, %d orders, %d lineitems@.@."
    (Relation.cardinality (Catalog.find catalog "Customer"))
    (Relation.cardinality (Catalog.find catalog "Orders"))
    (Relation.cardinality (Catalog.find catalog "Lineitem"));
  List.iter
    (fun (title, sql) ->
      Format.printf "--- %s ---@.%s@." title sql;
      match Subql_sql.Parser.parse sql with
      | exception Subql_sql.Parser.Parse_error _ ->
        print_endline (Subql_sql.Parser.parse_exn_to_string sql)
      | stmt ->
        let query = stmt.Subql_sql.Parser.query in
        let engines =
          [
            ("native", fun () -> Subql_nested.Naive_eval.eval catalog query);
            ( "unnest",
              fun () ->
                Subql.Eval.eval catalog (Subql.Unnest.best catalog query) );
            ("gmdj", fun () -> Subql.Eval.eval catalog (Subql.Transform.to_algebra query));
            ( "gmdj-opt",
              fun () ->
                Subql.Eval.eval catalog
                  (Subql.Optimize.optimize (Subql.Transform.to_algebra query)) );
          ]
        in
        let results = List.map (fun (name, f) -> (name, time f)) engines in
        let _, (_, reference) = List.hd results in
        List.iter
          (fun (name, (seconds, result)) ->
            let ok = Relation.equal_as_multiset reference result in
            Format.printf "  %-10s %6.3fs  %5d rows%s@." name seconds
              (Relation.cardinality result)
              (if ok then "" else "  <-- DISAGREES"))
          results;
        Format.printf "@.")
    queries
