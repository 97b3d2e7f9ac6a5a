(* The multi-query subsystem: fingerprinting, cross-query GMDJ sharing,
   and the cost-aware result cache. *)

open Subql_relational
module N = Subql_nested.Nested_ast
module Zoo = Subql_workload.Zoo
module Fingerprint = Subql_mqo.Fingerprint
module Result_cache = Subql_mqo.Result_cache
module Share = Subql_mqo.Share
module Batch = Subql_mqo.Batch

let attr = Expr.attr

let check_rel msg expected actual =
  if not (Relation.equal_as_multiset expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Relation.pp expected Relation.pp
      actual

let reference catalog query =
  Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra query))

(* --- Fingerprinting ------------------------------------------------- *)

let exists_with_alias a =
  Zoo.q
    (N.exists
       ~where:
         (N.atom
            (Expr.and_
               (Expr.eq (attr ~rel:a "k") (attr ~rel:"o" "k"))
               (Expr.gt (attr ~rel:a "y") (Expr.int 2))))
       (N.table "I") a)

let test_fp_alpha_rename () =
  Alcotest.(check string)
    "alias choice does not change the fingerprint"
    (Fingerprint.of_query (exists_with_alias "i"))
    (Fingerprint.of_query (exists_with_alias "z"))

let exists_with_conjuncts conj =
  Zoo.q (N.exists ~where:(N.atom conj) (N.table "I") "i")

let test_fp_commuted_conjuncts () =
  Alcotest.(check string)
    "commuted WHERE conjuncts share a fingerprint"
    (Fingerprint.of_query (exists_with_conjuncts (Expr.and_ Zoo.corr Zoo.local_i)))
    (Fingerprint.of_query (exists_with_conjuncts (Expr.and_ Zoo.local_i Zoo.corr)))

let test_fp_swapped_comparison () =
  let flipped = Expr.eq (attr ~rel:"o" "k") (attr ~rel:"i" "k") in
  Alcotest.(check string)
    "mirrored comparison operands share a fingerprint"
    (Fingerprint.of_query (exists_with_conjuncts (Expr.and_ Zoo.corr Zoo.local_i)))
    (Fingerprint.of_query (exists_with_conjuncts (Expr.and_ flipped Zoo.local_i)))

let test_fp_distinct_queries () =
  (* Pairs that are semantically different must not collide.  (Not every
     zoo pair qualifies: "not-exists" and "negated-exists" are the same
     query in different syntax.) *)
  let distinct_pairs =
    [
      ("exists", "not-exists");
      ("exists", "in");
      ("some", "all-ne");
      ("agg-sum", "agg-count");
      ("in", "not-in");
      ("scalar", "agg-sum");
    ]
  in
  List.iter
    (fun (a, b) ->
      let fa = Fingerprint.of_query (Zoo.find_query a)
      and fb = Fingerprint.of_query (Zoo.find_query b) in
      if String.equal fa fb then Alcotest.failf "%s and %s collide" a b)
    distinct_pairs

let test_fp_syntactic_variants_of_same_query () =
  Alcotest.(check string)
    "NOT (EXISTS) and NOT EXISTS translate to the same canonical plan"
    (Fingerprint.of_query (Zoo.find_query "not-exists"))
    (Fingerprint.of_query
       (Zoo.q (N.pnot (N.exists ~where:(N.atom Zoo.corr) (N.table "I") "i"))))

(* --- Cross-query sharing ------------------------------------------- *)

let small_catalog () = Zoo.catalog ~outer:24 ~inner:512 ~key_range:16 ()

let batch_queries = List.map Zoo.find_query Zoo.same_detail_templates

let test_batch_matches_solo_evaluation () =
  let catalog = small_catalog () in
  let cache = Result_cache.create ~min_cost:0. () in
  let report = Batch.run ~cache catalog batch_queries in
  Alcotest.(check int) "one result per query" (List.length batch_queries)
    (List.length report.Batch.results);
  List.iteri
    (fun i q ->
      check_rel
        (Printf.sprintf "query %d (%s)" i (List.nth Zoo.same_detail_templates i))
        (reference catalog q)
        (List.assoc i report.Batch.results))
    batch_queries

let test_batch_shares_detail_scans () =
  let catalog = small_catalog () in
  let cache = Result_cache.create ~min_cost:0. () in
  let report = Batch.run ~cache catalog batch_queries in
  let k = List.length batch_queries in
  Alcotest.(check int) "naive baseline scans once per query" k
    report.Batch.naive_detail_scans;
  if report.Batch.shared_detail_scans >= k then
    Alcotest.failf "no sharing: %d scans for %d queries"
      report.Batch.shared_detail_scans k;
  if report.Batch.grouped < 2 then
    Alcotest.failf "expected at least one shared group, got %d grouped members"
      report.Batch.grouped

let test_batch_repeat_hits_cache () =
  let catalog = small_catalog () in
  let cache = Result_cache.create ~min_cost:0. () in
  let cold = Batch.run ~cache catalog batch_queries in
  Alcotest.(check int) "cold run misses everywhere" 0 cold.Batch.cache_hits;
  let warm = Batch.run ~cache catalog batch_queries in
  Alcotest.(check int)
    "warm run answers the whole batch from cache"
    (List.length batch_queries) warm.Batch.cache_hits;
  Alcotest.(check int) "warm run scans nothing" 0 warm.Batch.shared_detail_scans;
  List.iter2
    (fun (i, cold_r) (j, warm_r) ->
      Alcotest.(check int) "same key order" i j;
      check_rel "warm result identical to cold" cold_r warm_r)
    cold.Batch.results warm.Batch.results

let test_batch_deduplicates_identical_queries () =
  let catalog = small_catalog () in
  let q = Zoo.find_query "exists" in
  (* Same query under a different subquery alias: distinct syntax, one
     fingerprint — the batch must compute it once. *)
  let report =
    Batch.run ~cache:(Result_cache.create ~min_cost:0. ()) catalog
      [ q; exists_with_alias "z"; q ]
  in
  Alcotest.(check int) "two of three deduplicated" 2 report.Batch.deduplicated;
  let expected = reference catalog q in
  List.iter (fun (_, r) -> check_rel "deduplicated result" expected r)
    report.Batch.results

(* --- Result cache policies ------------------------------------------ *)

let int_schema name = Schema.of_list [ Schema.attr ~rel:name "a" Value.Tint ]

let int_rel name n =
  Relation.of_list (int_schema name)
    (List.init n (fun i -> [| Value.Int i |]))

(* A catalog holding [T], for entries whose plan reads only [T]. *)
let t_catalog rel = Catalog.of_list [ ("T", rel) ]

let test_cache_admission_is_cost_aware () =
  let cache = Result_cache.create ~min_cost:1000. () in
  let rel = int_rel "T" 4 in
  let catalog = t_catalog rel in
  let store fingerprint cost =
    Result_cache.store cache ~catalog ~tables:[ "T" ] ~fingerprint ~cost rel
  in
  Alcotest.(check bool) "cheap result rejected" false (store "cheap" 1.);
  Alcotest.(check int) "nothing admitted" 0 (Result_cache.entries cache);
  Alcotest.(check bool) "expensive result admitted" true (store "dear" 5000.);
  Alcotest.(check bool) "admitted result served" true
    (Option.is_some (Result_cache.lookup cache ~catalog "dear"))

let test_cache_lru_eviction () =
  let r = int_rel "T" 10 in
  let catalog = t_catalog r in
  let bytes = Result_cache.approx_bytes r in
  (* Room for exactly two entries. *)
  let cache = Result_cache.create ~min_cost:0. ~max_bytes:((2 * bytes) + 1) () in
  let store fingerprint =
    assert (Result_cache.store cache ~catalog ~tables:[ "T" ] ~fingerprint ~cost:1. r)
  in
  let resident fp = Option.is_some (Result_cache.lookup cache ~catalog fp) in
  store "a";
  store "b";
  ignore (resident "a");
  (* "b" is now least recently used; storing "c" must evict it. *)
  store "c";
  Alcotest.(check int) "still two entries" 2 (Result_cache.entries cache);
  Alcotest.(check bool) "recently used entry survives" true (resident "a");
  Alcotest.(check bool) "LRU entry evicted" false (resident "b");
  Alcotest.(check bool) "new entry resident" true (resident "c")

let test_cache_invalidated_by_catalog_mutation () =
  let cache = Result_cache.create ~min_cost:0. () in
  let rel = int_rel "T" 4 in
  let catalog = t_catalog rel in
  assert (Result_cache.store cache ~catalog ~tables:[ "T" ] ~fingerprint:"fp" ~cost:1. rel);
  Alcotest.(check bool) "hit before mutation" true
    (Option.is_some (Result_cache.lookup cache ~catalog "fp"));
  Catalog.add catalog "T" rel;
  Alcotest.(check bool) "stale after Catalog.add of its table" false
    (Option.is_some (Result_cache.lookup cache ~catalog "fp"));
  Alcotest.(check int) "stale entry dropped" 0 (Result_cache.entries cache)

(* "exists" reads O and I.  Re-registering J, which its plan never
   reads, leaves the entry current; re-registering I drops it. *)
let test_cache_ignores_unread_tables () =
  let catalog = small_catalog () in
  let registry = Subql_obs.Metrics.create () in
  let cache = Result_cache.create ~min_cost:0. ~registry () in
  let q = Zoo.find_query "exists" in
  let invalidated () = Subql_obs.Metrics.counter_value_by_name registry "mqo.cache.invalidated" in
  ignore (Batch.run ~cache catalog [ q ]);
  Catalog.add catalog "J" (Catalog.find catalog "J");
  let after_j = Batch.run ~cache catalog [ q ] in
  Alcotest.(check int) "an unread table's mutation keeps the hit" 1 after_j.Batch.cache_hits;
  Alcotest.(check int) "nothing invalidated" 0 (invalidated ());
  Catalog.add catalog "I" (Catalog.find catalog "I");
  let after_i = Batch.run ~cache catalog [ q ] in
  Alcotest.(check int) "a read table's mutation misses" 0 after_i.Batch.cache_hits;
  Alcotest.(check int) "the entry was dropped" 1 (invalidated ());
  check_rel "recomputed answer" (reference catalog q) (List.assoc 0 after_i.Batch.results)

(* One cache shared by two catalogs, both built before the first query:
   the same query on B must be answered from B, not with A's entry. *)
let test_cache_never_crosses_catalogs () =
  let a = Zoo.catalog ~outer:16 ~inner:256 ~seed:1L ()
  and b = Zoo.catalog ~outer:16 ~inner:256 ~seed:2L () in
  let q = Zoo.find_query "exists" in
  let oracle_b = Subql_nested.Naive_eval.eval b q in
  if Relation.equal_as_multiset (Subql_nested.Naive_eval.eval a q) oracle_b then
    Alcotest.fail "the two catalogs must answer differently for this test to bite";
  let cache = Result_cache.create ~min_cost:0. () in
  ignore (Batch.run ~cache a [ q ]);
  let on_b = Batch.run ~cache b [ q ] in
  Alcotest.(check int) "B misses" 1 on_b.Batch.cache_misses;
  check_rel "B's answer is B's oracle" oracle_b (List.assoc 0 on_b.Batch.results);
  (* Nor may an answer computed from A repair B's entry. *)
  let fingerprint = Batch.fingerprint (Batch.prepare q) in
  Alcotest.(check bool) "repair from A refuses B's entry" false
    (Result_cache.repair cache ~catalog:a ~fingerprint (reference a q));
  check_rel "B still answered from B" oracle_b
    (List.assoc 0 (Batch.run ~cache b [ q ]).Batch.results)

let () =
  Alcotest.run "mqo"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "alpha-renamed aliases" `Quick test_fp_alpha_rename;
          Alcotest.test_case "commuted conjuncts" `Quick test_fp_commuted_conjuncts;
          Alcotest.test_case "swapped comparison" `Quick test_fp_swapped_comparison;
          Alcotest.test_case "distinct queries stay distinct" `Quick
            test_fp_distinct_queries;
          Alcotest.test_case "syntactic variants coincide" `Quick
            test_fp_syntactic_variants_of_same_query;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "batch equals solo evaluation" `Quick
            test_batch_matches_solo_evaluation;
          Alcotest.test_case "fewer detail scans than queries" `Quick
            test_batch_shares_detail_scans;
          Alcotest.test_case "repeat batch served from cache" `Quick
            test_batch_repeat_hits_cache;
          Alcotest.test_case "identical queries deduplicated" `Quick
            test_batch_deduplicates_identical_queries;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "cost-aware admission" `Quick
            test_cache_admission_is_cost_aware;
          Alcotest.test_case "LRU eviction by bytes" `Quick test_cache_lru_eviction;
          Alcotest.test_case "catalog mutation invalidates" `Quick
            test_cache_invalidated_by_catalog_mutation;
          Alcotest.test_case "unread table mutation keeps the entry" `Quick
            test_cache_ignores_unread_tables;
          Alcotest.test_case "a shared cache never crosses catalogs" `Quick
            test_cache_never_crosses_catalogs;
        ] );
    ]
