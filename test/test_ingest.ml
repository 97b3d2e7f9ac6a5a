(* The ingest subsystem: per-table catalog epochs, appendable tables,
   staleness policies, the delta-vs-recompute decision, and in-place
   repair of cached results. *)

open Subql_relational
module Ingest = Subql_ingest.Ingest
module Maintenance = Subql_ingest.Maintenance
module Cache = Subql_mqo.Result_cache
module Metrics = Subql_obs.Metrics
module Zoo = Subql_workload.Zoo

(* A hand-rolled zoo-shaped database small enough to reason about
   exactly: "not-exists" answers {o2, o3} (no I row with k=2 or 3). *)
let mini_catalog () =
  let rel cols rows =
    Relation.of_list
      (Schema.of_list (List.map (fun c -> Schema.attr c Value.Tint) cols))
      (List.map Array.of_list rows)
  in
  Catalog.of_list
    [
      ( "O",
        rel [ "k"; "x" ]
          [
            [ Value.Int 1; Value.Int 10 ];
            [ Value.Int 2; Value.Int 20 ];
            [ Value.Int 3; Value.Int 30 ];
          ] );
      ("I", rel [ "k"; "y" ] [ [ Value.Int 1; Value.Int 5 ] ]);
      ("J", rel [ "k"; "y" ] [ [ Value.Int 1; Value.Int 7 ] ]);
    ]

let row k y = [| Value.Int k; Value.Int y |]

let solo catalog q =
  Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra q))

let fp_of q = Subql_mqo.Batch.fingerprint (Subql_mqo.Batch.prepare q)

(* --- catalog epochs --------------------------------------------------- *)

let test_catalog_epochs () =
  let c = mini_catalog () in
  let e_i = Catalog.epoch c "I" and e_j = Catalog.epoch c "J" in
  Catalog.add c "I" (Catalog.find c "I");
  Alcotest.(check int) "re-registration bumps the table's epoch" (e_i + 1)
    (Catalog.epoch c "I");
  Alcotest.(check int) "other tables untouched" e_j (Catalog.epoch c "J");
  Alcotest.(check int) "unknown tables sit at zero" 0 (Catalog.epoch c "nope")

let test_append_bumps_epoch_once_per_batch () =
  let c = mini_catalog () in
  let cache = Cache.create ~min_cost:0. () in
  let ing = Ingest.create ~catalog:c ~cache () in
  let e0 = Catalog.epoch c "I" in
  ignore (Ingest.append ing ~table:"I" [| row 2 6; row 3 9; row 4 1 |]);
  Alcotest.(check int) "one epoch bump per batch, not per row" (e0 + 1)
    (Catalog.epoch c "I");
  Alcotest.(check int) "the catalog serves the grown relation" 4
    (Relation.cardinality (Catalog.find c "I"));
  (match Ingest.append ing ~table:"nope" [| row 1 1 |] with
  | exception Catalog.Unknown_table _ -> ()
  | _ -> Alcotest.fail "unknown table must be rejected");
  Ingest.close ing

(* --- epoch semantics: stale entries are never served ------------------ *)

let test_stale_entry_never_served () =
  let c = mini_catalog () in
  let registry = Metrics.create () in
  let cache = Cache.create ~min_cost:0. ~registry () in
  let ing = Ingest.create ~policy:Ingest.Recompute_on_miss ~catalog:c ~cache () in
  let fp = "stale-entry-test" in
  ignore (Cache.store cache ~catalog:c ~tables:[ "I" ] ~fingerprint:fp ~cost:1e9 (Catalog.find c "O"));
  Alcotest.(check bool) "served while fresh" true (Option.is_some (Cache.lookup cache ~catalog:c fp));
  ignore (Ingest.append ing ~table:"I" [| row 9 9 |]);
  (* Planners may peek at the stale body; queries must never get it. *)
  Alcotest.(check bool) "peek still sees the stale body" true
    (Option.is_some (Cache.peek cache fp));
  Alcotest.(check bool) "never served after the append" true
    (Option.is_none (Cache.lookup cache ~catalog:c fp));
  Alcotest.(check int) "the drop is counted as an invalidation" 1
    (Metrics.counter_value_by_name registry "mqo.cache.invalidated");
  Ingest.close ing

(* --- repair in place ---------------------------------------------------- *)

let test_repair_in_place () =
  let c = mini_catalog () in
  let registry = Metrics.create () in
  let cache = Cache.create ~min_cost:0. ~registry () in
  let q = Zoo.find_query "not-exists" in
  let fp = fp_of q in
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~catalog:c ~cache () in
  ignore (Ingest.register_query ing q);
  ignore (Subql_mqo.Batch.run ~cache c [ q ]);
  (* An append to the detail table re-answers the plan and repairs the
     entry in place — the next lookup is a hit with the new answer. *)
  ignore (Ingest.append ing ~table:"I" [| row 2 6 |]);
  (match Cache.lookup cache ~catalog:c fp with
  | None -> Alcotest.fail "entry was dropped instead of repaired"
  | Some rel ->
    if not (Relation.equal_as_multiset (solo c q) rel) then
      Alcotest.fail "repaired entry differs from recomputation");
  (* An append to a table the plan never reads needs nothing. *)
  let repaired () = Metrics.counter_value_by_name registry "mqo.cache.repaired" in
  let before = repaired () in
  (match Ingest.append ing ~table:"J" [| row 5 5 |] with
  | Some rep ->
    Alcotest.(check int) "no delta" 0 rep.Maintenance.delta_maintained;
    Alcotest.(check int) "no recompute" 0 rep.Maintenance.recomputed
  | None -> Alcotest.fail "maintain-on-write append must report");
  Alcotest.(check int) "no repair" before (repaired ());
  Alcotest.(check bool) "still served after the unrelated append" true
    (Option.is_some (Cache.lookup cache ~catalog:c fp));
  (* Repair is not admission. *)
  Alcotest.(check bool) "repair refuses unknown fingerprints" false
    (Cache.repair cache ~catalog:c ~fingerprint:"absent" (Catalog.find c "O"));
  Ingest.close ing

(* --- staleness policies ----------------------------------------------- *)

let test_policy_spellings () =
  Alcotest.(check bool) "CLI spellings resolve" true
    (Ingest.policy_of_string "on-write" = Some Ingest.Maintain_on_write
    && Ingest.policy_of_string "recompute" = Some Ingest.Recompute_on_miss
    && Ingest.policy_of_string "bogus" = None)

(* A malformed batch raises before anything changes: a mistyped row, a
   wrong-arity row, or a good row ahead of a bad one leave the catalog
   relation and epoch and the cached entry as they were; a good append
   after them still delta-maintains to the recomputed answer. *)
let test_malformed_batch_changes_nothing () =
  let c = mini_catalog () in
  let cache = Cache.create ~min_cost:0. () in
  let ing =
    Ingest.create ~policy:Ingest.Maintain_on_write ~delta_row_cost:0. ~catalog:c ~cache ()
  in
  let q = Zoo.find_query "not-exists" in
  let fp = fp_of q in
  ignore (Ingest.register_query ing q);
  ignore (Subql_mqo.Batch.run ~cache c [ q ]);
  (* A good append builds the fold state. *)
  ignore (Ingest.append ing ~table:"I" [| row 2 6 |]);
  let rel = Catalog.find c "I" and entry = Cache.peek cache fp in
  let epoch = Catalog.epoch c "I" in
  List.iter
    (fun (what, batch) ->
      (match Ingest.append ing ~table:"I" batch with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: must raise Invalid_argument" what);
      Alcotest.(check bool) (what ^ ": catalog relation unchanged") true
        (Catalog.find c "I" == rel);
      Alcotest.(check int) (what ^ ": table epoch unchanged") epoch (Catalog.epoch c "I");
      Alcotest.(check bool) (what ^ ": cached entry unchanged") true
        (match (Cache.peek cache fp, entry) with
        | Some a, Some b -> a == b
        | None, None -> true
        | _ -> false);
      Alcotest.(check bool) (what ^ ": entry still served") true
        (Option.is_some (Cache.lookup cache ~catalog:c fp)))
    [
      ("mistyped row", [| [| Value.Int 3; Value.Str "not an int" |] |]);
      ("wrong-arity row", [| [| Value.Int 3 |] |]);
      ("good row ahead of a bad one", [| row 3 1; [| Value.Int 3 |] |]);
    ];
  (match Ingest.append ing ~table:"I" [| row 3 1 |] with
  | Some rep ->
    Alcotest.(check int) "the next good append delta-maintains" 1
      rep.Maintenance.delta_maintained;
    Alcotest.(check int) "folding just its row" 1 rep.Maintenance.delta_rows
  | None -> Alcotest.fail "maintain-on-write append must report");
  (match Cache.lookup cache ~catalog:c fp with
  | None -> Alcotest.fail "entry not served after the good append"
  | Some rel ->
    Alcotest.(check bool) "delta-maintained entry equals recompute" true
      (Relation.equal_as_multiset (solo c q) rel));
  Ingest.close ing

(* A relation registered for an ingested table by anyone else between
   two appends is the one the next append grows, and the views over it
   rebuild from the catalog: folding the batch into state built from the
   replaced relation would serve an answer for rows the table no longer
   holds.  With the fold priced free, only that check keeps the batch
   out of the stale state.  The replacement holds k=3 where the state
   saw k=1,2, so "not-exists" changes from {o3} to {o1, o2}. *)
let test_out_of_band_registration () =
  let c = mini_catalog () in
  let cache = Cache.create ~min_cost:0. () in
  let ing =
    Ingest.create ~policy:Ingest.Maintain_on_write ~delta_row_cost:0. ~catalog:c ~cache ()
  in
  let q = Zoo.find_query "not-exists" in
  ignore (Ingest.register_query ing q);
  ignore (Subql_mqo.Batch.run ~cache c [ q ]);
  ignore (Ingest.append ing ~table:"I" [| row 2 6 |]);
  let replaced = [| row 3 8 |] and batch = [| row 4 1 |] in
  Catalog.add c "I" (Relation.create (Relation.schema (Catalog.find c "I")) replaced);
  let rep = Option.get (Ingest.append ing ~table:"I" batch) in
  Alcotest.(check bool) "the catalog's relation is the one grown" true
    (Relation.rows (Catalog.find c "I") = Array.append replaced batch);
  Alcotest.(check int) "recomputed" 1 rep.Maintenance.recomputed;
  Alcotest.(check int) "not delta-maintained" 0 rep.Maintenance.delta_maintained;
  match Cache.lookup cache ~catalog:c (fp_of q) with
  | None -> Alcotest.fail "entry not served after the append"
  | Some rel ->
    Alcotest.(check bool) "served entry equals the naive oracle" true
      (Relation.equal_as_multiset (Subql_nested.Naive_eval.eval c q) rel)

(* --- the delta-vs-recompute decision ---------------------------------- *)

let test_delta_decision_is_cost_based () =
  let run ~delta_row_cost =
    let catalog = Zoo.catalog ~outer:16 ~inner:2_000 ~seed:5L () in
    let cache = Cache.create ~min_cost:0. () in
    let ing =
      Ingest.create ~policy:Ingest.Maintain_on_write ~delta_row_cost ~catalog ~cache ()
    in
    let q = Zoo.find_query "not-exists" in
    ignore (Ingest.register_query ing q);
    ignore (Subql_mqo.Batch.run ~cache catalog [ q ]);
    (* First append builds the accumulators (a full rebuild)... *)
    ignore (Ingest.append ing ~table:"I" (Zoo.detail_rows ~seed:1L 20));
    (* ...the second is where the planner has a real choice. *)
    let r = Option.get (Ingest.append ing ~table:"I" (Zoo.detail_rows ~seed:2L 20)) in
    let served =
      match Cache.lookup cache ~catalog (fp_of q) with
      | Some rel -> Relation.equal_as_multiset (solo catalog q) rel
      | None -> false
    in
    Ingest.close ing;
    (r, served)
  in
  let cheap, served = run ~delta_row_cost:0.5 in
  Alcotest.(check int) "cheap per-row cost folds the delta" 1
    cheap.Maintenance.delta_maintained;
  Alcotest.(check int) "exactly the appended rows folded" 20 cheap.Maintenance.delta_rows;
  Alcotest.(check bool) "folding avoided a full detail scan" true
    (cheap.Maintenance.avoided_rows > 1_000);
  Alcotest.(check bool) "delta-maintained entry equals recompute" true served;
  let costly, served = run ~delta_row_cost:1e12 in
  Alcotest.(check int) "prohibitive per-row cost recomputes" 1
    costly.Maintenance.recomputed;
  Alcotest.(check int) "no delta folded" 0 costly.Maintenance.delta_maintained;
  Alcotest.(check bool) "recomputed entry equals recompute" true served

(* --- widened delta maintenance: row-local detail chains ---------------- *)

(* The "exists" template carries the local predicate [i.y > 2].  Its
   registered plan is the completed GMDJ the cache serves: the predicate
   sits in the require condition, and the detail side is the chain
   [Rename i (Table I)] rather than a bare table.  The effect analysis
   proves the chain row-local and delta-maintains the view, replaying
   the chain on just the appended suffix into the live verdicts. *)
let test_widened_detail_chain () =
  let catalog = Zoo.catalog ~outer:16 ~inner:2_000 ~seed:5L () in
  let cache = Cache.create ~min_cost:0. () in
  let ing =
    Ingest.create ~policy:Ingest.Maintain_on_write ~delta_row_cost:0.5 ~catalog ~cache ()
  in
  let q = Zoo.find_query "exists" in
  let fp = fp_of q in
  ignore (Ingest.register_query ing q);
  let maint = Ingest.maintenance ing in
  Alcotest.(check bool) "renamed detail chain is maintainable" true
    (Maintenance.is_maintainable maint ~fingerprint:fp);
  Alcotest.(check (list string)) "no ING refusals" []
    (List.map
       (fun d -> d.Diag.code)
       (Maintenance.why_not_maintainable maint ~fingerprint:fp));
  ignore (Subql_mqo.Batch.run ~cache catalog [ q ]);
  (* the first append rebuilds the fold state; the second is a real
     delta fold through the Rename chain *)
  ignore (Ingest.append ing ~table:"I" (Zoo.detail_rows ~seed:1L 25));
  let r = Option.get (Ingest.append ing ~table:"I" (Zoo.detail_rows ~seed:2L 25)) in
  Alcotest.(check int) "delta-maintained, not recomputed" 1
    r.Maintenance.delta_maintained;
  Alcotest.(check int) "no recompute" 0 r.Maintenance.recomputed;
  Alcotest.(check bool) "folded at most the appended suffix" true
    (r.Maintenance.delta_rows <= 25);
  Alcotest.(check bool) "avoided rescanning the detail table" true
    (r.Maintenance.avoided_rows > 1_000);
  (match Cache.lookup cache ~catalog fp with
  | None -> Alcotest.fail "entry not served after the delta fold"
  | Some rel ->
    Alcotest.(check bool) "delta-folded entry equals recompute" true
      (Relation.equal_as_multiset (solo catalog q) rel));
  (* a shape the analysis still refuses explains itself with ING codes *)
  let nested = Zoo.find_query "linear-nesting" in
  ignore (Ingest.register_query ing nested);
  Alcotest.(check bool) "nested-MD plan still refused" false
    (Maintenance.is_maintainable maint ~fingerprint:(fp_of nested));
  Alcotest.(check bool) "refusal explains itself" true
    (Maintenance.why_not_maintainable maint ~fingerprint:(fp_of nested) <> []);
  Ingest.close ing

(* --- the whole zoo, on the plans the cache serves ------------------------ *)

(* Every zoo template registered and cached; then two appends to I and
   one to J.  After each sync every cached entry must equal recompute and
   the naive oracle.  The single-GMDJ templates — completed plans
   included — are maintained on the very plan the cache serves, so the
   second I append folds a delta into each one reading I; the nested
   shapes keep ING001 and recompute. *)
let test_zoo_maintained_on_served_plans () =
  (* Keys sparse enough that some o.x values have no I row, so
     two-subqueries-same-table answers tuples with a non-NULL x. *)
  let key_range = 1024 in
  let catalog = Zoo.catalog ~outer:64 ~inner:300 ~key_range ~seed:5L () in
  let rows seed = Zoo.detail_rows ~seed ~key_range 20 in
  let cache = Cache.create ~min_cost:0. () in
  let ing = Ingest.create ~policy:Ingest.Maintain_on_write ~catalog ~cache () in
  let maint = Ingest.maintenance ing in
  let templates = List.map fst Zoo.queries in
  List.iter (fun t -> ignore (Ingest.register_query ing (Zoo.find_query t))) templates;
  let maintainable, refused =
    List.partition
      (fun t -> Maintenance.is_maintainable maint ~fingerprint:(fp_of (Zoo.find_query t)))
      templates
  in
  Alcotest.(check int) "single-GMDJ templates maintainable" 18 (List.length maintainable);
  List.iter
    (fun t ->
      Alcotest.(check (list string))
        (t ^ " refused with ING001") [ "ING001" ]
        (List.map
           (fun d -> d.Diag.code)
           (Maintenance.why_not_maintainable maint ~fingerprint:(fp_of (Zoo.find_query t)))))
    refused;
  (* Views (one per distinct fingerprint) maintained over table [d]. *)
  let detail_views d =
    List.sort_uniq compare
      (List.filter_map
         (fun t ->
           let e = Subql_mqo.Batch.prepare (Zoo.find_query t) in
           match (Subql_analysis.Deltaable.analyze (Subql_mqo.Batch.solo_plan e)).maintainable with
           | Some m when m.detail_table = d -> Some (Subql_mqo.Batch.fingerprint e)
           | _ -> None)
         templates)
  in
  ignore (Subql_mqo.Batch.run ~cache catalog (List.map Zoo.find_query templates));
  let check_entries stage =
    List.iter
      (fun t ->
        let q = Zoo.find_query t in
        match Cache.lookup cache ~catalog (fp_of q) with
        | None -> Alcotest.failf "%s: %s entry not served" stage t
        | Some rel ->
          if not (Relation.equal_as_multiset (solo catalog q) rel) then
            Alcotest.failf "%s: %s entry differs from recompute" stage t;
          if not (Relation.equal_as_multiset (Subql_nested.Naive_eval.eval catalog q) rel) then
            Alcotest.failf "%s: %s entry differs from the naive oracle" stage t)
      templates
  in
  check_entries "warm";
  ignore (Ingest.append ing ~table:"I" (rows 1L));
  check_entries "first I append";
  (* two-subqueries-same-table completes with require (an I row with
     i.k = o.k, i.y > 2) and kill (an I row with i2.k = o.x).  Pick a
     surviving tuple — its require has fired — and append its killer. *)
  let kill_after_fire = Zoo.find_query "two-subqueries-same-table" in
  let answer () = Relation.rows (Option.get (Cache.lookup cache ~catalog (fp_of kill_after_fire))) in
  let victim =
    match
      List.find_opt
        (fun o -> Array.mem o (answer ()) && not (Value.is_null o.(1)))
        (Array.to_list (Relation.rows (Catalog.find catalog "O")))
    with
    | Some o -> o
    | None -> Alcotest.fail "two-subqueries-same-table answers no tuple with a non-NULL x"
  in
  let killer = [| victim.(1); Value.Int 0 |] in
  let r =
    Option.get
      (Ingest.append ing ~table:"I" (Array.append (rows 2L) [| killer |]))
  in
  Alcotest.(check int) "second I append folds a delta into every view over I"
    (List.length (detail_views "I")) r.Maintenance.delta_maintained;
  Alcotest.(check bool) "the killed tuple left the answer" false (Array.mem victim (answer ()));
  check_entries "second I append";
  let r = Option.get (Ingest.append ing ~table:"J" (rows 3L)) in
  Alcotest.(check int) "J append folds a delta into every view over J"
    (List.length (detail_views "J")) r.Maintenance.delta_maintained;
  check_entries "J append";
  Ingest.close ing

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_surfaced () =
  let registry = Metrics.create () in
  let c = mini_catalog () in
  let cache = Cache.create ~min_cost:0. ~registry () in
  let ing = Ingest.create ~registry ~catalog:c ~cache () in
  let q = Zoo.find_query "not-exists" in
  ignore (Ingest.register_query ing q);
  ignore (Subql_mqo.Batch.run ~cache c [ q ]);
  ignore (Ingest.append ing ~table:"I" [| row 2 6 |]);
  ignore (Ingest.append ing ~table:"I" [| row 3 6; row 4 1 |]);
  let v name = Metrics.counter_value_by_name registry name in
  Alcotest.(check int) "ingest.rows_appended" 3 (v "ingest.rows_appended");
  Alcotest.(check int) "ingest.batches" 2 (v "ingest.batches");
  Alcotest.(check int) "mqo.cache.repaired" 2 (v "mqo.cache.repaired");
  Alcotest.(check bool) "maintenance decisions counted" true
    (v "ingest.maintain.delta" + v "ingest.maintain.recompute" >= 2);
  Ingest.close ing

let () =
  Alcotest.run "ingest"
    [
      ( "epochs",
        [
          Alcotest.test_case "catalog epochs are per table" `Quick test_catalog_epochs;
          Alcotest.test_case "append bumps once per batch" `Quick
            test_append_bumps_epoch_once_per_batch;
          Alcotest.test_case "stale entries are never served" `Quick
            test_stale_entry_never_served;
          Alcotest.test_case "a malformed batch changes nothing" `Quick
            test_malformed_batch_changes_nothing;
          Alcotest.test_case "an out-of-band registration is grown, not folded over" `Quick
            test_out_of_band_registration;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "repair in place, unrelated append is a hit" `Quick
            test_repair_in_place;
          Alcotest.test_case "delta vs recompute is cost-based" `Quick
            test_delta_decision_is_cost_based;
          Alcotest.test_case "row-local detail chains delta-maintain" `Quick
            test_widened_detail_chain;
          Alcotest.test_case "zoo maintained on the plans the cache serves" `Quick
            test_zoo_maintained_on_served_plans;
        ] );
      ( "policies",
        [
          Alcotest.test_case "CLI spellings" `Quick test_policy_spellings;
        ] );
      ("metrics", [ Alcotest.test_case "counters surfaced" `Quick test_metrics_surfaced ]);
    ]
