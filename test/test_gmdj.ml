(* GMDJ operator tests: Definition 2.1, Figure 1, strategies, completion. *)

open Subql_relational
open Subql_gmdj

let attr = Expr.attr

(* The two blocks of Example 2.1. *)
let example_blocks =
  let in_hour =
    Expr.and_
      (Expr.ge (attr ~rel:"F" "StartTime") (attr ~rel:"H" "StartInterval"))
      (Expr.lt (attr ~rel:"F" "StartTime") (attr ~rel:"H" "EndInterval"))
  in
  [
    Gmdj.block
      [ Aggregate.sum (attr ~rel:"F" "NumBytes") "sum1" ]
      (Expr.and_ in_hour (Expr.eq (attr ~rel:"F" "Protocol") (Expr.str "HTTP")));
    Gmdj.block [ Aggregate.sum (attr ~rel:"F" "NumBytes") "sum2" ] in_hour;
  ]

let base = Relation.rename "H" Helpers.hours

let detail = Relation.rename "F" Helpers.flow

let expected_fig1 =
  (* HourDsc, StartInterval, EndInterval, sum1, sum2 — the unreduced
     sums of Figure 1: 12/12, 36/84, 48/96. *)
  Helpers.rel
    (Schema.concat
       (Schema.rename_rel "H" Helpers.hours_schema)
       (Helpers.schema [ ("", "sum1", Value.Tint); ("", "sum2", Value.Tint) ]))
    Value.
      [
        [ Int 1; Int 0; Int 60; Int 12; Int 12 ];
        [ Int 2; Int 61; Int 120; Int 36; Int 84 ];
        [ Int 3; Int 121; Int 180; Int 48; Int 96 ];
      ]

let test_fig1 eval () =
  Helpers.check_multiset_equal "figure 1" expected_fig1 (eval ~base ~detail example_blocks)

let strategy s ~base ~detail blocks = Helpers.gmdj ~strategy:s ~base ~detail blocks

let test_output_schema () =
  let s = Gmdj.output_schema ~base:(Relation.schema base) ~detail:(Relation.schema detail) example_blocks in
  Alcotest.(check int) "arity" 5 (Schema.arity s);
  Alcotest.(check string) "sum1" "sum1" (Schema.attr_at s 3).Schema.name;
  Alcotest.(check string) "sum2" "sum2" (Schema.attr_at s 4).Schema.name

let test_duplicate_agg_names_renamed () =
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.bool true);
      Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.bool true);
    ]
  in
  let s = Gmdj.output_schema ~base:(Relation.schema base) ~detail:(Relation.schema detail) blocks in
  let names = List.map (fun a -> a.Schema.name) (Schema.to_list s) in
  Alcotest.(check bool) "names distinct"
    true
    (List.length (List.sort_uniq String.compare names) = List.length names)

let test_empty_detail () =
  let empty = Relation.empty (Relation.schema detail) in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"F" "NumBytes") "s" ]
        (Expr.bool true);
    ]
  in
  let result = Helpers.gmdj ~base ~detail:empty blocks in
  Alcotest.(check int) "rows preserved" 3 (Relation.cardinality result);
  Relation.iter
    (fun row ->
      Alcotest.(check bool) "count is 0" true (Value.equal row.(3) (Value.Int 0));
      Alcotest.(check bool) "sum is NULL" true (Value.is_null row.(4)))
    result

let test_empty_base () =
  let empty = Relation.empty (Relation.schema base) in
  let result = Helpers.gmdj ~base:empty ~detail example_blocks in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality result)

(* Random-equivalence: Scan and Hash agree with the reference evaluator
   on random data over a θ mixing an equi-condition and a residual. *)

let equivalence_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta_equi =
    Expr.and_
      (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"))
      (Expr.le (attr ~rel:"B" "x") (attr ~rel:"R" "y"))
  in
  let theta_non_equi = Expr.ne (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
        theta_equi;
      Gmdj.block
        [
          Aggregate.min_ (attr ~rel:"R" "y") "mn";
          Aggregate.max_ (attr ~rel:"R" "y") "mx";
          Aggregate.avg (attr ~rel:"R" "y") "av";
          Aggregate.count (attr ~rel:"R" "y") "cy";
        ]
        theta_non_equi;
    ]
  in
  let reference = Gmdj.reference ~base ~detail blocks in
  let scan = Helpers.gmdj ~strategy:`Scan ~base ~detail blocks in
  let hash = Helpers.gmdj ~strategy:`Hash ~base ~detail blocks in
  Relation.equal_as_multiset reference scan && Relation.equal_as_multiset reference hash

let pair_gen =
  QCheck2.Gen.pair
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
  @@ QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls)

(* Completion equivalence: σ[cnt1 > 0 ∧ cnt2 = 0](MD(...)) computed via
   a completion must equal the straightforward eval-then-filter. *)
let completion_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta1 = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let theta2 = Expr.lt (attr ~rel:"B" "x") (attr ~rel:"R" "y") in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt1" ] theta1;
      Gmdj.block [ Aggregate.count_star "cnt2" ] theta2;
    ]
  in
  let plain = Helpers.gmdj ~base ~detail blocks in
  let filtered =
    Helpers.whole
      (Ops.select
         (Expr.and_
            (Expr.gt (attr "cnt1") (Expr.int 0))
            (Expr.eq (attr "cnt2") (Expr.int 0))))
      plain
  in
  let completion =
    { Gmdj.kill_when = [ theta2 ]; require_fired = [ theta1 ]; maintain_aggregates = true }
  in
  let completed = Helpers.gmdj ~completion ~base ~detail blocks in
  Relation.equal_as_multiset filtered completed

(* With maintain_aggregates = false only the base columns are trustworthy;
   compare after projecting the aggregates away. *)
let completion_no_aggs_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta1 = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let theta2 = Expr.lt (attr ~rel:"B" "x") (attr ~rel:"R" "y") in
  let blocks =
    [
      Gmdj.block [ Aggregate.count_star "cnt1" ] theta1;
      Gmdj.block [ Aggregate.count_star "cnt2" ] theta2;
    ]
  in
  let base_cols = [ (Some "B", "k"); (Some "B", "x") ] in
  let plain = Helpers.gmdj ~base ~detail blocks in
  let filtered =
    Helpers.whole
      (fun src ->
        Ops.project_cols base_cols
          (Ops.select
             (Expr.and_
                (Expr.gt (attr "cnt1") (Expr.int 0))
                (Expr.eq (attr "cnt2") (Expr.int 0)))
             src))
      plain
  in
  let completion =
    { Gmdj.kill_when = [ theta2 ]; require_fired = [ theta1 ]; maintain_aggregates = false }
  in
  let completed =
    Helpers.whole (Ops.project_cols base_cols) (Helpers.gmdj ~completion ~base ~detail blocks)
  in
  Relation.equal_as_multiset filtered completed

(* Every domain count, strategy and completion must agree with the
   definition: aggregate states and kill/require verdicts merge correctly
   across domains.  With a completion, the reference side is filtered by
   the selection the completion encodes. *)
let partitioned_prop (brows, drows) =
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list drows)
  in
  let theta1 = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let theta2 = Expr.lt (attr ~rel:"B" "x") (attr ~rel:"R" "y") in
  let blocks =
    [
      Gmdj.block
        [
          Aggregate.count_star "cnt";
          Aggregate.sum (attr ~rel:"R" "y") "s";
          Aggregate.min_ (attr ~rel:"R" "y") "mn";
          Aggregate.max_ (attr ~rel:"R" "y") "mx";
          Aggregate.avg (attr ~rel:"R" "y") "av";
          Aggregate.count (attr ~rel:"R" "y") "cy";
        ]
        theta1;
      Gmdj.block [ Aggregate.count_star "c2" ] theta2;
    ]
  in
  let reference = Gmdj.reference ~base ~detail blocks in
  let cases =
    [
      (None, reference);
      ( Some { Gmdj.kill_when = [ theta2 ]; require_fired = [ theta1 ]; maintain_aggregates = true },
        Helpers.whole
          (Ops.select
             (Expr.and_ (Expr.gt (attr "cnt") (Expr.int 0)) (Expr.eq (attr "c2") (Expr.int 0))))
          reference );
    ]
  in
  List.for_all
    (fun (completion, expected) ->
      List.for_all
        (fun strategy ->
          List.for_all
            (fun domains ->
              Relation.equal_as_multiset expected
                (Helpers.gmdj ~strategy ?completion ~domains ~base ~detail blocks))
            [ 1; 2; 3 ])
        [ `Scan; `Hash ])
    cases

(* The [`Hash] strategy keys on [<=>] as well as [=]: a null-safe key
   matches NULL with NULL, a plain one never does, and Int/Float keys
   meet across representations (-0., NaN included).  Base keys repeat,
   so a θ-key group often stands for several base tuples.  Every domain
   count, strategy, completion and chunk size (1, 3 and the default
   rows) agrees with the definition. *)
let null_safe_gen =
  let open QCheck2.Gen in
  let int_or_null = frequency [ (1, return Value.Null); (4, map (fun i -> Value.Int i) (int_range 0 3)) ] in
  let float_or_null =
    frequency
      [ (1, return Value.Null); (4, map (fun f -> Value.Float f) (oneofl [ 0.; -0.; 1.; 2.; 2.5; Float.nan ])) ]
  in
  let row = map2 (fun k x -> [ k; x ]) int_or_null float_or_null in
  pair (list_size (int_range 0 12) row) (list_size (int_range 0 20) row)

let null_safe_prop (brows, drows) =
  let rel name cols rows =
    Relation.of_list
      (Schema.of_list
         (List.map2 (fun c ty -> Schema.attr ~rel:name c ty) cols [ Value.Tint; Value.Tfloat ]))
      (List.map Array.of_list rows)
  in
  let base = rel "B" [ "k"; "x" ] brows and detail = rel "R" [ "k"; "y" ] drows in
  let b c = attr ~rel:"B" c and r c = attr ~rel:"R" c in
  let both_null_safe = Expr.and_ (Expr.Null_safe_eq (b "k", r "k")) (Expr.Null_safe_eq (r "y", b "x")) in
  let mixed = Expr.and_ (Expr.eq (b "k") (r "k")) (Expr.Null_safe_eq (b "x", r "y")) in
  (* Int against Float, null-safe, with a residual. *)
  let cross = Expr.and_ (Expr.Null_safe_eq (b "x", r "k")) (Expr.le (b "k") (r "k")) in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "c1"; Aggregate.sum (r "y") "s1"; Aggregate.count (r "k") "ck" ]
        both_null_safe;
      Gmdj.block [ Aggregate.count_star "c2"; Aggregate.min_ (r "y") "mn" ] mixed;
      Gmdj.block [ Aggregate.count_star "c3" ] cross;
    ]
  in
  let reference = Gmdj.reference ~base ~detail blocks in
  let cases =
    [
      (None, reference);
      ( Some { Gmdj.kill_when = [ mixed ]; require_fired = [ both_null_safe ]; maintain_aggregates = true },
        Helpers.whole
          (Ops.select
             (Expr.and_ (Expr.gt (attr "c1") (Expr.int 0)) (Expr.eq (attr "c2") (Expr.int 0))))
          reference );
    ]
  in
  List.for_all
    (fun (completion, expected) ->
      List.for_all
        (fun strategy ->
          List.for_all
            (fun domains ->
              List.for_all
                (fun n ->
                  Relation.equal_as_multiset expected
                    (Gmdj.eval ~strategy ?completion ~domains ~base (Helpers.chunked n detail) blocks))
                Helpers.chunk_sizes)
            [ 1; 2 ])
        [ `Scan; `Hash ])
    cases

let test_partitioned_stats () =
  (* Keys 0..4, key 4 on two base tuples. *)
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
      (List.init 6 (fun i -> [| Value.Int (min i 4) |]))
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      (List.init 100 (fun i -> [| Value.Int (i mod 5) |]))
  in
  let blocks =
    [ Gmdj.block [ Aggregate.count_star "cnt" ] (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k")) ]
  in
  let run ?(strategy = `Scan) domains =
    let stats = Gmdj.fresh_stats () in
    ignore (Helpers.gmdj ~strategy ~stats ~domains ~base ~detail blocks);
    stats
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "every detail row scanned once" 100 parallel.Gmdj.detail_scanned;
  Alcotest.(check int) "one logical pass" 1 parallel.Gmdj.detail_passes;
  Alcotest.(check int) "θ counts do not depend on the domain count" serial.Gmdj.theta_evals
    parallel.Gmdj.theta_evals;
  Alcotest.(check int) "every pair tested" 600 parallel.Gmdj.theta_evals;
  (* Block updates count matched (detail row, base tuple) pairs: the 20
     detail rows of key 4 match two base tuples, whether the fold keeps
     a slot per base tuple ([`Scan]) or one per θ-key group ([`Hash]). *)
  List.iter
    (fun (name, stats) -> Alcotest.(check int) name 120 stats.Gmdj.block_updates.(0))
    [
      ("block updates, scan, 1 domain", serial);
      ("block updates, scan, 4 domains", parallel);
      ("block updates, key groups, 1 domain", run ~strategy:`Hash 1);
      ("block updates, key groups, 2 domains", run ~strategy:`Hash 2);
    ];
  (match Helpers.gmdj ~domains:0 ~base ~detail blocks with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains 0 must be rejected")

(* Incremental maintenance: inserting then deleting a delta returns the
   view to the state of recomputation at each step. *)
let maintenance_prop (brows, drows) =
  let split = List.length drows / 2 in
  let d1 = List.filteri (fun i _ -> i < split) drows in
  let d2 = List.filteri (fun i _ -> i >= split) drows in
  let mk_detail rows =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ])
      (List.map Array.of_list rows)
  in
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint; Schema.attr ~rel:"B" "x" Value.Tint ])
      (List.map Array.of_list brows)
  in
  let blocks =
    [
      Gmdj.block
        [
          Aggregate.count_star "cnt";
          Aggregate.sum (attr ~rel:"R" "y") "s";
          Aggregate.avg (attr ~rel:"R" "y") "av";
          Aggregate.count (attr ~rel:"R" "y") "cy";
        ]
        (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    ]
  in
  let view = Gmdj.Maintain.create ~base ~detail:(mk_detail d1) blocks in
  let ok1 =
    Relation.equal_as_multiset (Helpers.gmdj ~base ~detail:(mk_detail d1) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.insert_detail view (mk_detail d2);
  let ok2 =
    Relation.equal_as_multiset
      (Helpers.gmdj ~base ~detail:(mk_detail (d1 @ d2)) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.delete_detail view (mk_detail d2);
  let ok3 =
    Relation.equal_as_multiset (Helpers.gmdj ~base ~detail:(mk_detail d1) blocks)
      (Gmdj.Maintain.result view)
  in
  Gmdj.Maintain.delete_detail view (mk_detail d1);
  let ok4 =
    Relation.equal_as_multiset
      (Helpers.gmdj ~base ~detail:(mk_detail []) blocks)
      (Gmdj.Maintain.result view)
  in
  ok1 && ok2 && ok3 && ok4

(* The row counts of a view's lifetime stats, which a refused delete
   must leave as they were. *)
let stat_counts view =
  let st = Gmdj.Maintain.stats view in
  (st.Gmdj.detail_scanned, Array.to_list st.Gmdj.block_updates)

let test_maintain_minmax_rules () =
  let base =
    Relation.of_list (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ]) [ [| Value.Int 1 |] ]
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      [ [| Value.Int 1 |]; [| Value.Int 2 |] ]
  in
  let theta = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k") in
  let y = attr ~rel:"R" "k" in
  List.iter
    (fun (name, completion, spec) ->
      (* A retractable aggregate beside the refused one: the refusal
         must come before either is touched. *)
      let blocks = [ Gmdj.block [ Aggregate.count_star "cnt"; spec ] theta ] in
      let view = Gmdj.Maintain.create ?completion ~base ~detail blocks in
      (* Insertions are fine... *)
      Gmdj.Maintain.insert_detail view detail;
      let before = Gmdj.Maintain.result view and counts = stat_counts view in
      (* ...but deletions must be rejected, leaving the view as it was. *)
      (match Gmdj.Maintain.delete_detail view detail with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s deletion must be rejected" name);
      Alcotest.(check bool)
        (name ^ ": refused delete leaves the view")
        true
        (Helpers.equal_as_list before (Gmdj.Maintain.result view));
      Alcotest.(check bool)
        (name ^ ": refused delete leaves the stats")
        true
        (counts = stat_counts view))
    [
      ("MAX", None, Aggregate.max_ y "m");
      ("MIN", None, Aggregate.min_ y "m");
      ("FIRST", None, Aggregate.first y "m");
      (* Retractable aggregates, but a completed view: a retract could
         revive a killed tuple. *)
      ( "completed SUM",
        Some { Gmdj.kill_when = []; require_fired = [ theta ]; maintain_aggregates = true },
        Aggregate.sum y "m" );
    ];
  (* And a schema mismatch is caught. *)
  let view = Gmdj.Maintain.create ~base ~detail [ Gmdj.block [ Aggregate.count_star "c" ] theta ] in
  let wrong =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "z" Value.Tint ])
      []
  in
  match Gmdj.Maintain.insert_detail view wrong with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "schema mismatch must be rejected"

(* SUM and AVG retractions are exact or refused.  One key with [-2]
   folded, then [min_int] and [0.5] inserted and deleted: the float
   sum has rounded, so the view must equal a recompute over [-2] or
   refuse, leaving the view and its stats unchanged.  Small ints alone
   retract exactly. *)
let test_maintain_inexact_retraction () =
  let base =
    Relation.of_list (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ]) [ [| Value.Int 1 |] ]
  in
  let detail rows =
    Relation.of_list ~check:false
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "m" Value.Tfloat ])
      (List.map (fun m -> [| Value.Int 1; m |]) rows)
  in
  let m = attr ~rel:"R" "m" in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "n"; Aggregate.sum m "s"; Aggregate.avg m "a" ]
        (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    ]
  in
  let recompute rows = Helpers.gmdj ~base ~detail:(detail rows) blocks in
  let exact_or_refused name ~kept ~delta =
    let view = Gmdj.Maintain.create ~base ~detail:(detail kept) blocks in
    Gmdj.Maintain.insert_detail view (detail delta);
    let before = Gmdj.Maintain.result view and counts = stat_counts view in
    match Gmdj.Maintain.delete_detail view (detail delta) with
    | () ->
      Alcotest.(check bool) (name ^ ": equals recompute") true
        (Helpers.equal_as_list (recompute kept) (Gmdj.Maintain.result view));
      `Retracted
    | exception Invalid_argument _ ->
      Alcotest.(check bool) (name ^ ": refused delete leaves the view") true
        (Helpers.equal_as_list before (Gmdj.Maintain.result view));
      Alcotest.(check bool) (name ^ ": refused delete leaves the stats") true
        (counts = stat_counts view);
      `Refused
  in
  ignore (exact_or_refused "min_int and 0.5" ~kept:[ Value.Int (-2) ] ~delta:[ Value.Int min_int; Value.Float 0.5 ]);
  ignore (exact_or_refused "min_int" ~kept:[ Value.Int (-2) ] ~delta:[ Value.Int min_int ]);
  Alcotest.(check bool) "small ints retract" true
    (exact_or_refused "small ints" ~kept:[ Value.Int (-2); Value.Null ] ~delta:[ Value.Int 7; Value.Int (-9) ]
    = `Retracted)

let test_early_exit () =
  (* All base tuples get killed by the very first detail rows: the scan
     must stop early. *)
  let base =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ])
      [ [| Value.Int 1 |]; [| Value.Int 2 |] ]
  in
  let detail =
    Relation.of_list
      (Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint ])
      (List.init 1000 (fun i -> [| Value.Int (1 + (i mod 2)) |]))
  in
  let theta = Expr.eq (Expr.attr ~rel:"B" "k") (Expr.attr ~rel:"R" "k") in
  let blocks = [ Gmdj.block [ Aggregate.count_star "cnt" ] theta ] in
  let stats = Gmdj.fresh_stats () in
  let completion =
    { Gmdj.kill_when = [ theta ]; require_fired = []; maintain_aggregates = false }
  in
  let result = Helpers.gmdj ~stats ~completion ~base ~detail blocks in
  Alcotest.(check int) "all killed" 0 (Relation.cardinality result);
  Alcotest.(check bool) "early exit" true stats.Gmdj.early_exit;
  Alcotest.(check bool) "scan shortened" true (stats.Gmdj.detail_scanned < 1000)

let () =
  Alcotest.run "gmdj"
    [
      ( "figure-1",
        [
          Alcotest.test_case "reference" `Quick (test_fig1 Gmdj.reference);
          Alcotest.test_case "scan" `Quick (test_fig1 (strategy `Scan));
          Alcotest.test_case "hash" `Quick (test_fig1 (strategy `Hash));
        ] );
      ( "schema",
        [
          Alcotest.test_case "output schema" `Quick test_output_schema;
          Alcotest.test_case "duplicate names renamed" `Quick test_duplicate_agg_names_renamed;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty detail" `Quick test_empty_detail;
          Alcotest.test_case "empty base" `Quick test_empty_base;
          Alcotest.test_case "completion early exit" `Quick test_early_exit;
        ] );
      ( "properties",
        [
          Helpers.qtest "strategies agree with the definition" pair_gen equivalence_prop;
          Helpers.qtest "completion = eval-then-filter" pair_gen completion_prop;
          Helpers.qtest "aggregate-free completion" pair_gen completion_no_aggs_prop;
          Helpers.qtest ~count:80 "partitioned = whole" pair_gen partitioned_prop;
          Helpers.qtest ~count:150 "null-safe keys agree with the definition" null_safe_gen
            null_safe_prop;
          Helpers.qtest ~count:120 "maintenance = recompute" pair_gen maintenance_prop;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "min/max and schema rules" `Quick test_maintain_minmax_rules;
          Alcotest.test_case "inexact SUM/AVG retraction is refused" `Quick
            test_maintain_inexact_retraction;
        ] );
      ( "partitioned",
        [ Alcotest.test_case "stats and bounds" `Quick test_partitioned_stats ] );
    ]
