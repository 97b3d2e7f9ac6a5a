(* Relational substrate: values, 3VL, schemas, expressions, aggregates,
   indexes and the operator suite. *)

open Subql_relational

let attr = Expr.attr

(* --- Bool3: Kleene algebra laws -------------------------------------- *)

let bool3_all = [ Bool3.True; Bool3.False; Bool3.Unknown ]

let bool3_gen = QCheck2.Gen.oneofl bool3_all

let test_bool3_tables () =
  let open Bool3 in
  Alcotest.(check bool) "t&&u" true (equal (and_ True Unknown) Unknown);
  Alcotest.(check bool) "f&&u" true (equal (and_ False Unknown) False);
  Alcotest.(check bool) "t||u" true (equal (or_ True Unknown) True);
  Alcotest.(check bool) "f||u" true (equal (or_ False Unknown) Unknown);
  Alcotest.(check bool) "not u" true (equal (not_ Unknown) Unknown);
  Alcotest.(check bool) "truncation" false (to_bool Unknown)

let bool3_props =
  let open Bool3 in
  [
    Helpers.qtest "de morgan" (QCheck2.Gen.pair bool3_gen bool3_gen) (fun (a, b) ->
        equal (not_ (and_ a b)) (or_ (not_ a) (not_ b)));
    Helpers.qtest "and commutes" (QCheck2.Gen.pair bool3_gen bool3_gen) (fun (a, b) ->
        equal (and_ a b) (and_ b a));
    Helpers.qtest "or distributes" (QCheck2.Gen.triple bool3_gen bool3_gen bool3_gen)
      (fun (a, b, c) -> equal (or_ a (and_ b c)) (and_ (or_ a b) (or_ a c)));
    Helpers.qtest "double negation" bool3_gen (fun a -> equal (not_ (not_ a)) a);
  ]

(* --- Value ------------------------------------------------------------ *)

let test_value_compare () =
  Alcotest.(check int) "null first" (-1)
    (compare (Value.compare Value.Null (Value.Int 0)) 0);
  Alcotest.(check bool) "int/float promote" true (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "null equal for grouping" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "cmp3 null is unknown" true
    (Value.cmp3 Value.Null (Value.Int 1) = None);
  (match Value.cmp3 (Value.Str "a") (Value.Int 1) with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error on string vs int")

(* Float printing is canonical: both NaN payloads (the sign bit of a
   NaN is noise) print as "nan", negative zero keeps its sign, and the
   CSV cell form is bit-exact.  The engine's sort/group/dedup order
   relies on the matching [compare]/[hash] conventions. *)
let test_value_printing () =
  Alcotest.(check string) "nan" "nan" (Value.to_string (Value.Float Float.nan));
  Alcotest.(check string) "negative nan" "nan" (Value.to_string (Value.Float (-.Float.nan)));
  Alcotest.(check string) "inf" "inf" (Value.to_string (Value.Float Float.infinity));
  Alcotest.(check string) "-inf" "-inf" (Value.to_string (Value.Float Float.neg_infinity));
  Alcotest.(check string) "negative zero keeps its sign" "-0"
    (Value.to_string (Value.Float (-0.)));
  Alcotest.(check string) "csv nan is canonical" "nan"
    (Value.to_csv_string (Value.Float (-.Float.nan)));
  (* The documented total order: NaN equals itself and sits below every
     number; -0. and 0. are the same point, also under [hash]. *)
  Alcotest.(check bool) "NaN = NaN" true
    (Value.equal (Value.Float Float.nan) (Value.Float Float.nan));
  Alcotest.(check bool) "NaN below numbers" true
    (Value.compare (Value.Float Float.nan) (Value.Float neg_infinity) < 0);
  Alcotest.(check bool) "-0 = 0" true (Value.equal (Value.Float (-0.)) (Value.Float 0.));
  (* CSV cells round-trip the awkward floats bit-for-bit (modulo the
     NaN payload, which [equal] already identifies). *)
  List.iter
    (fun f ->
      let v = Value.Float f in
      let round = Value.of_csv_string Value.Tfloat (Value.to_csv_string v) in
      Alcotest.(check bool)
        (Printf.sprintf "csv roundtrip %h" f)
        true
        (Value.equal round v && Value.is_null round = Value.is_null v))
    [ -0.; 0.1; Float.nan; Float.infinity; Float.neg_infinity; 1e-300; -1.5e300 ]

(* The hash law every hash table and the spill partitioner rely on:
   [Value.equal a b] implies [Value.hash a = Value.hash b].  Values are
   drawn as an Int or a Float over the same numbers — the edges of the
   exact-int range ±2^53 and its neighbours, max_int/min_int, -0., NaN
   of both signs, infinities — so equal pairs across the two
   representations come up often. *)
let value_hash_law =
  let p53 = 1 lsl 53 in
  let ints =
    [ 0; 1; -1; 3; p53 - 1; p53; p53 + 1; -(p53 - 1); -p53; -(p53 + 1); max_int; min_int ]
  in
  let floats =
    [ -0.; 0.5; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 2. ** 62.; -.(2. ** 62.) ]
  in
  let number =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> `I i) (oneofl ints);
          map (fun i -> `I i) small_signed_int;
          map (fun f -> `F f) (oneofl floats);
          map (fun f -> `F f) float;
        ])
  in
  let as_int = function `I i -> Value.Int i | `F f -> Value.Float f in
  let as_float = function `I i -> Value.Float (float_of_int i) | `F f -> Value.Float f in
  let value = QCheck2.Gen.(map2 (fun n int -> if int then as_int n else as_float n) number bool) in
  let twins = QCheck2.Gen.(map (fun n -> (as_int n, as_float n)) number) in
  let show = function
    | Value.Int i -> Printf.sprintf "Int %d" i
    | Value.Float f -> Printf.sprintf "Float %h" f
    | v -> Value.to_string v
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"equal values hash equal"
       ~print:(fun (a, b) -> show a ^ " / " ^ show b)
       QCheck2.Gen.(oneof [ pair value value; twins ])
       (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b))

let test_value_arith () =
  Alcotest.(check bool) "div by zero is null" true (Value.is_null (Value.div (Value.Int 1) (Value.Int 0)));
  Alcotest.(check bool) "mod by zero is null" true
    (Value.is_null (Value.modulo (Value.Int 1) (Value.Int 0)));
  Alcotest.(check bool) "null propagates" true (Value.is_null (Value.add Value.Null (Value.Int 1)));
  Alcotest.(check bool) "mixed promotes" true
    (Value.equal (Value.add (Value.Int 1) (Value.Float 0.5)) (Value.Float 1.5))

let test_value_csv_roundtrip () =
  let cases =
    [
      (Value.Tint, Value.Int 42);
      (Value.Tint, Value.Null);
      (Value.Tfloat, Value.Float 3.25);
      (Value.Tstring, Value.Str "hello");
      (Value.Tbool, Value.Bool true);
    ]
  in
  List.iter
    (fun (ty, v) ->
      let round = Value.of_csv_string ty (Value.to_csv_string v) in
      Alcotest.(check bool) (Value.to_string v) true (Value.equal round v && Value.is_null round = Value.is_null v))
    cases

(* --- Schema ----------------------------------------------------------- *)

let abc =
  Schema.of_list
    [ Schema.attr ~rel:"r" "a" Value.Tint; Schema.attr ~rel:"r" "b" Value.Tint; Schema.attr ~rel:"s" "a" Value.Tint ]

let test_schema_lookup () =
  Alcotest.(check int) "qualified" 2 (Schema.find abc ~rel:"s" "a");
  Alcotest.(check int) "bare unique" 1 (Schema.find abc "b");
  (match Schema.find abc "a" with
  | exception Schema.Ambiguous_attribute _ -> ()
  | _ -> Alcotest.fail "bare a should be ambiguous");
  (match Schema.find abc "zz" with
  | exception Schema.Unknown_attribute _ -> ()
  | _ -> Alcotest.fail "zz should be unknown");
  (match Schema.of_list [ Schema.attr "x" Value.Tint; Schema.attr "x" Value.Tint ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate attribute should be rejected")

let test_schema_fresh_name () =
  Alcotest.(check string) "fresh" "a_2" (Schema.fresh_name abc "a");
  Alcotest.(check string) "untouched" "zz" (Schema.fresh_name abc "zz")

let test_schema_rename () =
  let renamed = Schema.rename_rel "t" abc in
  Alcotest.(check int) "all requalified" 3
    (List.length (List.filter (fun a -> a.Schema.rel = "t") (Schema.to_list renamed)));
  Alcotest.(check bool) "rels" true (Schema.rels renamed = [ "t" ])

(* --- Expr ------------------------------------------------------------- *)

let rs =
  Schema.of_list [ Schema.attr ~rel:"r" "x" Value.Tint; Schema.attr ~rel:"r" "y" Value.Tint ]

let eval1 e row = Expr.compile rs e (Array.of_list row)

let test_expr_3vl () =
  let x = attr ~rel:"r" "x" and y = attr ~rel:"r" "y" in
  let v = eval1 (Expr.lt x y) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "cmp null -> unknown" true (Value.is_null v);
  let v = eval1 (Expr.and_ (Expr.lt x (Expr.int 0)) (Expr.lt x y)) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "false && unknown = false" true (Value.equal v (Value.Bool false));
  let v = eval1 (Expr.or_ (Expr.gt x (Expr.int 0)) (Expr.lt x y)) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "true || unknown = true" true (Value.equal v (Value.Bool true));
  let v = eval1 (Expr.Is_null y) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "is null" true (Value.equal v (Value.Bool true));
  let v = eval1 (Expr.Is_true (Expr.lt x y)) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "unknown is not true" true (Value.equal v (Value.Bool false));
  let v = eval1 (Expr.Not (Expr.Is_true (Expr.lt x y))) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "not(is-true unknown)" true (Value.equal v (Value.Bool true));
  let v = eval1 (Expr.Null_safe_eq (y, Expr.null)) [ Value.Int 1; Value.Null ] in
  Alcotest.(check bool) "null-safe eq" true (Value.equal v (Value.Bool true))

let test_expr_scoping () =
  (* Innermost frame wins for bare names; qualifiers disambiguate. *)
  let outer = Schema.of_list [ Schema.attr ~rel:"o" "x" Value.Tint ] in
  let inner = Schema.of_list [ Schema.attr ~rel:"i" "x" Value.Tint ] in
  let f = Expr.compile_frames [| outer; inner |] (attr "x") in
  let v = f [| [| Value.Int 1 |]; [| Value.Int 2 |] |] in
  Alcotest.(check bool) "bare resolves innermost" true (Value.equal v (Value.Int 2));
  let f = Expr.compile_frames [| outer; inner |] (attr ~rel:"o" "x") in
  let v = f [| [| Value.Int 1 |]; [| Value.Int 2 |] |] in
  Alcotest.(check bool) "qualified reaches outer" true (Value.equal v (Value.Int 1))

let test_expr_typecheck () =
  (match Expr.typecheck_bool [| rs |] (Expr.eq (attr ~rel:"r" "x") (Expr.str "s")) with
  | exception Value.Type_error _ -> ()
  | () -> Alcotest.fail "int = string should be rejected");
  (match Expr.typecheck_bool [| rs |] (attr ~rel:"r" "x") with
  | exception Value.Type_error _ -> ()
  | () -> Alcotest.fail "bare int is not a predicate");
  Expr.typecheck_bool [| rs |] (Expr.eq (attr ~rel:"r" "x") Expr.null)

let test_expr_split_equi () =
  let left = Schema.of_list [ Schema.attr ~rel:"l" "a" Value.Tint ] in
  let right = Schema.of_list [ Schema.attr ~rel:"r" "b" Value.Tint; Schema.attr ~rel:"r" "c" Value.Tint ] in
  let cond =
    Expr.conjoin
      [
        Expr.eq (attr ~rel:"l" "a") (attr ~rel:"r" "b");
        Expr.gt (attr ~rel:"r" "c") (Expr.int 0);
        Expr.ne (attr ~rel:"l" "a") (attr ~rel:"r" "c");
      ]
  in
  let key k = (k.Expr.left_col, k.Expr.right_col, k.Expr.null_safe) in
  let keys, residual = Expr.split_equi ~left ~right cond in
  Alcotest.(check (list (triple int int bool))) "one key" [ (0, 0, false) ] (List.map key keys);
  Alcotest.(check bool) "residual has two conjuncts" true
    (match residual with Some r -> List.length (Expr.conjuncts r) = 2 | None -> false);
  (* A [<=>] between one attribute of each side is a null-safe key; one
     over a computed operand stays in the residual. *)
  let cond =
    Expr.conjoin
      [
        Expr.Null_safe_eq (attr ~rel:"r" "c", attr ~rel:"l" "a");
        Expr.eq (attr ~rel:"l" "a") (attr ~rel:"r" "b");
        Expr.Null_safe_eq (attr ~rel:"l" "a", Expr.Arith (Expr.Add, attr ~rel:"r" "b", Expr.int 1));
      ]
  in
  let keys, residual = Expr.split_equi ~left ~right cond in
  Alcotest.(check (list (triple int int bool)))
    "null-safe and plain keys, in order" [ (0, 1, true); (0, 0, false) ] (List.map key keys);
  Alcotest.(check int) "computed <=> is residual" 1
    (match residual with Some r -> List.length (Expr.conjuncts r) | None -> 0)

let test_expr_utilities () =
  let e = Expr.and_ (Expr.eq (attr ~rel:"a" "x") (attr ~rel:"b" "y")) (Expr.gt (attr "z") (Expr.int 1)) in
  Alcotest.(check (list string)) "qualifiers" [ "a"; "b" ] (Expr.qualifiers e);
  Alcotest.(check int) "attrs" 3 (List.length (Expr.attrs e));
  let e' = Expr.rewrite_qualifier ~from_rel:"a" ~to_rel:"q" e in
  Alcotest.(check (list string)) "rewritten" [ "q"; "b" ] (Expr.qualifiers e');
  Alcotest.(check bool) "equal reflexive" true (Expr.equal e e);
  Alcotest.(check bool) "not equal" false (Expr.equal e e')

(* --- Operators --------------------------------------------------------- *)

let rel_of cols rows name =
  Relation.rename name
    (Relation.of_list
       (Schema.of_list (List.map (fun c -> Schema.attr c Value.Tint) cols))
       (List.map Array.of_list rows))

let join_props =
  let gen =
    QCheck2.Gen.pair
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15)
         (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15)
         (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
  in
  let cond =
    Expr.and_ (Expr.eq (attr ~rel:"l" "k") (attr ~rel:"r" "k"))
      (Expr.le (attr ~rel:"l" "v") (attr ~rel:"r" "v"))
  in
  let with_rels (lrows, rrows) f =
    f (rel_of [ "k"; "v" ] lrows "l") (rel_of [ "k"; "v" ] rrows "r")
  in
  (* The left input is the streamed probe side, the right the build. *)
  let join ?chunk_rows ?strategy kind cond l r =
    Chunk.Source.to_relation
      (Ops.join ?strategy ~kind cond ~build:r (Chunk.Source.of_relation ?chunk_rows l))
  in
  [
    Helpers.qtest "hash join = nested loop join" gen (fun db ->
        with_rels db (fun l r ->
            Relation.equal_as_multiset
              (join ~strategy:`Hash Ops.Inner cond l r)
              (join ~strategy:`Nested_loop Ops.Inner cond l r)));
    Helpers.qtest "nested-loop semi/anti = hash semi/anti" gen (fun db ->
        with_rels db (fun l r ->
            Relation.equal_as_multiset
              (join ~strategy:`Nested_loop Ops.Semi cond l r)
              (join ~strategy:`Hash Ops.Semi cond l r)
            && Relation.equal_as_multiset
                 (join ~strategy:`Nested_loop Ops.Anti cond l r)
                 (join ~strategy:`Hash Ops.Anti cond l r)));
    Helpers.qtest "hash outer join = nl outer join" gen (fun db ->
        with_rels db (fun l r ->
            Relation.equal_as_multiset
              (join ~strategy:`Hash Ops.Left_outer cond l r)
              (join ~strategy:`Nested_loop Ops.Left_outer cond l r)));
    (* [<=>] keys are null-safe: NULL matches NULL under every strategy,
       and a spilling join partitions a NULL key with its matches.  A
       probe side streamed in 2-row chunks gives the single-chunk output
       row for row, for every kind and strategy, and for product and
       diff_all. *)
    (let narrow =
       QCheck2.Gen.(frequency [ (1, return Value.Null); (3, map (fun i -> Value.Int i) (int_range 0 3)) ])
     in
     let side = QCheck2.Gen.(list_size (int_range 0 15) (list_repeat 2 narrow)) in
     let null_safe =
       Expr.and_
         (Expr.Null_safe_eq (attr ~rel:"l" "k", attr ~rel:"r" "k"))
         (Expr.le (attr ~rel:"l" "v") (attr ~rel:"r" "v"))
     in
     Helpers.qtest "<=> join: hash = spill = nested loop"
       (QCheck2.Gen.pair side side) (fun db ->
         with_rels db (fun l r ->
             let spilled kind =
               (Subql_storage.Spill.join ~partitions:3 ~budget:2 ~strategy:`Hash ~kind
                  ~cond:null_safe ~left:(Chunk.Source.of_relation l)
                  ~right:(Chunk.Source.of_relation r) ())
                 .Subql_storage.Spill.result
             in
             let chunked op =
               Helpers.equal_as_list
                 (Chunk.Source.to_relation (op (Chunk.Source.of_relation l)))
                 (Chunk.Source.to_relation (op (Chunk.Source.of_relation ~chunk_rows:2 l)))
             in
             let agree kind =
               let nl = join ~strategy:`Nested_loop kind null_safe l r in
               Relation.equal_as_multiset (join ~strategy:`Hash kind null_safe l r) nl
               && Relation.equal_as_multiset (spilled kind) nl
               && List.for_all
                    (fun strategy -> chunked (Ops.join ~strategy ~kind null_safe ~build:r))
                    [ `Hash; `Nested_loop ]
             in
             agree Ops.Inner && agree Ops.Left_outer && agree Ops.Semi && agree Ops.Anti
             && chunked (Ops.product ~build:r)
             && chunked (Ops.diff_all ~build:r))));
    Helpers.qtest "semi + anti partition the left" gen (fun db ->
        with_rels db (fun l r ->
            let semi = Chunk.Source.of_relation (join Ops.Semi cond l r)
            and anti = Chunk.Source.of_relation (join Ops.Anti cond l r) in
            Relation.equal_as_multiset l (Chunk.Source.to_relation (Ops.union_all semi anti))));
    Helpers.qtest "outer join covers every left row" gen (fun db ->
        with_rels db (fun l r ->
            let oj = join Ops.Left_outer cond l r in
            let keys = Helpers.whole (Ops.project_cols [ (Some "l", "k"); (Some "l", "v") ]) oj in
            let distinct x = Ops.group_by ~aggs:[] (Chunk.Source.of_relation x) in
            Relation.equal_as_multiset (distinct keys) (distinct l)));
    Helpers.qtest "diff_all cancels one-for-one" gen (fun (lrows, rrows) ->
        let l = rel_of [ "k"; "v" ] lrows "t" and r = rel_of [ "k"; "v" ] rrows "t" in
        let d = Helpers.whole (Ops.diff_all ~build:r) l in
        (* monus: |l - r| >= |l| - |r| and removing r again changes nothing new *)
        Relation.cardinality d >= Relation.cardinality l - Relation.cardinality r
        && Relation.cardinality d <= Relation.cardinality l);
  ]

let test_group_by () =
  let r =
    rel_of [ "k"; "v" ]
      Value.
        [
          [ Int 1; Int 10 ];
          [ Int 1; Int 20 ];
          [ Int 2; Null ];
          [ Null; Int 5 ];
          [ Null; Int 7 ];
        ]
      "t"
  in
  let g =
    Ops.group_by
      ~keys:[ (Some "t", "k") ]
      ~aggs:
        [
          Aggregate.count_star "n";
          Aggregate.sum (attr ~rel:"t" "v") "s";
          Aggregate.count (attr ~rel:"t" "v") "nv";
        ]
      (Chunk.Source.of_relation r)
  in
  Alcotest.(check int) "3 groups (NULL keys group together)" 3 (Relation.cardinality g);
  let by_key k =
    match
      Relation.fold (fun acc row -> if Value.equal row.(0) k then Some row else acc) None g
    with
    | Some row -> row
    | None -> Alcotest.failf "missing group %s" (Value.to_string k)
  in
  let g1 = by_key (Value.Int 1) in
  Alcotest.(check bool) "count" true (Value.equal g1.(1) (Value.Int 2));
  Alcotest.(check bool) "sum" true (Value.equal g1.(2) (Value.Int 30));
  let g2 = by_key (Value.Int 2) in
  Alcotest.(check bool) "sum of nulls is null" true (Value.is_null g2.(2));
  Alcotest.(check bool) "count of nulls is 0" true (Value.equal g2.(3) (Value.Int 0));
  let gn = by_key Value.Null in
  Alcotest.(check bool) "null group aggregates" true (Value.equal gn.(2) (Value.Int 12))

(* The global aggregate, GROUP BY over no keys, has exactly one row even
   on empty input — in memory and under a spill budget alike. *)
let test_global_aggregate_on_empty () =
  let r = rel_of [ "v" ] [] "t" in
  let aggs =
    [
      Aggregate.count_star "n";
      Aggregate.sum (attr ~rel:"t" "v") "s";
      Aggregate.min_ (attr ~rel:"t" "v") "mn";
      Aggregate.avg (attr ~rel:"t" "v") "av";
    ]
  in
  let check mode a =
    Alcotest.(check int) (mode ^ ": one row") 1 (Relation.cardinality a);
    let row = Relation.row a 0 in
    Alcotest.(check bool) (mode ^ ": count 0") true (Value.equal row.(0) (Value.Int 0));
    Alcotest.(check bool) (mode ^ ": sum null") true (Value.is_null row.(1));
    Alcotest.(check bool) (mode ^ ": min null") true (Value.is_null row.(2));
    Alcotest.(check bool) (mode ^ ": avg null") true (Value.is_null row.(3))
  in
  check "in memory" (Ops.group_by ~keys:[] ~aggs (Chunk.Source.of_relation r));
  check "spill budget 2"
    (Subql_storage.Spill.group_by ~budget:2 ~keys:[] ~aggs (Chunk.Source.of_relation r))
      .Subql_storage.Spill.result

let test_distinct_and_sort () =
  let r = rel_of [ "v" ] Value.[ [ Int 2 ]; [ Null ]; [ Int 1 ]; [ Int 2 ]; [ Null ] ] "t" in
  let src () = Chunk.Source.of_relation r in
  Alcotest.(check int) "distinct groups nulls" 3
    (Relation.cardinality (Ops.group_by ~aggs:[] (src ())));
  let sorted = Ops.sort ~by:[ ((Some "t", "v"), `Asc) ] (src ()) in
  Alcotest.(check bool) "nulls sort first" true (Value.is_null (Relation.row sorted 0).(0));
  let desc = Ops.sort ~by:[ ((Some "t", "v"), `Desc) ] (src ()) in
  Alcotest.(check bool) "desc" true (Value.equal (Relation.row desc 0).(0) (Value.Int 2))

let test_add_rownum_and_limit () =
  let r = rel_of [ "v" ] Value.[ [ Int 5 ]; [ Int 6 ]; [ Int 7 ] ] "t" in
  (* Two-row chunks: numbering must continue across chunk boundaries. *)
  let numbered =
    Chunk.Source.to_relation
      (Ops.add_rownum "rid" (Chunk.Source.of_relation ~chunk_rows:2 r))
  in
  Alcotest.(check bool) "rownum" true (Value.equal (Relation.row numbered 2).(1) (Value.Int 2));
  let limit n = Relation.cardinality (Ops.sort ~by:[] ~limit:n (Chunk.Source.of_relation r)) in
  Alcotest.(check int) "limit" 2 (limit 2);
  Alcotest.(check int) "limit over" 3 (limit 10)

(* --- Index ------------------------------------------------------------- *)

(* The row positions whose key equals [key] (a tuple of exactly the key
   columns), in insertion order. *)
let probe idx key =
  let acc = ref [] in
  Index.probe_row_iter idx key (Array.init (Array.length key) Fun.id) (fun i -> acc := i :: !acc);
  List.rev !acc

let test_index_null_exclusion () =
  let r = rel_of [ "k"; "v" ] Value.[ [ Int 1; Int 0 ]; [ Null; Int 1 ]; [ Int 1; Int 2 ] ] "t" in
  let idx = Index.build_rows (Relation.rows r) [| 0 |] in
  Alcotest.(check (list int)) "probe 1" [ 0; 2 ] (probe idx [| Value.Int 1 |]);
  Alcotest.(check (list int)) "probe null finds nothing" [] (probe idx [| Value.Null |]);
  Alcotest.(check int) "one distinct key" 1 (Index.cardinality idx)

(* Per-column null-safety: a [<=>] column finds its NULL rows, a plain
   [=] column never does — in the same index. *)
let test_index_null_safe () =
  let r =
    rel_of [ "a"; "b" ]
      Value.[ [ Null; Int 1 ]; [ Int 2; Null ]; [ Null; Int 1 ]; [ Null; Null ]; [ Int 2; Int 1 ] ]
      "t"
  in
  let idx = Index.build_rows ~null_safe:[| true; false |] (Relation.rows r) [| 0; 1 |] in
  Alcotest.(check (list int)) "NULL on the null-safe column" [ 0; 2 ]
    (probe idx Value.[| Null; Int 1 |]);
  Alcotest.(check (list int)) "NULL on the plain column" []
    (probe idx Value.[| Int 2; Null |]);
  Alcotest.(check (list int)) "plain key" [ 4 ] (probe idx Value.[| Int 2; Int 1 |]);
  Alcotest.(check bool) "find keeps a null-safe NULL" true (Index.find idx (Relation.row r 0) [| 0; 1 |] >= 0);
  Alcotest.(check int) "find drops a plain NULL" (-1) (Index.find idx (Relation.row r 1) [| 0; 1 |]);
  let all_plain = Index.build_rows (Relation.rows r) [| 0; 1 |] in
  Alcotest.(check (list int)) "all plain: NULL finds nothing" []
    (probe all_plain Value.[| Null; Int 1 |]);
  (* In place: the probe row's columns 2 and 0 are the key. *)
  let found = ref [] in
  Index.probe_row_iter idx Value.[| Int 1; Int 9; Null |] [| 2; 0 |] (fun i -> found := i :: !found);
  Alcotest.(check (list int)) "probe_row_iter reads the key in place" [ 0; 2 ] (List.rev !found)

(* Probe results come back in insertion order however the keys collide,
   and [cardinality] counts distinct keys (a null-safe NULL is one). *)
let test_index_order_and_cardinality () =
  let n = 200 in
  let rows = Array.init n (fun i -> [| (if i mod 7 = 0 then Value.Null else Value.Int (i mod 5)) |]) in
  let idx = Index.build_rows ~null_safe:[| true |] rows [| 0 |] in
  for k = 0 to 4 do
    let expected =
      List.filter (fun i -> i mod 7 <> 0 && i mod 5 = k) (List.init n Fun.id)
    in
    Alcotest.(check (list int)) (Printf.sprintf "key %d in insertion order" k) expected
      (probe idx [| Value.Int k |])
  done;
  Alcotest.(check (list int)) "NULL group in insertion order"
    (List.filter (fun i -> i mod 7 = 0) (List.init n Fun.id))
    (probe idx [| Value.Null |]);
  Alcotest.(check int) "five keys and NULL" 6 (Index.cardinality idx);
  Alcotest.(check int) "plain: NULL is no key" 5 (Index.cardinality (Index.build_rows rows [| 0 |]));
  (* Int and integral Float are one key. *)
  let mixed = Index.build_rows [| [| Value.Int 3 |]; [| Value.Float 3.0 |]; [| Value.Float 3.5 |] |] [| 0 |] in
  Alcotest.(check (list int)) "3 = 3.0" [ 0; 1 ] (probe mixed [| Value.Float 3.0 |]);
  Alcotest.(check int) "two distinct keys" 2 (Index.cardinality mixed);
  (* A built index numbers its groups in the order of their first rows,
     and a group's key row is its first row. *)
  let keyed = Array.map (fun k -> [| Value.Int k; Value.Int 0 |]) [| 3; 1; 3; 2; 1 |] in
  let idx = Index.build_rows keyed [| 0 |] in
  Alcotest.(check (list int)) "groups by first row" [ 0; 1; 0; 2; 1 ]
    (List.init 5 (Index.group_of idx));
  Alcotest.(check int) "find returns the group" 2 (Index.find idx [| Value.Int 2 |] [| 0 |]);
  Alcotest.(check bool) "first rows are the keys" true
    (Array.for_all2 ( == ) [| keyed.(0); keyed.(1); keyed.(3) |] (Index.keys idx))

(* --- Vec ---------------------------------------------------------------- *)

let test_vec () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  Alcotest.(check int) "fold" (4950 + 1000 - 42) (Vec.fold_left ( + ) 0 v);
  (match Vec.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of bounds");
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

(* --- CSV round trip ------------------------------------------------------ *)

let test_csv_roundtrip () =
  let r =
    Relation.of_list
      (Schema.of_list
         [
           Schema.attr ~rel:"t" "a" Value.Tint;
           Schema.attr ~rel:"t" "b" Value.Tstring;
           Schema.attr ~rel:"t" "c" Value.Tfloat;
         ])
      Value.
        [
          [| Int 1; Str "x"; Float 1.5 |];
          [| Null; Str "y"; Null |];
          [| Int (-3); Null; Float 0.25 |];
        ]
  in
  let path = Filename.temp_file "subql" ".csv" in
  Table_io.to_csv_file path r;
  let r' = Table_io.of_csv_file (Relation.schema r) path in
  Sys.remove path;
  Helpers.check_multiset_equal "csv roundtrip" r r'

let () =
  Alcotest.run "relational"
    [
      ("bool3", Alcotest.test_case "truth tables" `Quick test_bool3_tables :: bool3_props);
      ( "value",
        [
          Alcotest.test_case "compare/equal/hash" `Quick test_value_compare;
          Alcotest.test_case "canonical float printing" `Quick test_value_printing;
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "csv cells" `Quick test_value_csv_roundtrip;
          value_hash_law;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "fresh names" `Quick test_schema_fresh_name;
          Alcotest.test_case "rename" `Quick test_schema_rename;
        ] );
      ( "expr",
        [
          Alcotest.test_case "three-valued logic" `Quick test_expr_3vl;
          Alcotest.test_case "frame scoping" `Quick test_expr_scoping;
          Alcotest.test_case "typecheck" `Quick test_expr_typecheck;
          Alcotest.test_case "split equi" `Quick test_expr_split_equi;
          Alcotest.test_case "analysis utilities" `Quick test_expr_utilities;
        ] );
      ( "operators",
        [
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "aggregate over empty" `Quick test_global_aggregate_on_empty;
          Alcotest.test_case "distinct and sort" `Quick test_distinct_and_sort;
          Alcotest.test_case "rownum and limit" `Quick test_add_rownum_and_limit;
        ]
        @ join_props );
      ( "index",
        [
          Alcotest.test_case "null exclusion" `Quick test_index_null_exclusion;
          Alcotest.test_case "null-safe columns" `Quick test_index_null_safe;
          Alcotest.test_case "insertion order and cardinality" `Quick
            test_index_order_and_cardinality;
        ] );
      ("vec", [ Alcotest.test_case "basic operations" `Quick test_vec ]);
      ("io", [ Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip ]);
    ]
