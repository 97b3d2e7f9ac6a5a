(* Algebraic laws of the GMDJ (Section 3.2/4 of the paper), validated as
   executable properties over random relations:

   - Thm 3.3:  MD(B, R, l, θ) and MD(B, B ⋈_θ' R, l, θ∧…) — we check the
     practical form used by the translation: embedding a distinct copy of
     B's columns into the detail and matching them null-safely in θ
     changes nothing.
   - Thm 3.4:  T ⋈_C MD(B, R, l, θ)  =  MD(T ⋈_C B, R, l, θ).
   - MD commutes with selections on its base (the optimizer's push-up).
   - Prop 4.1: chained GMDJs over the same detail = one coalesced GMDJ.
   - MD commutes with independent MDs (GMDJ reordering).
   - Key factorization: δπ_{K∪aggs} MD(B, R, l, θ) = MD(δπ_K B, R, l, θ)
     when K holds every base column θ and l read, and δπ distributes
     over a product whose sides both keep a key column. *)

open Subql_relational
open Subql_gmdj

let attr = Expr.attr

let mk_rel name cols rows =
  Relation.of_list
    (Schema.of_list (List.map (fun c -> Schema.attr ~rel:name c Value.Tint) cols))
    (List.map Array.of_list rows)

(* DISTINCT is the zero-aggregate GROUP BY on every column. *)
let distinct r = Ops.group_by ~aggs:[] (Chunk.Source.of_relation r)

let dp cols r = distinct (Helpers.whole (Ops.project_cols cols) r)

let gen3 =
  QCheck2.Gen.triple
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 10)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 14)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 8)
       (QCheck2.Gen.list_repeat 2 Helpers.Gen.value_with_nulls))

let theta = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k")

let blocks =
  [
    Gmdj.block
      [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
      (Expr.and_ theta (Expr.gt (attr ~rel:"R" "y") (attr ~rel:"B" "x")));
  ]

(* Thm 3.4: joining T onto the base before or after the GMDJ is the
   same, as long as the join condition ranges over T and B only. *)
let thm_3_4 (trows, rrows, brows) =
  let t = mk_rel "T" [ "k"; "z" ] trows in
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let join_cond = Expr.eq (attr ~rel:"T" "k") (attr ~rel:"B" "k") in
  let join right = Helpers.whole (Ops.join ~kind:Ops.Inner join_cond ~build:right) t in
  let after = join (Helpers.gmdj ~base:b ~detail:r blocks) in
  let before = Helpers.gmdj ~base:(join b) ~detail:r blocks in
  Relation.equal_as_multiset after before

(* Selection on the base commutes with the GMDJ. *)
let select_commutes (_, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let pred = Expr.gt (attr ~rel:"B" "x") (Expr.int 0) in
  let select_then_md = Helpers.gmdj ~base:(Helpers.whole (Ops.select pred) b) ~detail:r blocks in
  let md_then_select = Helpers.whole (Ops.select pred) (Helpers.gmdj ~base:b ~detail:r blocks) in
  Relation.equal_as_multiset select_then_md md_then_select

(* Prop 4.1: chaining two GMDJs over the same detail equals one GMDJ
   with both block lists. *)
let coalescing_law (_, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let b1 = Gmdj.block [ Aggregate.count_star "c1" ] theta in
  let b2 =
    Gmdj.block
      [ Aggregate.max_ (attr ~rel:"R" "y") "m2" ]
      (Expr.ne (attr ~rel:"B" "k") (attr ~rel:"R" "k"))
  in
  let chained = Helpers.gmdj ~base:(Helpers.gmdj ~base:b ~detail:r [ b1 ]) ~detail:r [ b2 ] in
  let merged = Helpers.gmdj ~base:b ~detail:r [ b1; b2 ] in
  Relation.equal_as_multiset chained merged

(* Independent GMDJs over different details commute (modulo column
   order, which we normalize by sorting the projection). *)
let md_commute (trows, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let t = mk_rel "T" [ "k"; "z" ] trows in
  let blk_r = Gmdj.block [ Aggregate.count_star "cr" ] theta in
  let blk_t =
    Gmdj.block [ Aggregate.count_star "ct" ] (Expr.eq (attr ~rel:"B" "k") (attr ~rel:"T" "k"))
  in
  let rt = Helpers.gmdj ~base:(Helpers.gmdj ~base:b ~detail:r [ blk_r ]) ~detail:t [ blk_t ] in
  let tr = Helpers.gmdj ~base:(Helpers.gmdj ~base:b ~detail:t [ blk_t ]) ~detail:r [ blk_r ] in
  let norm rel =
    Helpers.whole
      (Ops.project_cols [ (Some "B", "k"); (Some "B", "x"); (None, "cr"); (None, "ct") ])
      rel
  in
  Relation.equal_as_multiset (norm rt) (norm tr)

(* Thm 3.3 in the form the translation uses: embedding a distinct copy
   of the referenced base columns into the detail and matching them
   null-safely leaves the counts unchanged. *)
let push_down_embedding (_, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let plain = Helpers.gmdj ~base:b ~detail:r blocks in
  let pushed_b = Relation.rename "P" (distinct b) in
  let widened = Helpers.whole (Ops.product ~build:r) pushed_b in
  let match_b =
    Expr.and_
      (Expr.Null_safe_eq (attr ~rel:"B" "k", attr ~rel:"P" "k"))
      (Expr.Null_safe_eq (attr ~rel:"B" "x", attr ~rel:"P" "x"))
  in
  let blocks' =
    List.map (fun blk -> { blk with Gmdj.theta = Expr.and_ blk.Gmdj.theta match_b }) blocks
  in
  let embedded = Helpers.gmdj ~base:b ~detail:widened blocks' in
  Relation.equal_as_multiset plain embedded

(* Values from a four-element domain plus NULL, so that keys repeat. *)
let dup_value =
  QCheck2.Gen.(
    frequency [ (1, return Value.Null); (5, map (fun i -> Value.Int i) (int_range 0 3)) ])

let dup_rows arity max = QCheck2.Gen.(list_size (int_range 0 max) (list_repeat arity dup_value))

let gen_factor = QCheck2.Gen.pair (dup_rows 3 12) (dup_rows 2 14)

(* Key factorization.  B carries a column w no block reads; K = {k, x}.
   The blocks mix an [=] key, a [<=>] key and residuals over K; the
   aggregates over detail columns are functions of a base tuple's K
   values, so the GMDJ over the distinct K-projection of B is the
   distinct projection of the full GMDJ onto K and the aggregates. *)
let key_factorization (brows, rrows) =
  let b = mk_rel "B" [ "k"; "x"; "w" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let blocks =
    [
      Gmdj.block
        [ Aggregate.count_star "c1"; Aggregate.sum (attr ~rel:"R" "y") "s1" ]
        (Expr.and_ theta (Expr.gt (attr ~rel:"R" "y") (attr ~rel:"B" "x")));
      Gmdj.block
        [ Aggregate.count_star "c2"; Aggregate.max_ (attr ~rel:"R" "k") "m2" ]
        (Expr.conjoin
           [
             Expr.Null_safe_eq (attr ~rel:"B" "x", attr ~rel:"R" "y");
             Expr.ge (attr ~rel:"R" "k") (attr ~rel:"B" "k");
             Expr.ne (attr ~rel:"B" "k") (attr ~rel:"B" "x");
           ]);
    ]
  in
  let keys = [ (Some "B", "k"); (Some "B", "x") ] in
  let full = Helpers.gmdj ~base:b ~detail:r blocks in
  let projected = dp (keys @ List.map (fun n -> (None, n)) [ "c1"; "s1"; "c2"; "m2" ]) full in
  let factored = Helpers.gmdj ~base:(dp keys b) ~detail:r blocks in
  Relation.equal_as_multiset projected factored

(* δπ through a product: with a key column on each side,
   δπ_{K_l ∪ K_r}(L × R) = δπ_{K_l} L × δπ_{K_r} R, empty sides included.
   A side with no key column must stay: π_{K_l}(L × ∅) is empty, not
   δπ_{K_l} L, so only keeping R leaves the set of K values unchanged. *)
let distinct_through_product (lrows, rrows) =
  let l = mk_rel "L" [ "k"; "x"; "w" ] lrows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let product a b = Helpers.whole (Ops.product ~build:b) a in
  let lk = [ (Some "L", "k"); (Some "L", "x") ] and rk = [ (Some "R", "y") ] in
  let both_sides = dp (lk @ rk) (product l r) in
  let split = product (dp lk l) (dp rk r) in
  let one_side = dp lk (product l r) in
  let kept = dp lk (product (dp lk l) r) in
  let dropped = dp lk l in
  Relation.equal_as_multiset both_sides split
  && Relation.equal_as_multiset one_side kept
  && Relation.equal_as_multiset one_side dropped
     = (Relation.is_empty l || not (Relation.is_empty r))

let () =
  Alcotest.run "laws"
    [
      ( "gmdj-algebra",
        [
          Helpers.qtest ~count:150 "Thm 3.4: join pushes through the base" gen3 thm_3_4;
          Helpers.qtest ~count:150 "selection commutes with MD" gen3 select_commutes;
          Helpers.qtest ~count:150 "Prop 4.1: coalescing" gen3 coalescing_law;
          Helpers.qtest ~count:150 "independent MDs commute" gen3 md_commute;
          Helpers.qtest ~count:150 "Thm 3.3: push-down embedding" gen3 push_down_embedding;
          Helpers.qtest ~count:300 "key factorization" gen_factor key_factorization;
          Helpers.qtest ~count:300 "distinct projection through a product" gen_factor
            distinct_through_product;
        ] );
    ]
