(* Algebraic laws of the GMDJ (Section 3.2/4 of the paper), validated as
   executable properties over random relations:

   - Thm 3.3:  MD(B, R, l, θ) and MD(B, B ⋈_θ' R, l, θ∧…) — we check the
     practical form used by the translation: embedding a distinct copy of
     B's columns into the detail and matching them null-safely in θ
     changes nothing.
   - Thm 3.4:  T ⋈_C MD(B, R, l, θ)  =  MD(T ⋈_C B, R, l, θ).
   - MD commutes with selections on its base (the optimizer's push-up).
   - Prop 4.1: chained GMDJs over the same detail = one coalesced GMDJ.
   - MD commutes with independent MDs (GMDJ reordering). *)

open Subql_relational
open Subql_gmdj

let attr = Expr.attr

let mk_rel name cols rows =
  Relation.of_list
    (Schema.of_list (List.map (fun c -> Schema.attr ~rel:name c Value.Tint) cols))
    (List.map Array.of_list rows)

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
  let after = Ops.join ~kind:Ops.Inner join_cond t (Helpers.gmdj ~base:b ~detail:r blocks) in
  let before = Helpers.gmdj ~base:(Ops.join ~kind:Ops.Inner join_cond t b) ~detail:r blocks in
  Relation.equal_as_multiset after before

(* Selection on the base commutes with the GMDJ. *)
let select_commutes (_, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let pred = Expr.gt (attr ~rel:"B" "x") (Expr.int 0) in
  let select_then_md = Helpers.gmdj ~base:(Ops.select pred b) ~detail:r blocks in
  let md_then_select = Ops.select pred (Helpers.gmdj ~base:b ~detail:r blocks) in
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
    Ops.project_cols [ (Some "B", "k"); (Some "B", "x"); (None, "cr"); (None, "ct") ] rel
  in
  Relation.equal_as_multiset (norm rt) (norm tr)

(* Thm 3.3 in the form the translation uses: embedding a distinct copy
   of the referenced base columns into the detail and matching them
   null-safely leaves the counts unchanged. *)
let push_down_embedding (_, rrows, brows) =
  let b = mk_rel "B" [ "k"; "x" ] brows in
  let r = mk_rel "R" [ "k"; "y" ] rrows in
  let plain = Helpers.gmdj ~base:b ~detail:r blocks in
  let pushed_b = Relation.rename "P" (Ops.distinct b) in
  let widened = Ops.product pushed_b r in
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
        ] );
    ]
