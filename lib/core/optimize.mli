(** GMDJ optimizations for subquery plans (Section 4).

    - {e Coalescing} (Prop. 4.1): a chain of GMDJs over the same detail
      occurrence merges into a single GMDJ — multiple subqueries over
      one table are then evaluated in a single scan of that table.
      Includes the selection push-up variant of Example 4.1 (a
      count-selection sitting between two coalescible GMDJs is hoisted
      above the merged operator; valid because the GMDJ extends rows
      independently, so it commutes with selection on its base).
    - {e Selection push-down}: adjacent selections merge; selections
      over products and inner joins distribute their single-side
      conjuncts and turn residual product conditions into joins; and
      selections whose conjuncts mention only base-side aliases commute
      below a GMDJ (the law tested in the algebra suite) — so join
      predicates of a multi-relation FROM filter the base-values table
      before the detail scan, and the remaining count-conditions are
      left in shape for completion.
    - {e Completion} (Thms 4.1/4.2): a selection over count columns of a
      GMDJ is compiled into kill / require-fired rules evaluated inside
      the scan (the [Md] node's [completion]); when the surrounding projection also
      discards the aggregate columns, aggregate maintenance is skipped
      entirely and the scan can terminate as soon as every base tuple is
      decided.
    - {e Key factorization}, in the completion phase: an aggregate-free
      completion over an inner GMDJ reads that GMDJ only as a set, and
      every aggregate of a base tuple is a function of the base columns
      K its blocks read, so [δπ_{K∪aggs} MD(B, R, l, θ) = MD(δπ_K B, R,
      l, θ)].  With K also holding the base columns the completion
      reads, the inner base becomes [δπ_K] (a zero-aggregate
      [Group_by] on K), pushed
      into each side of a product (a side reading no key column stays
      as it is) — the push-down's [distinct(outer cols) × I] base of
      Thms 3.3/3.4 is never materialized at full size.  Detail-only
      conjuncts common to every completion and block θ are first hoisted
      into the inner base, so their columns leave K. *)

type flags = { coalesce : bool; pushdown : bool; completion : bool }

val all : flags

val none : flags

val only : ?coalesce:bool -> ?pushdown:bool -> ?completion:bool -> unit -> flags
(** All flags default to [false]. *)

val optimize : ?flags:flags -> Algebra.t -> Algebra.t
(** Apply the enabled rewrites bottom-up to a fixpoint.  Semantics are
    preserved for every flag combination. *)

val requalify_blocks :
  from_alias:string ->
  to_alias:string ->
  Subql_gmdj.Gmdj.block list ->
  Subql_gmdj.Gmdj.block list
(** Rewrite every θ and aggregate argument of the blocks to reference the
    detail relation under a different alias — the alias adjustment of the
    Prop. 4.1 merge, exported for the cross-query sharing layer which
    performs the same merge over GMDJs from {e different} queries. *)
