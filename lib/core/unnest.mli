(** Conventional join/outer-join subquery unnesting — the baseline the
    paper compares against (Kim / Dayal / Muralikrishna / magic
    decorrelation lineage).

    Two translations are provided:

    - {!via_semijoins} — the classical plans: EXISTS and quantified
      subqueries in conjunctive position become semi-/anti-joins;
      scalar and aggregate comparisons become row-numbered left outer
      joins with grouping (including the classic COUNT-bug fix: counts
      are taken over a non-null marker column, never count-star, so an
      empty range yields 0 rather than 1).  Raises {!Not_applicable} on
      shapes the classical rewriting does not cover (disjunctions,
      nested or non-neighboring correlations).
    - {!via_joins} — a general unnesting: the query is first translated
      by {!Transform} and every GMDJ is then expanded into
      row-numbered outer joins + GROUP BY + back-joins.  Covers exactly
      the class the GMDJ algorithm covers, with join-based plans.

    {!best} tries the classical plans first and falls back to the
    general expansion. *)

open Subql_relational

exception Not_applicable of string

val via_semijoins : Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t
(** @raise Not_applicable when the query is not a conjunction of plain
    atoms and one-level, at-most-neighboring subqueries. *)

val md_to_joins : lookup:(string -> Schema.t) -> Algebra.t -> Algebra.t
(** Replace every [Md] node by an equivalent join/outer-join/group-by
    subplan.  The input must not contain completed [Md] nodes (expand
    before optimizing). *)

val via_joins : Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t

val best : Catalog.t -> Subql_nested.Nested_ast.query -> Algebra.t
