(** Algorithm SubqueryToGMDJ (Section 3, Theorems 3.1–3.5).

    Translates a nested query expression into an extended-algebra
    expression whose subqueries have been replaced by GMDJs:

    + the predicate is negation-normalized ({!Subql_nested.Normalize});
    + every subquery becomes an [Md] wrapped around the base-values
      expression of its scope, with blocks and selection condition per
      Table 1 (counting is the central mechanism);
    + subqueries {e within} subqueries extend the detail expression with
      nested [Md]s, folding their count-conditions into the enclosing θ
      (Theorem 3.2) — so conjunctive {e and} disjunctive combinations
      work uniformly;
    + non-neighboring correlation predicates are legalized by pushing a
      distinct projection of the referenced outer relation down into the
      offending scope's base-values expression and chaining null-safe
      equality conditions back up (Theorems 3.3/3.4 — the only place
      joins/products enter the translation).

    The result is a regular algebraic expression: no nesting remains.

    Scope limitation: aggregate {e arguments} (the [y] of [f(y)]) may
    reference the subquery's own relation and the immediately enclosing
    scope; non-neighboring references are supported in correlation
    predicates and comparison operands, where the paper defines them. *)

open Subql_relational

exception Unsupported of string

val base_to_algebra : Subql_nested.Nested_ast.base -> Algebra.t
(** Translate a subquery-free relation expression. *)

val lower_tail : Subql_nested.Nested_ast.query -> Algebra.t -> Algebra.t
(** [lower_tail q rows] puts the query's SQL tail over [rows], a plan of
    its qualifying rows: the select list ([Project_rel]/[Project_cols]/
    [Project]), or GROUP BY/HAVING ([Group_by], with [keys = Some \[\]]
    for an aggregate without GROUP BY, then [Select], then [Project]);
    then, for DISTINCT, a [Group_by] on every column; then [Sort] for
    ORDER BY and LIMIT.  Every translation of a query ends with this. *)

val to_algebra : Subql_nested.Nested_ast.query -> Algebra.t
(** The full translation, including the final selection and the SQL
    tail ({!lower_tail}).
    The produced plan is unoptimized; see {!Optimize}.
    @raise Unsupported on a correlation the algorithm cannot place
    (e.g. a reference to an alias that is not in scope). *)

val where_condition : Subql_nested.Nested_ast.query -> Algebra.t * Expr.t
(** Expose the pre-selection pieces: the MD-wrapped base expression and
    the count-based condition replacing the WHERE clause.  [to_algebra]
    is [Select] of these plus the final projection. *)
