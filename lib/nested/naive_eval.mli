(** Tuple-iteration evaluation of nested queries — the "native" baseline.

    For every base row the subqueries are re-evaluated over their source
    relations, exactly as a DBMS without unnesting would.  Two variants
    model the behaviours observed in the paper's experiments:

    - [Plain] — a pure nested loop: the full inner relation is scanned
      for every outer row, with no early termination.
    - [Smart] — the vendor tricks the paper attributes to its target
      DBMS: uncorrelated conjuncts of the inner WHERE are hoisted and
      applied once ("reusing invariants"), an index is built over the
      inner relation on equi-correlation attributes when one exists, and
      EXISTS / quantifier evaluation terminates early (the "smart nested
      loop" that discards a tuple at the first ALL violation).

    Both variants implement the same dialect semantics as the other
    engines (the predicate is negation-normalized first).  The SQL tail
    (select list or GROUP BY / HAVING, DISTINCT, ORDER BY, LIMIT) is
    applied to the qualifying rows with the whole-relation {!Ops}
    operators — independently of the algebra's lowering of it. *)

open Subql_relational

type mode = Plain | Smart

type stats = {
  mutable subquery_invocations : int;  (** inner-loop entries *)
  mutable inner_rows_examined : int;  (** candidate inner rows touched *)
}

val fresh_stats : unit -> stats

val eval_base : Catalog.t -> Nested_ast.base -> Relation.t
(** Evaluate a subquery-free relation expression (unaliased). *)

val eval : ?mode:mode -> ?stats:stats -> Catalog.t -> Nested_ast.query -> Relation.t
