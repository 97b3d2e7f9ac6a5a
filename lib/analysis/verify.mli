(** The rewrite verifier: rewrites must preserve the inferred schema and
    may only {e narrow} nullability.

    Every plan rewrite in the repository — the {!Subql.Optimize} passes,
    the planner's alternative translations, and the cross-query GMDJ
    merges of [Subql_mqo.Share] — claims semantic equivalence.  This
    module checks the two static facts that equivalence implies:

    - [VER001] {e schema drift}: the output schema (bare names and
      types, positionally) changed;
    - [VER002] {e widened nullability}: a column the input proved
      non-NULL is only [Maybe_null] after the rewrite (the reverse —
      narrowing — is expected: e.g. completion turns a selection over a
      count column into a plan whose survivors are known non-NULL).

    Callers run the checks directly: {!Analyze.analyze_query} verifies
    the optimizer's rewrite of every query it analyzes, [Subql_mqo.Share]
    verifies its merges, and the test suite runs {!check_candidate} over
    every planner candidate of the query zoo. *)

open Subql_relational

val check_rewrite :
  Typing.env ->
  label:string ->
  before:Subql.Algebra.t ->
  after:Subql.Algebra.t ->
  Diag.t list
(** Verify one rewrite.  Sorted diagnostics; empty means verified.
    Besides [VER001]/[VER002], any error-severity diagnostic the
    {e rewritten} plan triggers that the original did not is reported
    (a rewrite must not manufacture ill-typed plans).  When the
    {e input} already fails to type, the rewrite is not judged. *)

val check_candidate :
  Catalog.t ->
  Subql_nested.Nested_ast.query ->
  label:string ->
  Subql.Algebra.t ->
  Diag.t list
(** The verdict for one planner candidate: the candidate's own
    error-severity typing diagnostics, plus [VER001] if its schema
    disagrees with the reference GMDJ translation of the query. *)
