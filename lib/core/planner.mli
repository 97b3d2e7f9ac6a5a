(** Cost-based plan selection between the subquery evaluation
    strategies (the cost-based framework sketched in the paper's
    conclusion).

    For a nested query the planner enumerates the available complete
    plans — the optimized GMDJ translation, the classical semi-/anti-
    join unnesting when applicable ({!Unnest.via_semijoins}), and the
    general outer-join expansion ({!Unnest.via_joins}) — estimates each
    with {!Cost}, and picks the cheapest.  Every candidate computes the
    same result, so the choice only affects performance.  That every
    candidate is well typed and has the reference translation's schema
    is checked by the test suite, not at plan time. *)

open Subql_relational

type candidate = {
  label : string;  (** "gmdj", "semijoin-unnest", or "outerjoin-unnest" *)
  plan : Algebra.t;
  estimate : Cost.estimate;
}

val candidates :
  ?config:Eval.config ->
  ?stats:Cost.Stats.t ->
  Catalog.t ->
  Subql_nested.Nested_ast.query ->
  candidate list
(** All available plans with their estimates, cheapest first.  A
    translation that does not apply to the query offers no candidate;
    the GMDJ plan is always present.  [stats] defaults to
    [Cost.Stats.of_catalog catalog]; pass them when the caller needs
    them too, so the catalog is summarized once. *)

val choose :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> candidate
(** The cheapest candidate.  Publishes its {!Cost.memory_height} as the
    ["planner.last_memory_height"] gauge (from the same statistics the
    ranking used). *)

type feedback = {
  candidate : candidate;  (** the plan that ran *)
  actual_rows : int;
  q_error : float;
      (** [max(est/actual, actual/est)] with both clamped to ≥ 1 — the
          standard cardinality-estimation error factor *)
}
(** Cost-model feedback: what the planner predicted vs what happened.
    Recorded into {!Subql_obs.Metrics.default} (["planner.runs"],
    ["planner.chosen.<label>"], ["planner.last_estimated_rows"],
    ["planner.last_actual_rows"], and the ["planner.q_error"]
    histogram) so estimation error is measurable across a workload. *)

val run_with_feedback :
  ?config:Eval.config ->
  Catalog.t ->
  Subql_nested.Nested_ast.query ->
  Relation.t * feedback
(** Choose, evaluate, and report estimated-vs-actual for the chosen
    plan. *)

val run :
  ?config:Eval.config -> Catalog.t -> Subql_nested.Nested_ast.query -> Relation.t
(** Choose and evaluate ([run_with_feedback] minus the report). *)
