(** Delta-maintainability effect analysis (the [ING00x] namespace).

    Decides statically whether a plan's GMDJ, plain or completed, can
    absorb appended detail rows by folding them into its live fold
    state (aggregate slots and completion verdicts) — the
    incremental-maintenance property [Subql_ingest.Maintenance] relies
    on — and when it can, compiles the proof into a runnable
    {!maintainable.delta_pipeline}: the detail side's row-local operator
    chain as a streaming [Chunk.Source] transformer, applied to each
    append delta.

    The analysis widens the maintained class from the previous
    "detail is a bare table scan" pattern match to the full row-local
    closure: any [Rename] / [Select] / [Project] / [Project_cols] /
    [Project_rel] chain over a single base table.  The
    refusal cases each carry an explanatory diagnostic:

    - [ING001] (info): no GMDJ, several GMDJs, or the detail table also
      feeds the base side — an append does not reduce to a suffix fold;
    - [ING003] (info): the detail side contains a position-dependent or
      stateful operator ([Add_rownum], DISTINCT, joins, nested GMDJs) —
      its output on [prefix ++ delta] is not
      [output(prefix) ++ output(delta)].

    All diagnostics are [Info] severity: an unmaintainable plan is not
    wrong, it just recomputes on append. *)

open Subql_relational

type maintainable = {
  md_node : Subql.Algebra.t;  (** the [Md] node, by physical identity *)
  base_plan : Subql.Algebra.t;
  detail_plan : Subql.Algebra.t;
  detail_table : string;  (** the single base table feeding the detail side *)
  blocks : Subql_gmdj.Gmdj.block list;
  completion : Subql_gmdj.Gmdj.completion option;
      (** the node's completion: a completed GMDJ is maintained with its
          kill/require verdicts, which appends only ever move one way *)
  delta_pipeline : Chunk.Source.t -> Chunk.Source.t;
      (** The detail chain as a stream transformer: feed it a source of
          raw appended [detail_table] rows and it yields the rows the
          GMDJ's accumulators must fold.  Row-local by construction, so
          running it on the delta alone equals the suffix of running it
          on the whole table. *)
}

type verdict = { maintainable : maintainable option; diags : Diag.t list }
(** [maintainable = Some _] iff [diags] carries no refusal; the two are
    mutually exclusive by construction. *)

val analyze : Subql.Algebra.t -> verdict
(** The delta-maintainability verdict for an (optimized) plan. *)
