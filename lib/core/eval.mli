(** Evaluation of extended-algebra expressions against a catalog.

    The configuration selects physical strategies without changing
    results: [`Hash] joins model the paper's "all important attributes
    were indexed" setting, [`Nested_loop] the index-free ablation; the
    GMDJ strategy selects between the plain single scan and the
    hash-partitioned single scan. *)

open Subql_relational
open Subql_gmdj

type config = {
  join_strategy : Ops.join_strategy;
  gmdj_strategy : Gmdj.strategy;
  domains : int;
      (** Degree of parallelism for pipeline breakers and GMDJ: with
          [domains > 1] the executor runs them over a
          {!Subql_relational.Chunk.Exchange} — the coordinator pulls the
          input stream (storage scans and buffer pools stay
          single-domain) and routes chunks to that many worker domains;
          GMDJ merges their states, GROUP BY concatenates their
          key-disjoint results.  [1] (the default)
          keeps every operator on the calling domain.  Results are
          identical up to row order: a GMDJ whose blocks hold an
          order-sensitive aggregate ({!Subql_relational.Aggregate.order_sensitive})
          runs on one domain, and [Group_by] routes each key to one
          domain in arrival order. *)
  spill_budget_rows : int option;
      (** When set, pipeline breakers (DISTINCT, GROUP BY, equi-joins)
          run their spillable variants ({!Subql_storage.Spill}): resident
          hash state freezes at this many rows and the overflow is
          hash-partitioned to temp heap files, merged in a second pass —
          so a breaker over detail-sized input degrades to I/O instead
          of memory.  Takes precedence over [domains] at the breakers
          (spilling runs on the coordinator); GMDJ never spills (its
          state is |B|-bounded) and still parallelizes. *)
}

val default_config : config
(** Hash joins, hash GMDJ, serial ([domains = 1]), no spilling. *)

val node_label : Algebra.t -> string
(** Display label of the operator (with predicate/column detail), as it
    appears in EXPLAIN output. *)

val unindexed_config : config
(** Nested-loop joins, scan GMDJ. *)

(** {1 Streaming execution}

    All entry points run one shared executor skeleton.  Operators
    exchange pull-based chunk streams ({!Subql_relational.Chunk.Source.t}):
    Select / Project / Rename / Add_rownum / Union_all and the GMDJ
    detail side are fully pipelined; Join, Product and Diff_all hold
    their right input and stream their left (a spilling Join collects
    both up to its budget); Group_by (GROUP BY, DISTINCT and the global
    aggregate) folds its input into hash state; Sort and the GMDJ base side are
    materialized.  Every run publishes ["eval.chunks"] (chunks pulled
    through operator boundaries) and ["eval.peak_materialized_rows"]
    (high-water mark of rows the executor held materialized) into
    {!Subql_obs.Metrics.default}. *)

val eval :
  ?config:config ->
  ?gmdj_stats:Gmdj.stats ->
  ?override:(Algebra.t -> Relation.t option) ->
  Catalog.t ->
  Algebra.t ->
  Relation.t
(** [gmdj_stats], when provided, accumulates over every [Md] node
    evaluated, completed or not.

    [override], when provided, is consulted at every node before
    evaluation; [Some r] short-circuits the whole subtree with [r].  The
    multi-query layer ([Subql_mqo]) uses this to splice shared GMDJ
    results into several queries' plans: each plan references the same
    physical combined node, and the override memoizes its single
    evaluation.  An override result whose schema contradicts the node's
    inferred schema is rejected with a {!Subql_relational.Diag.Fail}
    (code [EVL001]); nodes whose schema cannot be inferred fall back to
    the caller's contract. *)

type source_provider = string -> Chunk.Source.t option
(** Where table scans come from.  [Some src] streams the named table
    (e.g. {!Subql_storage.Heap_file.source} pages through a buffer
    pool) instead of the catalog relation; the provider must return a
    {e fresh} source on every call — a table referenced twice is
    scanned twice.

    A source that can project ({!Subql_relational.Chunk.Source.narrow})
    is narrowed, before its first pull, to the columns the plan reads:
    every column an operator above the scan references, or all of them
    under a positional or whole-row operator (UNION ALL, EXCEPT ALL,
    DISTINCT).  A heap-file scan then decodes only those columns.  The
    analysis runs once per evaluation, and only when such a source
    appears.  A provider that wraps a heap-file source in
    [Chunk.Source.create] (to trace or count its pulls, say) forfeits
    the capability unless it passes a [narrow] of its own. *)

type exec_report = {
  chunks : int;  (** chunks pulled through operator boundaries *)
  peak_materialized_rows : int;
      (** high-water mark of rows held materialized by the executor:
          pipeline-breaker state and collected outputs; catalog
          relations and storage pages are not charged *)
}

val eval_exec :
  ?config:config ->
  ?gmdj_stats:Gmdj.stats ->
  ?sources:source_provider ->
  Catalog.t ->
  Algebra.t ->
  Relation.t * exec_report
(** {!eval} with externalized table scans and the run's memory/chunk
    accounting.  With a heap-file provider, a plan whose blocking state
    is small (e.g. a GMDJ over a large detail table) completes with
    peak memory independent of the detail cardinality. *)

val schema : Catalog.t -> Algebra.t -> Schema.t

(** {1 Instrumented evaluation (EXPLAIN ANALYZE)} *)

val eval_analyzed :
  ?config:config ->
  ?registry:Subql_obs.Metrics.t ->
  Catalog.t ->
  Algebra.t ->
  Relation.t * Subql_obs.Explain.node
(** Evaluate with every operator instrumented: the returned tree mirrors
    the plan and annotates each operator with rows-in/rows-out,
    invocation count, self time, buffer-pool hit/read deltas, and — on
    [Md] nodes — the GMDJ scan statistics
    (["detail-scans"], ["detail-rows"], ["theta-evals"],
    ["block-updates"], ["early-exit"]), making Prop. 4.1 coalescing
    visible as "1 detail scan vs k".  Each operator also runs inside a
    {!Subql_obs.Trace} span (named by the operator, with a ["rows"]
    attribute) so [--trace] exports line up with the plan, and publishes
    per-operator totals into [registry] (default
    {!Subql_obs.Metrics.default}) under ["eval.*"]. *)
