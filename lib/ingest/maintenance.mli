(** Incremental maintenance planning for cached GMDJ results.

    The planner tracks registered query plans (one per fingerprint: the
    plan the result cache serves under it) and, when ingest bumps the
    epoch ({!Subql_relational.Catalog.epoch}) of a table a plan reads,
    brings that plan's cached result up to date by the cheaper route:

    - {b delta maintenance} — the only changed dependency is the plan's
      GMDJ detail table, and the append being synced is the only
      registration of it since the view's last sync: the appended batch
      is streamed through the view's
      {!Subql_analysis.Deltaable.maintainable.delta_pipeline} — the
      detail side's row-local operator chain — into the live fold state
      (accumulators and, for a completed GMDJ, its kill/require
      verdicts) via {!Subql_gmdj.Gmdj.Maintain.insert_source}, and the plan
      re-answered by splicing the maintained MD result in via
      [Eval.eval ~override];
    - {b full recompute} — everything else, with the rebuilt accumulator
      state serving the recomputation scan for maintainable plans.

    A plan none of whose tables moved needs nothing: its cached entry is
    still current.  The delta-vs-recompute choice is cost-based: the
    delta fold is priced per row per block against
    {!Subql.Cost.estimate} of the MD node.  Repairs go through
    {!Subql_mqo.Result_cache.repair}, so warm entries survive appends in
    place instead of being dropped and rebuilt on the next miss.
    Decisions are counted under ["ingest.maintain.delta" / "recompute"]. *)

open Subql_relational
open Subql_mqo

type t

type report = {
  views : int;  (** registered plans considered *)
  delta_maintained : int;
  recomputed : int;
  delta_rows : int;  (** detail rows folded by delta maintenance *)
  avoided_rows : int;  (** scan rows delta maintenance saved *)
}

val create :
  ?config:Subql.Eval.config ->
  ?delta_row_cost:float ->
  ?registry:Subql_obs.Metrics.t ->
  catalog:Catalog.t ->
  cache:Result_cache.t ->
  unit ->
  t
(** [delta_row_cost] (default [4.]) prices one delta row folded through
    one block, in the cost model's tuple-operation units. *)

val register_query : t -> Subql_nested.Nested_ast.query -> bool
(** Track the query's [Batch.solo_plan] — the plan the cache serves —
    under its [Batch.fingerprint]; [false] if already tracked.
    Dependencies are snapshotted at the current epochs, so a plan
    registered after an append is not spuriously recomputed. *)

val is_maintainable : t -> fingerprint:string -> bool
(** Whether {!Subql_analysis.Deltaable.analyze} certified the plan for
    delta maintenance: exactly one MD node, plain or completed, and a
    detail side that is a row-local operator chain
    ([Rename]/[Select]/[Project]/non-distinct
    [Project_cols]/[Project_rel]) over one base table the base side
    does not read. *)

val why_not_maintainable : t -> fingerprint:string -> Diag.t list
(** The [ING00x] diagnostics explaining why the plan recomputes on
    append; empty when it is maintainable (or unknown). *)

val sync : t -> table:string -> before:int -> Tuple.t array -> report
(** [sync t ~table ~before batch] brings the cached entry of every
    registered plan whose tables moved since its last sync up to date,
    right after [batch] was appended to [table] by one
    {!Subql_relational.Catalog.add} that moved the table's epoch from
    [before].  A view folds [batch] through its delta pipeline only when
    [table] is its detail table and the only dependency that moved, it
    has fold state, and it last synced [table] at epoch [before]; any
    other registration of the table in between (or of another table it
    reads) makes it rebuild or recompute from the catalog.  Each
    refreshed relation replaces its entry through
    {!Subql_mqo.Result_cache.repair}, current at the tables' new epochs.
    Plans absent from the cache are still maintained (their accumulators
    advance) but never admitted — repair is not admission. *)
