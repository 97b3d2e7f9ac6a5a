(** The multi-query front door: fingerprint → cache → share → evaluate.

    [run] takes a batch of nested queries and answers all of them,
    combining the three MQO layers:

    + every query is fingerprinted ({!Fingerprint}) and looked up in
      the result cache ({!Result_cache}) — hits are answered without
      planning or scanning;
    + cache misses are deduplicated by fingerprint (syntactic variants
      of one query are computed once);
    + the remaining distinct queries are planned for cross-query GMDJ
      sharing ({!Share}) and evaluated, and their results admitted to
      the cache under the solo plan's cost estimate.

    The report quantifies each layer: cache traffic, how many members
    actually shared a scan, and the detail-scan count against the
    one-scan-per-query naive baseline. *)

open Subql_relational

type report = {
  results : (int * Relation.t) list;
      (** one result per input query, keyed by input position, sorted *)
  cache_hits : int;
  cache_misses : int;  (** both counted over this run only *)
  deduplicated : int;  (** misses answered by an identical in-batch miss *)
  groups : int;  (** shared GMDJ groups formed *)
  grouped : int;  (** queries evaluated through a shared group *)
  shared_detail_scans : int;
      (** detail passes actually performed (GMDJ stats) *)
  naive_detail_scans : int;
      (** detail passes a cold, unshared run of the same batch would
          perform: one per GMDJ in each query's solo plan *)
}

val run :
  ?config:Subql.Eval.config ->
  ?cache:Result_cache.t ->
  ?registry:Subql_obs.Metrics.t ->
  Catalog.t ->
  Subql_nested.Nested_ast.query list ->
  report
(** Answer the whole batch.  Without [cache] every lookup misses (an
    empty throwaway cache is used); pass a persistent cache to benefit
    across calls. *)

(** {1 Prepared entries}

    A long-lived caller (the serving loop in [Subql_server]) already
    plans each query once at admission time — to price its memory
    footprint — before the query ever reaches a batch.  Preparing an
    entry keeps that work: the fingerprint and the solo plan are
    computed eagerly (admission needs both), the shareable plan lazily
    (only cache misses ever need it), and {!run_prepared} reuses all
    three instead of replanning. *)

type entry
(** A query prepared for batch evaluation: fingerprint + solo plan
    computed, shareable plan pending. *)

val prepare : Subql_nested.Nested_ast.query -> entry

val fingerprint : entry -> string

val solo_plan : entry -> Subql.Algebra.t
(** The fully optimized single-query plan — what admission control
    prices with {!Subql.Cost.memory_height} and what the cache admits
    results under. *)

val run_prepared :
  ?config:Subql.Eval.config ->
  ?cache:Result_cache.t ->
  ?registry:Subql_obs.Metrics.t ->
  Catalog.t ->
  entry list ->
  report
(** {!run} without the per-call planning: [run catalog qs] is
    [run_prepared catalog (List.map prepare qs)]. *)
