(** The ingest subsystem: appendable table storage with epoch-stamped
    catalog registration and incremental maintenance of cached GMDJ
    results.

    An ingested table lives once, as the relation registered in the
    catalog.  An [append] batch is schema-checked, then the catalog's
    relation grown by it is registered in the catalog — bumping that
    table's epoch exactly once per batch.

    Staleness policy decides whether cached results are repaired:

    - {!Maintain_on_write}: every append repairs all registered plans
      before it returns, folding just the appended batch where it can
      (freshest reads, append pays);
    - {!Recompute_on_miss}: no repair at all — stale entries fall out of
      the cache on lookup and queries recompute from scratch (the
      baseline delta maintenance is measured against).

    Both policies are {b stale-read free}: the table's epoch bumps with
    the catalog registration inside [append], so a cached entry that
    read the table before the batch can never be served after it.

    Batches and rows are counted under ["ingest.batches"] and
    ["ingest.rows_appended"]. *)

open Subql_relational

type policy = Maintain_on_write | Recompute_on_miss

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Accepts the CLI spellings ["on-write"] and ["recompute"] (and the
    long names). *)

type t

val create :
  ?policy:policy ->
  ?config:Subql.Eval.config ->
  ?delta_row_cost:float ->
  ?registry:Subql_obs.Metrics.t ->
  catalog:Catalog.t ->
  cache:Subql_mqo.Result_cache.t ->
  unit ->
  t
(** [policy] defaults to {!Maintain_on_write}. *)

val policy : t -> policy

val register_query : t -> Subql_nested.Nested_ast.query -> bool
(** Track a query's served plan for maintenance; see
    {!Maintenance.register_query}. *)

val maintenance : t -> Maintenance.t

val append : t -> table:string -> Tuple.t array -> Maintenance.report option
(** Append one batch: check every row against the table's schema,
    register the relation {!Subql_relational.Catalog.find} holds grown by
    the batch (one epoch bump), and under {!Maintain_on_write} repair
    registered plans through {!Maintenance.sync} with the batch and the
    table's epoch before the registration, returning the maintenance
    report.  A relation registered for the table by anyone else since
    the last append is the one grown, and the views that read it rebuild
    instead of folding the batch into state that predates it.  An empty batch
    changes nothing and returns [None], as does every append under
    {!Recompute_on_miss}.
    @raise Subql_relational.Catalog.Unknown_table for an unregistered table.
    @raise Invalid_argument for rows that do not fit the table schema;
    nothing has changed then. *)

val close : t -> unit
(** A no-op, kept for callers that scope an ingest session: the catalog
    holds every ingested relation and nothing else is owned. *)
