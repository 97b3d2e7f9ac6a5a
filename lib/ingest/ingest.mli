(** The ingest subsystem: appendable table storage with epoch-stamped
    catalog registration and incremental maintenance of cached GMDJ
    results.

    An ingested table lives once, as the relation registered in the
    catalog.  An [append] batch is schema-checked, then the grown
    relation is registered in the catalog — bumping that table's epoch
    exactly once per batch.  Maintenance later folds just the appended
    suffix of that relation, streamed as chunks.

    Staleness policy decides {e when} cached results are repaired:

    - {!Maintain_on_write}: every append synchronously repairs all
      registered plans (freshest reads, append pays);
    - {!Maintain_on_read}: appends only mark the state dirty; the
      {!before_batch} hook repairs lazily just before the next query
      batch runs (reads pay, back-to-back appends coalesce);
    - {!Recompute_on_miss}: no repair at all — stale entries fall out of
      the cache on lookup and queries recompute from scratch (the
      baseline delta maintenance is measured against).

    All three policies are {b stale-read free}: the table's epoch bumps
    with the catalog registration inside [append], so a cached entry
    that read the table before the batch can never be served after it.
    The policies differ only in how the freshness is restored.

    Batches and rows are counted under ["ingest.batches"] and
    ["ingest.rows_appended"]. *)

open Subql_relational

type policy = Maintain_on_write | Maintain_on_read | Recompute_on_miss

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Accepts the CLI spellings ["on-write"], ["on-read"], ["recompute"]
    (and the long names). *)

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
    register the table's relation grown by the batch in the catalog
    (one epoch bump), and under
    {!Maintain_on_write} synchronously repair registered plans,
    returning the maintenance report.  The relation grown is the one
    this module last registered for the table (the catalog's on the
    first append), so a [Catalog.add] of an ingested table in between
    is overwritten.  An empty batch changes nothing.
    @raise Subql_relational.Catalog.Unknown_table for an unregistered table.
    @raise Invalid_argument for rows that do not fit the table schema;
    nothing has changed then. *)

val sync : t -> Maintenance.report option
(** Repair registered plans now if any append happened since the last
    sync ([None] when already clean).  Called automatically by
    {!append} under {!Maintain_on_write} and by {!before_batch} under
    {!Maintain_on_read}. *)

val dirty : t -> bool
(** Appends pending maintenance. *)

val before_batch : t -> now:float -> unit
(** The serving hook ({!Subql_server.Server.set_before_batch}): under
    {!Maintain_on_read} runs {!sync} so the batch about to execute sees
    repaired entries; a no-op under the other policies. *)

val table_rows : t -> string -> int option
(** Current row count of an ingested table ([None] before any append). *)

val close : t -> unit
(** Forget the ingested tables; the catalog keeps their relations. *)
