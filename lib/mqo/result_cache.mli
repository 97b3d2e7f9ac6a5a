(** A fingerprint-keyed result cache with cost-aware admission.

    The cache maps plan fingerprints ({!Fingerprint}) to fully
    materialized result relations.  Three policies keep it honest:

    - {b admission} is cost-aware: only results whose estimated
      evaluation cost ({!Subql.Cost.estimate}) meets [min_cost] are
      admitted — caching a cheap scan evicts something expensive for no
      savings;
    - {b eviction} is LRU by estimated resident bytes: the cache holds at
      most [max_bytes] of result data and evicts the least-recently-used
      entries first;
    - {b freshness} is per table: an entry records the catalog it was
      computed from and the {!Subql_relational.Catalog.epoch} of each
      table its plan reads.  It is served only to a lookup against that
      same catalog (physical equality) while none of those epochs has
      moved; otherwise the lookup drops it, so no mutation of a table an
      answer read can be followed by a stale hit, and mutating a table
      it did not read costs nothing.

    Under ingest, dropping is not the only recourse: a maintenance
    planner can {!repair} an entry in place — replace the stale relation
    with a delta-maintained (or recomputed) one, current at the tables'
    new epochs — so warm entries survive appends instead of being
    rebuilt from scratch on the next miss.

    Activity is published to a metrics registry under
    ["mqo.cache.hits"], ["mqo.cache.misses"], ["mqo.cache.evictions"],
    ["mqo.cache.repaired"], ["mqo.cache.invalidated"] (stale entries
    dropped on lookup) and the gauge ["mqo.cache.bytes"]. *)

open Subql_relational

type t

val create :
  ?max_bytes:int -> ?min_cost:float -> ?registry:Subql_obs.Metrics.t -> unit -> t
(** [max_bytes] defaults to 64 MiB of estimated result data; [min_cost]
    (in the cost model's tuple-operation units) defaults to [1000.];
    [registry] defaults to {!Subql_obs.Metrics.default}.
    @raise Invalid_argument if [max_bytes <= 0]. *)

val lookup : t -> catalog:Catalog.t -> string -> Relation.t option
(** The cached result under this fingerprint, if present and current for
    [catalog]: stored from [catalog] itself, with every table its plan
    reads at the epoch it had then.  Counts a hit or a miss; a stale
    entry is dropped and counts as a miss. *)

val store :
  t ->
  catalog:Catalog.t ->
  tables:string list ->
  fingerprint:string ->
  cost:float ->
  Relation.t ->
  bool
(** Admit a result just computed from [catalog] by a plan reading
    [tables], recording each table's current epoch.  Returns [false]
    without caching when [cost < min_cost] or the result alone exceeds
    [max_bytes]; otherwise evicts LRU entries until the result fits and
    returns [true].  Re-storing an existing fingerprint replaces the
    entry. *)

val peek : t -> string -> Relation.t option
(** The entry under this fingerprint regardless of staleness — no
    freshness check, no metrics, no LRU touch.  For checks that need the
    stored body itself; never serve a peeked relation to a query. *)

val repair : t -> catalog:Catalog.t -> fingerprint:string -> Relation.t -> bool
(** Replace an existing entry's relation in place — a result just
    computed from [catalog] by the entry's plan — current again at its
    tables' present epochs, with a fresh LRU tick; adjusts byte
    accounting and evicts other entries if the repaired result no longer
    fits.  Returns [false] (and changes nothing) when the fingerprint is
    absent or its entry was computed from another catalog — repair
    never admits new entries, that is {!store}'s job. *)

val approx_bytes : Relation.t -> int
(** The size estimate used for accounting: summed cell sizes plus
    per-row overhead. *)

val entries : t -> int

val resident_bytes : t -> int

val clear : t -> unit
