(** The Generalized Multi-Dimensional Join operator (Def. 2.1).

    [MD(B, R, (l_1..l_m), (θ_1..θ_m))] extends every base tuple [b ∈ B]
    with the aggregates [l_i] computed over the range
    [RNG(b, R, θ_i) = {r ∈ R | θ_i(b, r)}].  The output has one row per
    base row (in base order) and one column per aggregate.

    {!eval} is the one evaluator: a single pass over a detail chunk
    stream, folded by one or more domains into mergeable aggregate state
    ({!Subql_relational.Aggregate.states}) a chunk at a time: each block
    collects its (detail row, slot) matches, then steps its aggregates
    over them.  A slot is a base tuple or, when θ is only [=]/[<=>]
    keys, the aggregates read only the detail and no completion checks
    liveness, a θ-key group of the base.  Its strategies:
    - [`Scan] — every detail row updates every base tuple whose θ it
      satisfies.  Cost: |R| rows × |B| predicate tests per block.
    - [`Hash] — the hash-index strategy of the paper's GMDJ engine:
      every [=] and null-safe [<=>] between a base and a detail
      attribute ({!Subql_relational.Expr.split_equi}) becomes a key of
      an index on the base tuples; each detail tuple probes it in place
      and evaluates only the residual predicate on its candidates.

    Under both, conjuncts of a θ that mention only detail attributes are
    hoisted and evaluated once per detail row (the invariant reuse of
    Rao & Ross), not once per pair.  {!reference} is the definition
    itself, kept as the executable specification.

    All strategies and domain counts produce identical results. *)

open Subql_relational

type block = { aggs : Aggregate.spec list; theta : Expr.t }
(** One (l_i, θ_i) pair: aggregates over the detail rows matching θ_i.
    θ_i may reference attributes of both operands; references resolve in
    the detail schema first (qualify to disambiguate). *)

type strategy = [ `Scan | `Hash ]

type stats = {
  mutable detail_scanned : int;  (** detail rows consumed *)
  mutable theta_evals : int;  (** residual/θ predicate evaluations *)
  mutable early_exit : bool;  (** scan stopped before the end *)
  mutable detail_passes : int;
      (** detail scans started: 1 per {!eval} that reads its detail,
          whatever the domain count — the Prop. 4.1 coalescing argument
          as a number *)
  mutable block_updates : int array;
      (** matched (detail row, base tuple) pairs per block, a key group
          counting its size (grown to the widest block list seen) *)
}

val fresh_stats : unit -> stats

(** Every evaluation also publishes its pass / scanned-row / θ-count
    deltas to the process registry ({!Subql_obs.Metrics.default}) under
    ["gmdj.evals"], ["gmdj.detail_passes"], ["gmdj.detail_rows_scanned"],
    ["gmdj.theta_evals"] and ["gmdj.early_exits"].  Per-pair θ counting
    stays opt-in (a [stats] record must be supplied) because it wraps
    the hottest predicate path; pass and row counts are always exact. *)

val block : Aggregate.spec list -> Expr.t -> block

val pp_block : Format.formatter -> block -> unit

val output_schema : base:Schema.t -> detail:Schema.t -> block list -> Schema.t
(** Base attributes followed by the aggregate columns (unqualified).
    Duplicate aggregate names are uniquified as in the paper's
    footnote 1. *)

val reference : base:Relation.t -> detail:Relation.t -> block list -> Relation.t
(** The definition, verbatim: one pass over the detail relation per base
    tuple and block.  The test oracle for {!eval}. *)

(** {1 Base-tuple completion (Section 4.2)}

    A [completion] asks {!eval} for [σ[C](MD(B, R, blocks))] where the
    optimizer reduced the selection conditions [C] to completion rules:

    - a {e kill} predicate fires on [(b, r)] ⇒ [b] can never satisfy
      [C]; it is disqualified and ignored for the rest of the scan
      (Thm 4.2 — e.g. [cnt = 0] conjuncts, or the ALL-quantifier
      pattern [θ ∧ ¬(x φ y IS TRUE)]);
    - a {e require-fired} predicate must fire at least once for [b] to
      satisfy [C] (Thm 4.1 — [cnt > 0] conjuncts).

    When every base tuple is decided — killed, or all requirements fired
    while no kill predicates exist — the detail scan stops early.

    With [maintain_aggregates = false] (valid only when the enclosing
    projection discards the aggregate columns, Thm 4.1's [A ∩ l = ∅]),
    no aggregate state is kept at all; the aggregate columns of the
    result then hold NULL and must be projected away. *)

type completion = {
  kill_when : Expr.t list;
  require_fired : Expr.t list;
  maintain_aggregates : bool;
}

val pp_completion : Format.formatter -> completion -> unit

val eval :
  ?strategy:strategy ->
  ?stats:stats ->
  ?completion:completion ->
  domains:int ->
  base:Relation.t ->
  Chunk.Source.t ->
  block list ->
  Relation.t
(** [eval ~domains ~base detail blocks] drains the detail chunk stream
    once through a {!Subql_relational.Chunk.Exchange} of [domains]
    workers.  Each folds its share into private aggregate stores, one per
    block with a slot per base tuple (and, with a [completion], private
    kill/require verdicts); the coordinator merges them slot by slot —
    every SQL aggregate state is mergeable
    ({!Subql_relational.Aggregate.merge}) and verdicts are monotone, so
    round-robin routing is sound — and writes each base row's slots into
    its output row, in base order.  The coordinator owns the pull side,
    so storage scans and buffer pools stay single-domain.  [domains = 1]
    folds inline: that is the serial path.  A block list holding an
    {!Subql_relational.Aggregate.order_sensitive} aggregate (FIRST)
    always takes it, whatever [domains] asks for, since its merge is
    right only in input order.

    An untouched whole-relation source ({!Subql_relational.Chunk.Source.origin})
    is re-sliced into [min Chunk.default_rows ⌈|R|/domains⌉]-row chunks,
    with [domains] capped at [|R|], so small in-memory details still
    spread across workers.

    With a [completion], only the surviving base rows are returned.  At
    one domain, a saturated fold closes the detail source instead of
    reading on (an early {e storage} exit); with more, each worker stops
    folding but the coordinator still routes the whole stream.  An
    empty base, or a completion with nothing to kill, nothing to require
    and no aggregates to keep, is decided before the scan: the source is
    closed unread and no detail pass is counted.

    Supplied [stats] receive the pass, row, block-update and θ counts;
    per-pair θ counting wraps the hottest predicate path, so it only
    runs when [stats] are supplied.  Every evaluation runs in a
    ["gmdj.eval"] (or, with a completion, ["gmdj.eval_completed"])
    trace span whose ["domains"] attribute is the number of domains
    actually used.
    @raise Invalid_argument if [domains <= 0]. *)

(** {1 Incremental view maintenance}

    Maintain a materialized GMDJ result under detail-relation deltas
    (the complex-aggregate-view maintenance of the authors' companion
    work).  The view keeps the live fold state — one aggregate slot per
    base tuple and block — so applying a delta costs one pass over the
    delta only.

    Preconditions: inserted rows must not already be counted twice, and
    deleted rows must actually be part of the accumulated content —
    standard multiset view-maintenance assumptions.  COUNT/SUM/AVG
    states retract exactly (including re-nullification when a range
    empties).  A view holding an aggregate that is not
    {!Subql_relational.Aggregate.retractable} — MIN, MAX or FIRST —
    rejects deletions before touching any state, naming that
    aggregate.

    A view may be {e completed} (Section 4.2): under appends its
    kill/require verdicts only move one way, so inserts fold into the
    live verdict state, and once it has saturated they change nothing.
    A completed view rejects deletions the same way, since a retract
    could revive a killed tuple. *)
module Maintain : sig
  type t

  val generation : unit -> int
  (** A process-wide delta counter, bumped by every successful
      {!insert_detail} / {!delete_detail} on any view.  Maintained views
      mutate the effective detail content without touching the catalog,
      so fingerprint-keyed result caches ([Subql_mqo]) fold this into
      their invalidation epoch alongside {!Subql_relational.Catalog.generation}. *)

  val create :
    ?strategy:strategy ->
    ?completion:completion ->
    base:Relation.t ->
    detail:Relation.t ->
    block list ->
    t
  (** Materialize [MD(base, detail, blocks)], completed by [completion]
      as in {!eval}, with maintainable state: the fold state {!eval}
      runs on, kept live. *)

  val insert_detail : t -> Relation.t -> unit
  (** Fold a batch of new detail rows into the view.
      @raise Invalid_argument if the delta schema differs. *)

  val delete_detail : t -> Relation.t -> unit
  (** Retract a batch of detail rows.  A retraction is done only when it
      is exact — the view then equals a recompute over the remaining
      detail ({!Subql_relational.Aggregate.exact_retraction}): COUNT
      always, SUM while the slots it touches hold [Int] sums, AVG while
      their float sums cannot have rounded.
      @raise Invalid_argument for completed views, views with a MIN,
      MAX or FIRST aggregate, and a deletion that would touch a SUM or
      AVG slot whose sum may have rounded; the view and {!generation}
      are left unchanged. *)

  val insert_chunk : t -> Chunk.t -> unit
  (** {!insert_detail} for one chunk of detail rows — the streaming
      insertion primitive: only the chunk's window of its backing buffer
      is folded, nothing is copied.
      @raise Invalid_argument if the chunk schema differs. *)

  val insert_source : t -> Chunk.Source.t -> int
  (** Drain a chunk stream into the view, one {!insert_chunk} per chunk;
      returns the number of rows folded.  With a paged delta source
      (e.g. [Heap_file.source ~from]) an appended batch is maintained
      without ever materializing it. *)

  val stats : t -> stats
  (** Lifetime accumulation counts for this view: the initial
      materialization plus every delta folded since.  [detail_scanned]
      deltas between two reads price a maintenance step in rows. *)

  val result : t -> Relation.t
  (** The current view contents, in base order — always equal to
      re-evaluating the GMDJ over the maintained detail state. *)
end
