(** Parallel-merge lawfulness certificates (the [PAR0xx] namespace).

    Exchange-parallel execution splits aggregate accumulators across
    worker domains and merges them back out of input order — which is
    only sound when every aggregate's merge forms a {e commutative
    monoid}.  This pass derives the algebraic laws per
    {!Subql_relational.Aggregate.func} (commutativity is
    {!Subql_relational.Aggregate.order_sensitive}) and walks the plan
    for positions where accumulators can meet a [Chunk.Exchange]:

    - [PAR001] (error): a GMDJ block aggregate whose merge is
      associative but not commutative — the plan is not certified for
      partitioned evaluation ([Gmdj.eval] runs such a block list on one
      domain whatever [domains] asks for);
    - [PAR002] (error): an aggregate with no identity or a
      non-associative merge — unsplittable state;
    - [PAR003] (warning): an order-sensitive aggregate under a
      hash-partitioned [Group_by] — lawful today only because routing
      preserves per-key arrival order.

    [analyze --certify] reports these diagnostics. *)

type laws = { has_identity : bool; associative : bool; commutative : bool }

val laws_of : Subql_relational.Aggregate.func -> laws
(** The algebraic laws of the aggregate's accumulator merge: every
    aggregate here is a monoid, commutative unless
    {!Subql_relational.Aggregate.order_sensitive} ([First]). *)

val certify :
  ?laws_of:(Subql_relational.Aggregate.func -> laws) ->
  Subql.Algebra.t ->
  Subql_relational.Diag.t list
(** All [PAR0xx] diagnostics for the plan, sorted.  [laws_of] is
    injectable for testing hypothetical aggregates. *)

val certified_for_parallel :
  ?laws_of:(Subql_relational.Aggregate.func -> laws) -> Subql.Algebra.t -> bool
(** [true] iff {!certify} reports no error — every aggregate in the
    plan can be split across domains. *)
