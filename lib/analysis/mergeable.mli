(** Parallel-merge lawfulness certificates (the [PAR0xx] namespace).

    Exchange-parallel execution splits aggregate accumulators across
    worker domains and merges them back out of input order — which is
    only sound when every aggregate's merge forms a {e commutative
    monoid}.  Every aggregate here has an identity and an associative
    merge; commutativity fails exactly for an
    {!Subql_relational.Aggregate.order_sensitive} one ([FIRST]).  This
    pass walks the plan for positions where accumulators can meet a
    [Chunk.Exchange]:

    - [PAR001] (error): an order-sensitive aggregate in a GMDJ block —
      the plan is not certified for partitioned evaluation
      ([Gmdj.eval] runs such a block list on one domain whatever
      [domains] asks for);
    - [PAR003] (warning): an order-sensitive aggregate under a
      hash-partitioned [Group_by] — lawful today only because routing
      preserves per-key arrival order.

    [analyze --certify] reports these diagnostics. *)

val certify : Subql.Algebra.t -> Subql_relational.Diag.t list
(** All [PAR0xx] diagnostics for the plan, sorted. *)

val certified_for_parallel : Subql.Algebra.t -> bool
(** [true] iff {!certify} reports no error — every aggregate in the
    plan can be split across domains. *)
