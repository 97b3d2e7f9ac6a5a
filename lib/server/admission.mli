(** Admission control for the serving loop: decide, per request, whether
    the server may take the query at all — before anything executes.

    Both gates are structural, so overload degrades to {e rejection},
    never to an OOM or a stall:

    - {b memory budget} — the solo plan's predicted {e resident}
      footprint (in materialized rows) must fit the per-query budget.
      The gate takes the {e smaller} of the point estimate and the
      certified sound bound ({!Subql.Cost.memory_heights}, one cost
      pass for both) when the latter is finite
      — a proven-small certificate admits plans the point estimate
      over-rejects, and an infinite certificate (statistics-less table)
      degrades to the estimate alone, so certification only ever admits
      more.  Rows the configured spill budget would push through temp
      heap files count as disk, not resident memory — so a spilling plan
      over detail-sized input can be admitted where its in-memory twin
      is rejected.  An over-budget plan is rejected with [ADM001] —
      reporting predicted rows, the certified bound, the budget, and
      the certificate's argmax pipeline breaker — and is never
      evaluated; the prediction is the planning-time counterpart of the
      executor's measured ["eval.peak_materialized_rows"], so the budget
      bounds what a query {e would} pin, not what it already did.
    - {b queue depth} — the request queue is capped.  A submit against
      a full queue is shed with [ADM002] and a retry hint (one batch
      window from now at least one batch has left the queue).  Because
      execution is pull-based chunk streaming, a bounded queue plus
      per-query budgets bound the server's total in-flight memory.

    [ADM003] marks submits after {!Server.shutdown} — permanent, no
    retry hint.

    Rejections are structured {!Subql_relational.Diag.t} values in the
    [ADM0xx] namespace, so clients (and tests) dispatch on stable codes
    rather than message text. *)

open Subql_relational

type policy = {
  mem_budget_rows : float;
      (** reject plans whose {!Subql.Cost.memory_height} exceeds this;
          [infinity] disables the gate *)
  queue_cap : int;  (** maximum queued requests; [> 0] *)
}

val unlimited : policy
(** No memory gate, a deep (but still finite) queue. *)

type rejection = {
  diag : Diag.t;
  retry_after : float option;
      (** seconds after which a retry may succeed: [Some] for transient
          pressure (queue full), [None] for structural refusals (the
          plan can never fit the budget; the server is gone) *)
}

val code_over_budget : string  (** ["ADM001"] *)

val code_queue_full : string  (** ["ADM002"] *)

val code_shutdown : string  (** ["ADM003"] *)

val check_budget :
  policy ->
  stats:Subql.Cost.Stats.t ->
  config:Subql.Eval.config ->
  label:string ->
  Subql.Algebra.t ->
  (float, rejection) result
(** [Ok rows] (the effective gated footprint: min of the point estimate
    and the finite certified bound) when the plan fits, the [ADM001]
    rejection otherwise. *)

val check_queue :
  policy -> depth:int -> retry_after:float -> label:string -> (unit, rejection) result
(** [Ok ()] while [depth < queue_cap]; the [ADM002] rejection carrying
    [retry_after] once the queue is full. *)

val shutdown_rejection : label:string -> rejection
