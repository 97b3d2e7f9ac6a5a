(** The analysis driver: everything the static analyzer knows about one
    query, in one report.

    [analyze_query] runs the full pipeline — query-shape lints,
    translation, typing of the raw plan, optimization under the rewrite
    verifier, typing of the optimized plan, plan-shape lints — and
    returns the sorted union of every diagnostic, together with the
    final schema and nullability vector.  This is the engine behind the
    CLI's [analyze] command and the CI gate in [scripts/check.sh]. *)

open Subql_relational

type report = {
  label : string;
  diags : Diag.t list;  (** sorted, duplicate-free *)
  schema : Schema.t option;  (** of the optimized plan; [None] on fatal error *)
  nulls : Nullability.t array option;
  plan : Subql.Algebra.t option;  (** the optimized plan that was analyzed *)
}

val analyze_plan : Typing.env -> label:string -> Subql.Algebra.t -> report
(** Typing + plan lints over an already-built plan (no translation, no
    rewriting). *)

val analyze_query :
  ?flags:Subql.Optimize.flags ->
  Catalog.t ->
  label:string ->
  Subql_nested.Nested_ast.query ->
  report
(** The full pipeline.  A {!Subql.Transform.Unsupported} translation
    failure is reported as a [TRF001] error, not an exception. *)

val errors : report -> int

val warnings : report -> int

(** {1 Certification}

    [certify] runs {!analyze_query} and then the three certificate
    passes over the optimized plan: {!Interval.certify} (sound
    cardinality intervals and the certified memory ceiling),
    {!Mergeable.certify} (parallel-merge lawfulness, [PAR0xx]) and
    {!Deltaable.analyze} (delta-maintainability, [ING00x]).  This is
    the engine behind [analyze --certify] and the zoo gate in
    [scripts/check.sh]. *)

type certified = {
  report : report;
  certificate : Subql.Cost.certificate option;
      (** [None] iff the report has no plan (fatal analysis error) *)
  analysis : Diag.t list;  (** the IVL/PAR/ING diagnostics, sorted *)
}

val certify :
  ?flags:Subql.Optimize.flags ->
  ?config:Subql.Eval.config ->
  Catalog.t ->
  label:string ->
  Subql_nested.Nested_ast.query ->
  certified

val certified_errors : certified -> int
(** Error-severity diagnostics across the report and the certificate
    passes — the CLI's exit-status count. *)

val certified_to_json : certified -> Subql_obs.Json.t
(** {!report_to_json} extended with the certificate (bound, spill
    bound, argmax operator, per-operator interval tree) and the
    analysis diagnostics. *)

val pp_certified : Format.formatter -> certified -> unit
(** {!pp_report}, then the analysis diagnostics, then a certified-memory
    summary line naming the argmax pipeline breaker. *)

val report_to_json : report -> Subql_obs.Json.t
(** Machine-readable form: label, counts, the diagnostic list (severity,
    code, path, subject, message), schema and nullability rendering. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable: one line per diagnostic, then a summary line. *)
