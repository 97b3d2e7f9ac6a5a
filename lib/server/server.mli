(** The long-lived serving loop.

    A server holds everything that should survive across queries — the
    catalog, the cost statistics, the result cache, the metrics
    registry — and turns a stream of {!submit} calls into time/size-
    bounded batches admitted through {!Subql_mqo.Batch}, so cross-query
    GMDJ sharing and cache warmth fire {e under traffic} instead of
    only inside a hand-assembled batch file.

    {b Time.}  The server never reads a clock: every entry point takes
    [now], so the same code runs under the wall clock (the [serve] CLI
    loop) and under virtual time (the {!Driver}'s deterministic trace
    replay, where only measured evaluation seconds advance the
    timeline).  Batch evaluation time is measured wall-clock and
    reported in {!batch_result.exec_seconds}; completion timestamps are
    [closed_at +. exec_seconds].

    {b Scheduling.}  A batch seals when the oldest queued request has
    waited [batch_window] seconds ({!next_deadline}) or when
    [batch_max] requests are queued — whichever comes first.  {!step}
    seals and runs at most one due batch; callers loop.

    {b Admission} ({!Admission}): over-budget plans are rejected with
    [ADM001] before execution, a full queue sheds with [ADM002] and a
    retry hint, a shut-down server refuses with [ADM003].

    {b Metrics} (into the registry passed at {!create}):
    ["server.queue_depth"] (gauge), ["server.batch_size"] and
    ["server.latency_seconds"] (histograms), ["server.admitted"],
    ["server.batches"], ["server.queries_served"],
    ["server.rejected"] plus per-reason
    ["server.rejected.budget"/".queue"/".shutdown"] (counters). *)

open Subql_relational

type config = {
  batch_window : float;
      (** seconds a sealed batch may wait for company after its first
          request arrives *)
  batch_max : int;  (** seal early once this many requests are queued *)
  policy : Admission.policy;
  eval_config : Subql.Eval.config;
}

val default_config : config
(** 20 ms window, 16-query batches, {!Admission.unlimited}. *)

type t

val create :
  ?config:config ->
  ?cache:Subql_mqo.Result_cache.t ->
  ?registry:Subql_obs.Metrics.t ->
  Catalog.t ->
  t
(** A fresh serving loop over a resident catalog.  Without [cache] the
    server owns a default-policy {!Subql_mqo.Result_cache}; pass one to
    control admission cost / capacity.  [registry] defaults to
    {!Subql_obs.Metrics.default}. *)

type ticket = {
  id : int;  (** unique per server, in submission order *)
  label : string;
  submitted : float;  (** the [now] of the accepted submit *)
}

val submit :
  t -> now:float -> ?label:string -> Subql_nested.Nested_ast.query -> (ticket, Admission.rejection) result
(** Admit one query: plan it ({!Subql_mqo.Batch.prepare}), price its
    memory footprint, and enqueue it.  Pure enqueue — evaluation
    happens in {!step}/{!drain}.  [label] defaults to ["q<id>"]. *)

type completion = {
  ticket : ticket;
  result : Relation.t;
  completed : float;  (** [closed_at +. exec_seconds] of its batch *)
}

type batch_result = {
  completions : completion list;  (** in submission order *)
  closed_at : float;  (** when the batch was sealed *)
  exec_seconds : float;  (** measured wall-clock evaluation time *)
  report : Subql_mqo.Batch.report;  (** sharing / cache accounting *)
}

val next_deadline : t -> float option
(** When {!step} becomes due without further arrivals: the oldest
    queued request's [submitted +. batch_window], or earlier ([now])
    when the queue already holds [batch_max].  [None] when idle. *)

val step : t -> now:float -> batch_result option
(** Seal and evaluate at most one batch if one is due at [now]. *)

val drain : t -> now:float -> batch_result list
(** Evaluate everything queued, ignoring the window (batches still
    respect [batch_max]); each successive batch seals at the previous
    one's completion time. *)

val shutdown : t -> now:float -> batch_result list
(** {!drain}, then refuse every further {!submit} with [ADM003].  The
    in-flight queries are answered before the loop exits. *)

type ingest_result = {
  flushed : batch_result list;
      (** batches drained {e before} the write was applied *)
  ingested_rows : int;  (** whatever [apply] returned *)
  apply_seconds : float;  (** measured wall-clock time of [apply] *)
}

val ingest :
  t ->
  now:float ->
  ?label:string ->
  apply:(unit -> int) ->
  unit ->
  (ingest_result, Admission.rejection) result
(** Run one ingest batch against the serving loop.  The queue is
    drained {b first}: queries submitted before the batch arrived are
    answered against the pre-append snapshot, then [apply] performs the
    write (e.g. [Subql_ingest.Ingest.append]) and the cost statistics
    are refreshed to the grown catalog.  Queries submitted afterwards
    can never observe pre-append cached results that read the appended
    table — the append bumps its epoch.  Rejected with [ADM003] after {!shutdown}. *)

val refresh_stats : t -> unit
(** Recompute admission-pricing statistics from the (mutated) catalog;
    {!ingest} calls this after every applied write. *)

val queue_depth : t -> int

val is_shut_down : t -> bool

val catalog : t -> Catalog.t

val cache : t -> Subql_mqo.Result_cache.t
