(** Drive a {!Server} with a traffic trace and measure it.

    Replay runs in {e virtual time}: arrival timestamps come from the
    trace (e.g. {!Subql_workload.Traffic.open_loop}), and the only
    thing that advances the clock beyond them is measured evaluation
    time — the server is single-threaded, so a batch sealed while a
    previous one is still evaluating starts at [busy-until] instead of
    its deadline.  Queueing delay is therefore exact and reproducible;
    service time is real measured work.

    Latency for a completed request is [completion - submission] on
    that unified timeline. *)

type event = {
  at : float;  (** virtual submission time *)
  label : string;
  query : Subql_nested.Nested_ast.query;
}

type summary = {
  offered : int;  (** requests the trace presented *)
  completed : int;
  rejected_budget : int;  (** [ADM001] — never executed *)
  shed : int;  (** [ADM002] queue-cap rejections *)
  retries : int;  (** closed loop only: re-submissions after a shed *)
  batches : int;
  duration : float;  (** virtual makespan: last completion time *)
  exec_seconds : float;  (** total measured evaluation time *)
  latencies : float array;  (** per completed request, sorted ascending *)
  detail_scans : int;  (** GMDJ detail passes across all batches *)
  naive_detail_scans : int;  (** one-scan-per-GMDJ-per-query baseline *)
  cache_hits : int;
  cache_misses : int;
  max_queue_depth : int;
}

val percentile : float array -> float -> float
(** [percentile sorted p] — nearest-rank quantile of a sorted sample,
    [p] in [\[0, 100\]]; [0.] on an empty array. *)

val replay : Server.t -> event list -> summary
(** Open-loop replay: submit each event at its virtual time, sealing
    batches whenever one comes due in between; queue-cap sheds are
    dropped (the load is imposed, nobody waits to retry).  Ends with a
    {!Server.drain} so every admitted request completes.  The
    query-only case of {!replay_mixed}. *)

type ingest_event = {
  at : float;  (** virtual arrival time of the append batch *)
  label : string;
  apply : unit -> int;  (** perform the write; returns rows appended *)
}

type mixed_event = Query of event | Ingest of ingest_event

type mixed_summary = {
  queries : summary;
  ingest_batches : int;  (** writes applied *)
  ingest_rows : int;
  ingest_seconds : float;  (** measured wall-clock write+maintain time *)
}

val replay_mixed : Server.t -> mixed_event list -> mixed_summary
(** {!replay} over an interleaved ingest + query trace (e.g.
    {!Subql_workload.Traffic.with_ingest}).  Query events behave exactly
    as in {!replay}; an ingest event waits for the evaluator
    ([busy-until]), goes through {!Server.ingest} — so queries already
    queued are answered against the pre-append snapshot first — and
    then occupies the loop for its measured apply time, delaying
    subsequent batches.  No query admitted after an append can be
    answered from a pre-append cache entry over the appended table: the
    write bumps its epoch before the query's batch seals. *)

val run_closed :
  Server.t ->
  clients:(string * Subql_nested.Nested_ast.query) list list ->
  think:float ->
  summary
(** Closed-loop drive: each inner list is one client's (label, query)
    stream; a client submits its next query [think] virtual seconds
    after its previous one completes, and a shed request is retried
    after the server's hint.  Ends when every client exhausts its
    stream. *)
