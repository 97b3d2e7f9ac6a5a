open Subql_relational
module Metrics = Subql_obs.Metrics
module Clock = Subql_obs.Clock

type config = {
  batch_window : float;
  batch_max : int;
  policy : Admission.policy;
  eval_config : Subql.Eval.config;
}

let default_config =
  {
    batch_window = 0.02;
    batch_max = 16;
    policy = Admission.unlimited;
    eval_config = Subql.Eval.default_config;
  }

type ticket = { id : int; label : string; submitted : float }

type pending = { ticket : ticket; entry : Subql_mqo.Batch.entry }

type instruments = {
  queue_depth : Metrics.gauge;
  batch_size : Metrics.histogram;
  latency : Metrics.histogram;
  admitted : Metrics.counter;
  batches : Metrics.counter;
  queries_served : Metrics.counter;
  rejected : Metrics.counter;
  rejected_budget : Metrics.counter;
  rejected_queue : Metrics.counter;
  rejected_shutdown : Metrics.counter;
}

type t = {
  config : config;
  cat : Catalog.t;
  mutable stats : Subql.Cost.Stats.t;
      (* computed at creation; refreshed after ingest grows a table *)
  result_cache : Subql_mqo.Result_cache.t;
  registry : Metrics.t;
  ins : instruments;
  queue : pending Queue.t;
  mutable next_id : int;
  mutable shut_down : bool;
}

let create ?(config = default_config) ?cache ?(registry = Metrics.default) cat =
  if config.batch_window < 0. then invalid_arg "Server.create: negative batch_window";
  if config.batch_max <= 0 then invalid_arg "Server.create: batch_max must be positive";
  if config.policy.Admission.queue_cap <= 0 then
    invalid_arg "Server.create: queue_cap must be positive";
  let result_cache =
    match cache with
    | Some c -> c
    | None -> Subql_mqo.Result_cache.create ~registry ()
  in
  let ins =
    {
      queue_depth = Metrics.gauge registry "server.queue_depth";
      batch_size =
        Metrics.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ] registry
          "server.batch_size";
      latency = Metrics.histogram registry "server.latency_seconds";
      admitted = Metrics.counter registry "server.admitted";
      batches = Metrics.counter registry "server.batches";
      queries_served = Metrics.counter registry "server.queries_served";
      rejected = Metrics.counter registry "server.rejected";
      rejected_budget = Metrics.counter registry "server.rejected.budget";
      rejected_queue = Metrics.counter registry "server.rejected.queue";
      rejected_shutdown = Metrics.counter registry "server.rejected.shutdown";
    }
  in
  {
    config;
    cat;
    stats = Subql.Cost.Stats.of_catalog cat;
    result_cache;
    registry;
    ins;
    queue = Queue.create ();
    next_id = 0;
    shut_down = false;
  }

let queue_depth t = Queue.length t.queue

let is_shut_down t = t.shut_down

let catalog t = t.cat

let cache t = t.result_cache

let refresh_stats t = t.stats <- Subql.Cost.Stats.of_catalog t.cat

let publish_depth t =
  Metrics.set t.ins.queue_depth (float_of_int (Queue.length t.queue))

let reject t per_reason rejection =
  Metrics.incr t.ins.rejected;
  Metrics.incr per_reason;
  Error rejection

let submit t ~now ?label query =
  let label = match label with Some l -> l | None -> Printf.sprintf "q%d" t.next_id in
  if t.shut_down then
    reject t t.ins.rejected_shutdown (Admission.shutdown_rejection ~label)
  else
    (* Backpressure first: a full queue sheds before paying for
       planning.  The hint is one batch window — by then the scheduler
       has sealed at least one batch out of the queue. *)
    match
      Admission.check_queue t.config.policy ~depth:(Queue.length t.queue)
        ~retry_after:t.config.batch_window ~label
    with
    | Error r -> reject t t.ins.rejected_queue r
    | Ok () -> (
      let entry = Subql_mqo.Batch.prepare query in
      match
        Admission.check_budget t.config.policy ~stats:t.stats
          ~config:t.config.eval_config ~label
          (Subql_mqo.Batch.solo_plan entry)
      with
      | Error r -> reject t t.ins.rejected_budget r
      | Ok _height ->
        let ticket = { id = t.next_id; label; submitted = now } in
        t.next_id <- t.next_id + 1;
        Queue.add { ticket; entry } t.queue;
        Metrics.incr t.ins.admitted;
        publish_depth t;
        Ok ticket)

type completion = { ticket : ticket; result : Relation.t; completed : float }

type batch_result = {
  completions : completion list;
  closed_at : float;
  exec_seconds : float;
  report : Subql_mqo.Batch.report;
}

let next_deadline t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some oldest ->
    if Queue.length t.queue >= t.config.batch_max then
      (* Size-sealed: due the moment the batch filled up, which is when
         the batch_max-th member arrived — not when the oldest did. *)
      let _, filled_at =
        Queue.fold
          (fun (i, acc) (p : pending) ->
            if i < t.config.batch_max then (i + 1, max acc p.ticket.submitted)
            else (i, acc))
          (0, oldest.ticket.submitted) t.queue
      in
      Some filled_at
    else Some (oldest.ticket.submitted +. t.config.batch_window)

let seal t ~now =
  let n = min t.config.batch_max (Queue.length t.queue) in
  let members = List.init n (fun _ -> Queue.pop t.queue) in
  publish_depth t;
  let report, exec_seconds =
    Clock.time (fun () ->
        Subql_mqo.Batch.run_prepared ~config:t.config.eval_config ~cache:t.result_cache
          ~registry:t.registry t.cat
          (List.map (fun p -> p.entry) members))
  in
  let completed = now +. exec_seconds in
  let completions =
    List.map2
      (fun (p : pending) (_, result) ->
        Metrics.observe t.ins.latency (completed -. p.ticket.submitted);
        { ticket = p.ticket; result; completed })
      members report.Subql_mqo.Batch.results
  in
  Metrics.incr t.ins.batches;
  Metrics.incr ~by:n t.ins.queries_served;
  Metrics.observe t.ins.batch_size (float_of_int n);
  { completions; closed_at = now; exec_seconds; report }

let step t ~now =
  if Queue.is_empty t.queue then None
  else if
    Queue.length t.queue >= t.config.batch_max
    || now >= (Queue.peek t.queue).ticket.submitted +. t.config.batch_window
  then Some (seal t ~now)
  else None

let drain t ~now =
  let rec go now acc =
    if Queue.is_empty t.queue then List.rev acc
    else
      let b = seal t ~now in
      (* The loop is single-threaded: the next batch cannot seal before
         the previous one's evaluation has finished. *)
      go (b.closed_at +. b.exec_seconds) (b :: acc)
  in
  go now []

let shutdown t ~now =
  let drained = drain t ~now in
  t.shut_down <- true;
  drained

type ingest_result = {
  flushed : batch_result list;
  ingested_rows : int;
  apply_seconds : float;
}

let ingest t ~now ?(label = "ingest") ~apply () =
  if t.shut_down then
    reject t t.ins.rejected_shutdown (Admission.shutdown_rejection ~label)
  else begin
    (* Drain-first ordering: everything already queued was submitted
       before this batch arrived, so it is answered against the
       pre-append snapshot — the mirror image of the no-stale-reads
       guarantee for queries arriving after. *)
    let flushed = drain t ~now in
    let ingested_rows, apply_seconds = Clock.time apply in
    refresh_stats t;
    Ok { flushed; ingested_rows; apply_seconds }
  end
