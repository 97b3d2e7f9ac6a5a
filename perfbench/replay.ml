(* The serving replay: one single-threaded loop driving [Server.submit],
   [Server.step] and [Server.ingest] directly, on a virtual timeline
   that every call's measured duration advances.

   Arrivals come from a seeded open-loop trace.  The loop is the only
   thread, so an arrival that finds it busy waits until it is free; a
   batch whose deadline ([Server.next_deadline]) precedes the next
   arrival runs first.  Every call the loop makes — parsing the SQL
   text, [submit] (planning + admission), [step] (batch evaluation) and
   [ingest] (drain, write, statistics refresh) — is timed on the
   monotonic clock and charged to the loop's busy time, so
   [completed / busy] is the highest rate the loop could sustain
   without a growing backlog.

   A query's latency runs from its due time to the end of the call
   that answered it; an append's from its due time to the end of its
   [Server.ingest] call.  A query's service time is its latency minus
   its queue wait (end of submit to start of its batch), the part the
   batch window or the wait for a full batch does not set.

   The loop never sleeps, so the wall time of a replay is its busy time
   plus the harness's own bookkeeping between calls: [wall - busy] is
   the time no timed layer call accounts for. *)

module Server = Subql_server.Server
module Batch = Subql_mqo.Batch

type event =
  | Query of { due : float; label : string; sql : string }
  | Append of { due : float; apply : unit -> int }

type summary = {
  offered : int;  (** queries in the trace *)
  completed : int;
  wrong : int;  (** completed, but the result check failed *)
  rejected : int;  (** ADM rejections and sheds *)
  errors : int;  (** parse failures and exceptions *)
  latencies : float array;  (** seconds, per completed query *)
  services : float array;  (** seconds, per completed query: latency minus queue wait *)
  busy : float;  (** seconds charged to the loop *)
  wall : float;  (** seconds the replay took, on [clock] *)
  parse_seconds : float;
  submit_seconds : float;
  step_seconds : float;  (** [step] calls that ran a batch *)
  ingest_seconds : float;
  batches : int;
  batched_queries : int;
  queue_wait : float;  (** summed over completed queries *)
  appends : int;
  append_failures : int;
  append_latencies : float array;
  apply_seconds : float;  (** the [apply] callbacks, as [Server.ingest] measured them *)
  flushed_seconds : float;  (** batches [Server.ingest] drained before writing *)
  cache_hits : int;
  cache_misses : int;
  shared_scans : int;
  naive_scans : int;
}

(* A query between its submit and its batch. *)
type pending = {
  qid : int;
  due : float;
  start : float;  (** when the loop began parsing it *)
  parse : float;
  submitted : float;  (** end of its submit call *)
}

let replay ?(clock = Clock.now) ?(check = fun _ _ -> true) server events =
  let began = clock () in
  let timed f =
    let t0 = clock () in
    let r = try Ok (f ()) with e -> Error e in
    (r, clock () -. t0)
  in
  let busy_until = ref 0. and busy = ref 0. in
  let charge d = busy := !busy +. d in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let latencies = ref [] and services = ref [] and append_latencies = ref [] in
  let offered = ref 0 and completed = ref 0 and wrong = ref 0 and rejected = ref 0 in
  let errors = ref 0 and appends = ref 0 and append_failures = ref 0 in
  let parse_s = ref 0. and submit_s = ref 0. and step_s = ref 0. and ingest_s = ref 0. in
  let batches = ref 0 and batched = ref 0 and queue_wait = ref 0. in
  let apply_s = ref 0. and flushed_s = ref 0. in
  let hits = ref 0 and misses = ref 0 and shared = ref 0 and naive = ref 0 in
  (* Account one batch whose evaluation occupied [start, stop]. *)
  let finish_batch ~kind ~start ~stop (b : Server.batch_result) =
    incr batches;
    let r = b.Server.report in
    hits := !hits + r.Batch.cache_hits;
    misses := !misses + r.Batch.cache_misses;
    shared := !shared + r.Batch.shared_detail_scans;
    naive := !naive + r.Batch.naive_detail_scans;
    List.iter
      (fun (c : Server.completion) ->
        let id = c.Server.ticket.Server.id in
        match Hashtbl.find_opt pending id with
        | None -> ()
        | Some p ->
          Hashtbl.remove pending id;
          incr batched;
          if check c.Server.ticket.Server.label c.Server.result then begin
            incr completed;
            latencies := (stop -. p.due) :: !latencies;
            services := (stop -. p.due -. (start -. p.submitted)) :: !services;
            queue_wait := !queue_wait +. (start -. p.submitted)
          end
          else incr wrong;
          if !Spans.enabled then begin
            let root = Spans.add ~query:p.qid ~start:p.due ~stop "query" in
            let span name a b = ignore (Spans.add ~parent:root ~query:p.qid ~start:a ~stop:b name) in
            span "loop.wait" p.due p.start;
            span "sql.parse" p.start (p.start +. p.parse);
            span "server.submit" (p.start +. p.parse) p.submitted;
            span "server.queue_wait" p.submitted start;
            span kind start stop
          end)
      b.Server.completions
  in
  (* Run every batch that comes due no later than [horizon]. *)
  let rec run_due horizon =
    match Server.next_deadline server with
    | Some deadline when deadline <= horizon ->
      let now = Float.max deadline !busy_until in
      let r, d = timed (fun () -> Server.step server ~now) in
      charge d;
      busy_until := now +. d;
      (match r with
      | Ok (Some b) ->
        step_s := !step_s +. d;
        finish_batch ~kind:"server.step" ~start:now ~stop:(now +. d) b;
        run_due horizon
      | Ok None -> () (* not due after all: leave it to a later arrival *)
      | Error _ ->
        incr errors;
        run_due horizon)
    | _ -> ()
  in
  List.iteri
    (fun qid ev ->
      match ev with
      | Query { due; label; sql } ->
        run_due due;
        incr offered;
        let start = Float.max due !busy_until in
        let parsed, parse = timed (fun () -> Subql_sql.Parser.parse sql) in
        charge parse;
        parse_s := !parse_s +. parse;
        busy_until := start +. parse;
        (match parsed with
        | Error _ -> incr errors
        | Ok stmt -> (
          let now = !busy_until in
          let r, d =
            timed (fun () -> Server.submit server ~now ~label stmt.Subql_sql.Parser.query)
          in
          charge d;
          submit_s := !submit_s +. d;
          busy_until := now +. d;
          match r with
          | Ok (Ok ticket) ->
            Hashtbl.replace pending ticket.Server.id
              { qid; due; start; parse; submitted = !busy_until }
          | Ok (Error _) -> incr rejected
          | Error _ -> incr errors))
      | Append { due; apply } -> (
        run_due due;
        incr appends;
        let start = Float.max due !busy_until in
        let r, d = timed (fun () -> Server.ingest server ~now:start ~label:"append" ~apply ()) in
        charge d;
        ingest_s := !ingest_s +. d;
        let stop = start +. d in
        busy_until := stop;
        append_latencies := (stop -. due) :: !append_latencies;
        match r with
        | Ok (Ok ir) ->
          (* The drained batches ran first, back to back, inside the
             call; the write and the statistics refresh followed. *)
          let t =
            List.fold_left
              (fun t (b : Server.batch_result) ->
                let t' = t +. b.Server.exec_seconds in
                finish_batch ~kind:"server.flush" ~start:t ~stop:t' b;
                t')
              start ir.Server.flushed
          in
          flushed_s := !flushed_s +. (t -. start);
          apply_s := !apply_s +. ir.Server.apply_seconds;
          if !Spans.enabled then begin
            let root = Spans.add ~query:qid ~start:due ~stop "append" in
            let span name a b = ignore (Spans.add ~parent:root ~query:qid ~start:a ~stop:b name) in
            span "loop.wait" due start;
            span "ingest.flush" start t;
            span "ingest.apply" t (t +. ir.Server.apply_seconds);
            span "ingest.refresh" (t +. ir.Server.apply_seconds) stop
          end
        | Ok (Error _) | Error _ -> incr append_failures))
    events;
  run_due infinity;
  let wall = clock () -. began in
  {
    offered = !offered;
    completed = !completed;
    wrong = !wrong;
    rejected = !rejected;
    errors = !errors;
    latencies = Array.of_list !latencies;
    services = Array.of_list !services;
    busy = !busy;
    wall;
    parse_seconds = !parse_s;
    submit_seconds = !submit_s;
    step_seconds = !step_s;
    ingest_seconds = !ingest_s;
    batches = !batches;
    batched_queries = !batched;
    queue_wait = !queue_wait;
    appends = !appends;
    append_failures = !append_failures;
    append_latencies = Array.of_list !append_latencies;
    apply_seconds = !apply_s;
    flushed_seconds = !flushed_s;
    cache_hits = !hits;
    cache_misses = !misses;
    shared_scans = !shared;
    naive_scans = !naive;
  }

(* Operations that did not complete correctly: queries shed, rejected,
   failed to parse, lost to an exception or answered wrongly, and
   appends that failed. *)
let attempted s = s.offered + s.appends

let failed s = s.offered - s.completed + s.append_failures
