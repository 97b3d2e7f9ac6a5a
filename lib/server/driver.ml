(* Virtual-time trace replay against the serving loop.  Arrivals are
   trace-given; measured evaluation seconds are the only other thing
   that advances the clock (the server is single-threaded, so a batch
   due while another evaluates starts at busy-until). *)

type event = { at : float; label : string; query : Subql_nested.Nested_ast.query }

type summary = {
  offered : int;
  completed : int;
  rejected_budget : int;
  shed : int;
  retries : int;
  batches : int;
  duration : float;
  exec_seconds : float;
  latencies : float array;
  detail_scans : int;
  naive_detail_scans : int;
  cache_hits : int;
  cache_misses : int;
  max_queue_depth : int;
}

let percentile sorted p =
  if p < 0. || p > 100. then invalid_arg "Driver.percentile: p must be in [0, 100]";
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))

(* Mutable tallies shared by both drive disciplines. *)
type acc = {
  mutable a_offered : int;
  mutable a_completed : int;
  mutable a_budget : int;
  mutable a_shed : int;
  mutable a_retries : int;
  mutable a_batches : int;
  mutable a_exec : float;
  mutable a_latencies : float list;
  mutable a_scans : int;
  mutable a_naive : int;
  mutable a_hits : int;
  mutable a_misses : int;
  mutable a_max_depth : int;
  mutable a_last_done : float;
  mutable a_busy : float;  (* completion time of the latest batch *)
}

let fresh_acc () =
  {
    a_offered = 0;
    a_completed = 0;
    a_budget = 0;
    a_shed = 0;
    a_retries = 0;
    a_batches = 0;
    a_exec = 0.;
    a_latencies = [];
    a_scans = 0;
    a_naive = 0;
    a_hits = 0;
    a_misses = 0;
    a_max_depth = 0;
    a_last_done = 0.;
    a_busy = 0.;
  }

let absorb acc (b : Server.batch_result) =
  let r = b.Server.report in
  acc.a_batches <- acc.a_batches + 1;
  acc.a_exec <- acc.a_exec +. b.Server.exec_seconds;
  acc.a_scans <- acc.a_scans + r.Subql_mqo.Batch.shared_detail_scans;
  acc.a_naive <- acc.a_naive + r.Subql_mqo.Batch.naive_detail_scans;
  acc.a_hits <- acc.a_hits + r.Subql_mqo.Batch.cache_hits;
  acc.a_misses <- acc.a_misses + r.Subql_mqo.Batch.cache_misses;
  List.iter
    (fun (c : Server.completion) ->
      acc.a_completed <- acc.a_completed + 1;
      acc.a_latencies <-
        (c.Server.completed -. c.Server.ticket.Server.submitted) :: acc.a_latencies;
      acc.a_last_done <- max acc.a_last_done c.Server.completed)
    b.Server.completions;
  acc.a_busy <- max acc.a_busy (b.Server.closed_at +. b.Server.exec_seconds)

let summarize acc =
  let latencies = Array.of_list acc.a_latencies in
  Array.sort compare latencies;
  {
    offered = acc.a_offered;
    completed = acc.a_completed;
    rejected_budget = acc.a_budget;
    shed = acc.a_shed;
    retries = acc.a_retries;
    batches = acc.a_batches;
    duration = acc.a_last_done;
    exec_seconds = acc.a_exec;
    latencies;
    detail_scans = acc.a_scans;
    naive_detail_scans = acc.a_naive;
    cache_hits = acc.a_hits;
    cache_misses = acc.a_misses;
    max_queue_depth = acc.a_max_depth;
  }

(* Seal every batch that comes due at or before [horizon], respecting
   busy-until: a due batch cannot start while a previous one is still
   evaluating. *)
let run_due server acc ~horizon =
  let rec go () =
    match Server.next_deadline server with
    | None -> ()
    | Some d ->
      let close = max d acc.a_busy in
      if close <= horizon then (
        match Server.step server ~now:close with
        | Some b ->
          absorb acc b;
          go ()
        | None -> ())
  in
  go ()

let note_depth server acc =
  acc.a_max_depth <- max acc.a_max_depth (Server.queue_depth server)

(* --- mixed ingest + query replay ------------------------------------- *)

type ingest_event = { at : float; label : string; apply : unit -> int }

type mixed_event = Query of event | Ingest of ingest_event

type mixed_summary = {
  queries : summary;
  ingest_batches : int;
  ingest_rows : int;
  ingest_seconds : float;
}

let replay_mixed server events =
  let at = function Query e -> e.at | Ingest i -> i.at in
  let events = List.sort (fun a b -> compare (at a) (at b)) events in
  let acc = fresh_acc () in
  let last_at = ref 0. in
  let batches = ref 0 and rows = ref 0 and isecs = ref 0. in
  List.iter
    (fun ev ->
      run_due server acc ~horizon:(at ev);
      last_at := max !last_at (at ev);
      match ev with
      | Query e -> (
        acc.a_offered <- acc.a_offered + 1;
        (match Server.submit server ~now:e.at ~label:e.label e.query with
        | Ok _ -> ()
        | Error r -> (
          match r.Admission.retry_after with
          | Some _ -> acc.a_shed <- acc.a_shed + 1
          | None -> acc.a_budget <- acc.a_budget + 1));
        note_depth server acc;
        run_due server acc ~horizon:e.at)
      | Ingest i -> (
        (* The write waits for the evaluator like everything else. *)
        let start = max i.at acc.a_busy in
        match Server.ingest server ~now:start ~label:i.label ~apply:i.apply () with
        | Ok r ->
          (* The drained batches ran first, against the pre-append
             snapshot; then the write occupied the loop. *)
          List.iter (absorb acc) r.Server.flushed;
          incr batches;
          rows := !rows + r.Server.ingested_rows;
          isecs := !isecs +. r.Server.apply_seconds;
          acc.a_busy <- max acc.a_busy start +. r.Server.apply_seconds
        | Error _ -> ()))
    events;
  List.iter (absorb acc) (Server.drain server ~now:(max !last_at acc.a_busy));
  {
    queries = summarize acc;
    ingest_batches = !batches;
    ingest_rows = !rows;
    ingest_seconds = !isecs;
  }

let replay server events = (replay_mixed server (List.map (fun e -> Query e) events)).queries

(* --- closed loop ----------------------------------------------------- *)

type client = {
  mutable stream : (string * Subql_nested.Nested_ast.query) list;
  mutable ready_at : float option;  (* next submit time; None = waiting or done *)
}

let run_closed server ~clients ~think =
  if think < 0. then invalid_arg "Driver.run_closed: negative think time";
  let acc = fresh_acc () in
  let cs = Array.of_list (List.map (fun stream -> { stream; ready_at = Some 0. }) clients) in
  let owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_submit () =
    Array.to_seqi cs
    |> Seq.filter_map (fun (i, c) -> Option.map (fun t -> (t, i)) c.ready_at)
    |> Seq.fold_left (fun best x -> match best with
         | None -> Some x
         | Some (bt, _) -> if fst x < bt then Some x else best)
         None
  in
  let on_completions (b : Server.batch_result) =
    absorb acc b;
    List.iter
      (fun (c : Server.completion) ->
        match Hashtbl.find_opt owner c.Server.ticket.Server.id with
        | None -> ()
        | Some ci ->
          Hashtbl.remove owner c.Server.ticket.Server.id;
          if cs.(ci).stream <> [] then
            cs.(ci).ready_at <- Some (c.Server.completed +. think))
      b.Server.completions
  in
  let submit_for ci t =
    let c = cs.(ci) in
    match c.stream with
    | [] -> c.ready_at <- None
    | (label, query) :: rest -> (
      acc.a_offered <- acc.a_offered + 1;
      match Server.submit server ~now:t ~label query with
      | Ok ticket ->
        Hashtbl.replace owner ticket.Server.id ci;
        c.stream <- rest;
        c.ready_at <- None;
        note_depth server acc
      | Error r -> (
        match r.Admission.retry_after with
        | Some after ->
          acc.a_shed <- acc.a_shed + 1;
          acc.a_retries <- acc.a_retries + 1;
          c.ready_at <- Some (t +. after)
        | None ->
          acc.a_budget <- acc.a_budget + 1;
          c.stream <- rest;
          c.ready_at <- (if rest = [] then None else Some (t +. think))))
  in
  let rec loop () =
    let submit = next_submit () in
    let batch =
      Option.map (fun d -> max d acc.a_busy) (Server.next_deadline server)
    in
    match (submit, batch) with
    | None, None -> ()
    | Some (t, ci), None ->
      submit_for ci t;
      loop ()
    | None, Some bt ->
      (match Server.step server ~now:bt with Some b -> on_completions b | None -> ());
      loop ()
    | Some (t, ci), Some bt ->
      (* On a tie the submit goes first, so it can ride in the batch
         that is about to seal. *)
      if t <= bt then submit_for ci t
      else (
        match Server.step server ~now:bt with Some b -> on_completions b | None -> ());
      loop ()
  in
  loop ();
  summarize acc
