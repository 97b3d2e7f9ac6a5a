type codes = { dictionary : int; bound : int; codes : int array }

type t = {
  schema : Schema.t;
  buffer : Tuple.t array;
  off : int;
  len : int;
  coded : codes option array;  (** per column, or [||] when no column is coded *)
}

let default_rows = 1024

let of_array ?(off = 0) ?len schema buffer =
  let len = match len with Some l -> l | None -> Array.length buffer - off in
  if off < 0 || len < 0 || off + len > Array.length buffer then
    invalid_arg "Chunk.of_array: range out of bounds";
  { schema; buffer; off; len; coded = [||] }

let of_rows schema rows = { schema; buffer = rows; off = 0; len = Array.length rows; coded = [||] }

let with_codes coded c =
  if Array.length coded <> Schema.arity c.schema then invalid_arg "Chunk.with_codes: arity mismatch";
  Array.iter
    (function
      | Some k when Array.length k.codes <> Array.length c.buffer ->
        invalid_arg "Chunk.with_codes: codes not aligned with the buffer"
      | _ -> ())
    coded;
  { c with coded }

let codes c i = if Array.length c.coded = 0 then None else c.coded.(i)

let whole r = of_rows (Relation.schema r) (Relation.rows r)

let schema c = c.schema

let length c = c.len

let is_empty c = c.len = 0

let buffer c = c.buffer

let offset c = c.off

let get c i =
  if i < 0 || i >= c.len then invalid_arg "Chunk.get: index out of bounds";
  c.buffer.(c.off + i)

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Chunk.with_schema: arity mismatch";
  { c with schema }

let iter f c =
  for i = c.off to c.off + c.len - 1 do
    f c.buffer.(i)
  done

let fold f init c =
  let acc = ref init in
  for i = c.off to c.off + c.len - 1 do
    acc := f !acc c.buffer.(i)
  done;
  !acc

let to_rows c =
  if c.off = 0 && c.len = Array.length c.buffer then c.buffer
  else Array.sub c.buffer c.off c.len

let to_relation c = Relation.create ~check:false c.schema (to_rows c)

module Source = struct
  type chunk = t

  type t = {
    schema : Schema.t;
    mutable next_fn : unit -> chunk option;
    mutable close_fn : unit -> unit;
    mutable origin : Relation.t option;
    mutable narrow_fn : (int array -> t) option;  (** until the first pull *)
    mutable closed : bool;
  }

  let create ?(close = fun () -> ()) ?narrow ~schema next =
    { schema; next_fn = next; close_fn = close; origin = None; narrow_fn = narrow; closed = false }

  let schema s = s.schema

  let close s =
    if not s.closed then begin
      s.closed <- true;
      s.origin <- None;
      s.narrow_fn <- None;
      s.next_fn <- (fun () -> None);
      let f = s.close_fn in
      s.close_fn <- (fun () -> ());
      f ()
    end

  let next s =
    s.origin <- None;
    s.narrow_fn <- None;
    match s.next_fn () with
    | Some _ as r -> r
    | None ->
      close s;
      None

  let origin s = s.origin

  let narrow s columns =
    match s.narrow_fn with
    | None -> s
    | Some f ->
      let narrowed = f (Lazy.force columns) in
      close s;
      narrowed

  let of_relation ?(chunk_rows = default_rows) r =
    if chunk_rows <= 0 then invalid_arg "Chunk.Source.of_relation: chunk_rows <= 0";
    let rows = Relation.rows r in
    let n = Array.length rows in
    let schema = Relation.schema r in
    let pos = ref 0 in
    let s =
      create ~schema (fun () ->
          if !pos >= n then None
          else begin
            let len = min chunk_rows (n - !pos) in
            let c = { schema; buffer = rows; off = !pos; len; coded = [||] } in
            pos := !pos + len;
            Some c
          end)
    in
    s.origin <- Some r;
    s

  let empty schema = create ~schema (fun () -> None)

  let fold f init s =
    let rec loop acc = match next s with None -> acc | Some c -> loop (f acc c) in
    loop init

  let iter f s = fold (fun () c -> f c) () s

  let map ?schema f s =
    let schema = match schema with Some sc -> sc | None -> s.schema in
    let rec pull () =
      match next s with
      | None -> None
      | Some c ->
        let c = f c in
        if is_empty c then pull () else Some c
    in
    create ~schema ~close:(fun () -> close s) pull

  let concat a b =
    if Schema.arity a.schema <> Schema.arity b.schema then
      invalid_arg "Chunk.Source.concat: arity mismatch";
    create ~schema:a.schema
      ~close:(fun () ->
        close a;
        close b)
      (fun () -> match next a with Some _ as r -> r | None -> next b)

  let tap f s =
    let w =
      create ~schema:s.schema
        ~close:(fun () -> close s)
        (fun () ->
          match next s with
          | Some c as r ->
            f (length c);
            r
          | None -> None)
    in
    w.origin <- s.origin;
    w

  let to_relation s =
    match s.origin with
    | Some r ->
      close s;
      r
    | None ->
      let out = Vec.create ~dummy:([||] : Tuple.t) () in
      iter (fun c -> Vec.blit c.buffer c.off out (Vec.length out) c.len) s;
      Relation.create ~check:false s.schema (Vec.to_array out)
end

(* ------------------------------------------------------------------ *)
(* Exchange: fan a chunk stream out over OCaml domains                  *)
(* ------------------------------------------------------------------ *)

module Exchange = struct
  type worker_ctx = { index : int; scratch : Subql_obs.Metrics.Scratch.t }

  (* Bounded single-producer queue: the coordinator pushes, one worker
     pops.  [None] is the end-of-stream marker, pushed once per worker. *)
  type 'a queue = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    items : 'a Queue.t;
    cap : int;
  }

  let queue_create cap =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      items = Queue.create ();
      cap;
    }

  let queue_push q x =
    Mutex.lock q.mutex;
    while Queue.length q.items >= q.cap do
      Condition.wait q.nonfull q.mutex
    done;
    Queue.add x q.items;
    Condition.signal q.nonempty;
    Mutex.unlock q.mutex

  let queue_pop q =
    Mutex.lock q.mutex;
    while Queue.is_empty q.items do
      Condition.wait q.nonempty q.mutex
    done;
    let x = Queue.take q.items in
    Condition.signal q.nonfull;
    Mutex.unlock q.mutex;
    x

  let default_queue_depth = 8

  (* Per-chunk worker bookkeeping, counted into the worker's scratch so
     the registry (single-domain) is never touched off-coordinator. *)
  let count_chunk scratch c =
    Subql_obs.Metrics.Scratch.incr scratch "exchange.chunks";
    Subql_obs.Metrics.Scratch.incr ~by:(length c) scratch "exchange.rows"

  (* The worker loop: runs [init] / [fold] / [finish] entirely on its own
     domain (so compiled closures with private mutable buffers are built
     where they are used), draining its queue even after a failure so
     the coordinator can never block pushing to a dead worker. *)
  let worker_body ~trace_on ~init ~fold ~finish idx q () =
    let ctx = { index = idx; scratch = Subql_obs.Metrics.Scratch.create () } in
    Subql_obs.Trace.set_enabled trace_on;
    let drain () =
      let rec skip () = match queue_pop q with None -> () | Some _ -> skip () in
      skip ()
    in
    let result =
      match
        Subql_obs.Trace.with_
          ~attrs:[ ("worker", string_of_int idx) ]
          "exchange.worker"
          (fun () ->
            let acc = ref (init ctx) in
            let rec loop () =
              match queue_pop q with
              | None -> ()
              | Some c ->
                count_chunk ctx.scratch c;
                acc := fold !acc c;
                loop ()
            in
            loop ();
            finish !acc)
      with
      | r -> Ok r
      | exception e ->
        drain ();
        Error e
    in
    (result, ctx.scratch, Subql_obs.Trace.drain_local ())

  (* Re-chunk rows routed to one worker by a partition function: buffer
     until a full chunk accumulates, so workers still see batch-sized
     units of work. *)
  let flush_batch schema push batch =
    if Vec.length batch > 0 then begin
      push (Some (of_rows schema (Vec.to_array batch)));
      Vec.clear batch
    end

  let fold ?(queue_depth = default_queue_depth) ?partition ?(stop = fun _ -> false) ~domains
      ~init ~fold:step ~finish source =
    if domains <= 0 then invalid_arg "Chunk.Exchange.fold: domains must be positive";
    if domains = 1 then begin
      (* Inline fast path: same contract, no spawn.  Spans nest
         naturally and the scratch merges at the span close.  [stop] is
         consulted before every pull, so a saturated fold closes the
         source instead of reading on. *)
      let ctx = { index = 0; scratch = Subql_obs.Metrics.Scratch.create () } in
      let result =
        Subql_obs.Trace.with_
          ~attrs:[ ("domains", "1") ]
          "exchange"
          (fun () ->
            let rec pull acc =
              if stop acc then begin
                Source.close source;
                acc
              end
              else
                match Source.next source with
                | None -> acc
                | Some c ->
                  count_chunk ctx.scratch c;
                  pull (step acc c)
            in
            finish (pull (init ctx)))
      in
      Subql_obs.Metrics.Scratch.merge_into Subql_obs.Metrics.default ctx.scratch;
      [ result ]
    end
    else
      Subql_obs.Trace.with_
        ~attrs:[ ("domains", string_of_int domains) ]
        "exchange"
      @@ fun () ->
      let trace_on = Subql_obs.Trace.enabled () in
      let queues = Array.init domains (fun _ -> queue_create queue_depth) in
      let handles =
        Array.mapi
          (fun i q ->
            Domain.spawn (worker_body ~trace_on ~init ~fold:step ~finish i q))
          queues
      in
      let schema = Source.schema source in
      let feed () =
        match partition with
        | None ->
          (* Round-robin whole chunks: zero-copy, order-insensitive
             consumers only (accumulator merges are commutative). *)
          let turn = ref 0 in
          Source.iter
            (fun c ->
              queue_push queues.(!turn mod domains) (Some c);
              incr turn)
            source
        | Some key ->
          (* Hash on a key: split each chunk's rows by owner and ship
             batch-sized sub-chunks, so equal keys meet on one domain. *)
          let batches = Array.init domains (fun _ -> Vec.create ~dummy:[||] ()) in
          Source.iter
            (fun c ->
              iter
                (fun row ->
                  let owner = (key row land max_int) mod domains in
                  let batch = batches.(owner) in
                  Vec.push batch row;
                  if Vec.length batch >= default_rows then
                    flush_batch schema (queue_push queues.(owner)) batch)
                c)
            source;
          Array.iteri
            (fun i batch -> flush_batch schema (queue_push queues.(i)) batch)
            batches
      in
      let feed_error = match feed () with () -> None | exception e -> Some e in
      Array.iter (fun q -> queue_push q None) queues;
      let results = Array.map Domain.join handles in
      (* Workers joined: merge their scratches and spans on the
         coordinator while the exchange span is still open. *)
      Array.iter
        (fun (_, scratch, spans) ->
          Subql_obs.Metrics.Scratch.merge_into Subql_obs.Metrics.default scratch;
          Subql_obs.Trace.absorb spans)
        results;
      (match feed_error with Some e -> raise e | None -> ());
      Array.to_list
        (Array.map
           (fun (r, _, _) -> match r with Ok v -> v | Error e -> raise e)
           results)
end
