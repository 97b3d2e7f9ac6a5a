type codes = { dictionary : int; bound : int; values : Value.t array; codes : int array }

type column =
  | Coded of codes
  | Ints of { ints : int array; nulls : Bytes.t }
  | Floats of { floats : float array; nulls : Bytes.t }
  | Cells of Value.t array

(* A chunk holds rows, or column vectors whose rows are built the first
   time they are asked for; a chunk and its {!with_schema} relabelling
   share the vectors, and so build them at most once between them. *)
type vectors = { columns : column array; mutable rows : Tuple.t array option }

type data = Rows of Tuple.t array | Vectors of vectors

type t = { schema : Schema.t; data : data; off : int; len : int }

let default_rows = 1024

let of_array ?(off = 0) ?len schema buffer =
  let len = match len with Some l -> l | None -> Array.length buffer - off in
  if off < 0 || len < 0 || off + len > Array.length buffer then
    invalid_arg "Chunk.of_array: range out of bounds";
  { schema; data = Rows buffer; off; len }

let of_rows schema rows = { schema; data = Rows rows; off = 0; len = Array.length rows }

let column_length = function
  | Coded k -> Array.length k.codes
  | Ints { ints; _ } -> Array.length ints
  | Floats { floats; _ } -> Array.length floats
  | Cells a -> Array.length a

let of_columns schema ~len columns =
  if Array.length columns <> Schema.arity schema then invalid_arg "Chunk.of_columns: arity mismatch";
  if len < 0 || Array.exists (fun c -> column_length c < len) columns then
    invalid_arg "Chunk.of_columns: a column shorter than the chunk";
  { schema; data = Vectors { columns; rows = None }; off = 0; len }

let column c i = match c.data with Rows _ -> None | Vectors v -> Some v.columns.(i)

let[@inline] null_at nulls r =
  Bytes.length nulls > 0 && Char.code (Bytes.get nulls (r lsr 3)) land (1 lsl (r land 7)) <> 0

(* Interned small ints: dimension keys and flag-like measures dominate
   OLAP detail tables, so most [Int] cells can reuse a preallocated cell
   instead of boxing a fresh [Value.Int] per row built.  [Value.t] is
   immutable, so physical sharing is unobservable. *)
let small_ints = Array.init 1024 (fun i -> Value.Int i)

let[@inline] v_int v = if v >= 0 && v < 1024 then Array.unsafe_get small_ints v else Value.Int v

let cell col r =
  match col with
  | Coded k ->
    let c = k.codes.(r) in
    if c = k.bound - 1 then Value.Null else k.values.(c)
  | Ints { ints; nulls } -> if null_at nulls r then Value.Null else v_int ints.(r)
  | Floats { floats; nulls } -> if null_at nulls r then Value.Null else Value.Float floats.(r)
  | Cells a -> a.(r)

let built = Atomic.make 0

let rows_built () = Atomic.get built

(* A row of [width] NULL cells.  [Array.make] is a C call; a literal
   allocates inline, which matters once per row built. *)
let[@inline] null_row width : Tuple.t =
  match width with
  | 0 -> [||]
  | 1 -> [| Value.Null |]
  | 2 -> [| Value.Null; Value.Null |]
  | 3 -> [| Value.Null; Value.Null; Value.Null |]
  | 4 -> [| Value.Null; Value.Null; Value.Null; Value.Null |]
  | 5 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 6 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | 7 -> [| Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null; Value.Null |]
  | _ -> Array.make width Value.Null

(* The rows of [len] cells of every column: each column fills its slot
   of every row in one loop specialised to its kind, leaving NULLs as
   the empty row has them. *)
let build columns len =
  let rows : Tuple.t array = Array.make len [||] in
  let width = Array.length columns in
  for r = 0 to len - 1 do
    Array.unsafe_set rows r (null_row width)
  done;
  for s = 0 to width - 1 do
    match columns.(s) with
    | Coded { bound; values; codes; _ } ->
      for r = 0 to len - 1 do
        let c = Array.unsafe_get codes r in
        if c <> bound - 1 then Array.unsafe_set (Array.unsafe_get rows r) s values.(c)
      done
    | Ints { ints; nulls } ->
      if Bytes.length nulls = 0 then
        for r = 0 to len - 1 do
          Array.unsafe_set (Array.unsafe_get rows r) s (v_int (Array.unsafe_get ints r))
        done
      else
        for r = 0 to len - 1 do
          if not (null_at nulls r) then
            Array.unsafe_set (Array.unsafe_get rows r) s (v_int (Array.unsafe_get ints r))
        done
    | Floats { floats; nulls } ->
      for r = 0 to len - 1 do
        if not (null_at nulls r) then
          Array.unsafe_set (Array.unsafe_get rows r) s (Value.Float (Array.unsafe_get floats r))
      done
    | Cells a ->
      for r = 0 to len - 1 do
        Array.unsafe_set (Array.unsafe_get rows r) s (Array.unsafe_get a r)
      done
  done;
  ignore (Atomic.fetch_and_add built len);
  rows

let buffer c =
  match c.data with
  | Rows b -> b
  | Vectors ({ rows = Some b; _ }) -> b
  | Vectors v ->
    let b = build v.columns c.len in
    v.rows <- Some b;
    b

let whole r = of_rows (Relation.schema r) (Relation.rows r)

let schema c = c.schema

let length c = c.len

let is_empty c = c.len = 0

let offset c = c.off

let get c i =
  if i < 0 || i >= c.len then invalid_arg "Chunk.get: index out of bounds";
  (buffer c).(c.off + i)

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Chunk.with_schema: arity mismatch";
  { c with schema }

let iter f c =
  let buffer = buffer c in
  for i = c.off to c.off + c.len - 1 do
    f buffer.(i)
  done

let fold f init c =
  let buffer = buffer c in
  let acc = ref init in
  for i = c.off to c.off + c.len - 1 do
    acc := f !acc buffer.(i)
  done;
  !acc

let to_rows c =
  let buffer = buffer c in
  if c.off = 0 && c.len = Array.length buffer then buffer else Array.sub buffer c.off c.len

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
            let c = { schema; data = Rows rows; off = !pos; len } in
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
      iter (fun c -> Vec.blit (buffer c) c.off out (Vec.length out) c.len) s;
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
