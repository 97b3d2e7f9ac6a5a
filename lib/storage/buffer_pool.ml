type frame = { bytes : bytes; mutable last_used : int }

type stats = { page_reads : int; hits : int; evictions : int; allocations : int }

(* The pool's own accounting is mutable; the exposed [stats] record is an
   immutable snapshot of it. *)
type live = {
  mutable page_reads : int;
  mutable hits : int;
  mutable evictions : int;
  mutable allocations : int;
}

type t = {
  capacity : int;
  table : (string * int, frame) Hashtbl.t;
  mutable clock : int;
  live : live;
}

(* Pool activity also feeds the engine-wide registry, so EXPLAIN ANALYZE
   can attribute page I/O to operators by counter delta without a
   dependency on this library. *)
let m_hits = Subql_obs.Metrics.counter Subql_obs.Metrics.default "storage.buffer_pool.hits"

let m_reads =
  Subql_obs.Metrics.counter Subql_obs.Metrics.default "storage.buffer_pool.page_reads"

let m_evictions =
  Subql_obs.Metrics.counter Subql_obs.Metrics.default "storage.buffer_pool.evictions"

let m_invalidations =
  Subql_obs.Metrics.counter Subql_obs.Metrics.default "storage.buffer_pool.invalidations"

(* Every live pool, weakly held so registration never extends a pool's
   lifetime.  A heap-file append must drop the stale image of the grown
   file's last page from pools it has never seen ({!invalidate_all}) —
   pools are created freely by evaluators and tests, and any of them may
   hold a frame for the mutated path. *)
let registry : t Weak.t ref = ref (Weak.create 8)

let registered = ref 0

let register pool =
  (* Compact dead slots before growing: long-running processes create
     pools per query, and the registry must not grow with their count. *)
  let w = !registry in
  let live = ref 0 in
  for i = 0 to !registered - 1 do
    match Weak.get w i with
    | Some p ->
      if !live < i then Weak.set w !live (Some p);
      incr live
    | None -> ()
  done;
  for i = !live to !registered - 1 do
    Weak.set w i None
  done;
  registered := !live;
  if !registered >= Weak.length w then begin
    let bigger = Weak.create (2 * Weak.length w) in
    Weak.blit w 0 bigger 0 !registered;
    registry := bigger
  end;
  Weak.set !registry !registered (Some pool);
  incr registered

let create ~frames =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames must be positive";
  let t =
    {
      capacity = frames;
      table = Hashtbl.create (2 * frames);
      clock = 0;
      live = { page_reads = 0; hits = 0; evictions = 0; allocations = 0 };
    }
  in
  register t;
  t

let invalidate t ~path ~from_page =
  let victims =
    Hashtbl.fold
      (fun ((p, page) as key) _ acc ->
        if String.equal p path && page >= from_page then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) victims;
  let n = List.length victims in
  if n > 0 then Subql_obs.Metrics.incr ~by:n m_invalidations;
  n

let invalidate_all ~path ~from_page =
  let total = ref 0 in
  for i = 0 to !registered - 1 do
    match Weak.get !registry i with
    | Some pool -> total := !total + invalidate pool ~path ~from_page
    | None -> ()
  done;
  !total

let frames t = t.capacity

let stats t : stats =
  {
    page_reads = t.live.page_reads;
    hits = t.live.hits;
    evictions = t.live.evictions;
    allocations = t.live.allocations;
  }

let hit_rate t =
  let accesses = t.live.hits + t.live.page_reads in
  if accesses = 0 then 0. else float_of_int t.live.hits /. float_of_int accesses

let reset_stats t =
  t.live.page_reads <- 0;
  t.live.hits <- 0;
  t.live.evictions <- 0;
  t.live.allocations <- 0

let resident t = Hashtbl.length t.table

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Drop the least-recently-used frame and hand back its buffer for the
   incoming page to reuse. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key frame ->
      match !victim with
      | Some (_, f) when f.last_used <= frame.last_used -> ()
      | _ -> victim := Some (key, frame))
    t.table;
  match !victim with
  | Some (key, frame) ->
    Hashtbl.remove t.table key;
    t.live.evictions <- t.live.evictions + 1;
    Subql_obs.Metrics.incr m_evictions;
    Some frame.bytes
  | None -> None

let fetch t ~key ~size ~load =
  match Hashtbl.find_opt t.table key with
  | Some frame ->
    frame.last_used <- tick t;
    t.live.hits <- t.live.hits + 1;
    Subql_obs.Metrics.incr m_hits;
    frame.bytes
  | None ->
    let recycled = if Hashtbl.length t.table >= t.capacity then evict_lru t else None in
    (* Pools are shared across files, so the victim's buffer is reused
       only when it has the requested page size. *)
    let bytes =
      match recycled with
      | Some b when Bytes.length b = size -> b
      | _ ->
        t.live.allocations <- t.live.allocations + 1;
        Bytes.create size
    in
    load bytes;
    t.live.page_reads <- t.live.page_reads + 1;
    Subql_obs.Metrics.incr m_reads;
    Hashtbl.replace t.table key { bytes; last_used = tick t };
    bytes
