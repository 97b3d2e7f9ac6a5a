type stats = { page_reads : int; hits : int; evictions : int; allocations : int }

(* The pool's own accounting is mutable; the exposed [stats] record is an
   immutable snapshot of it. *)
type live = {
  mutable page_reads : int;
  mutable hits : int;
  mutable evictions : int;
  mutable allocations : int;
}

type file = { path : string; id : int }

let next_file = Atomic.make 0

let file path = { path; id = Atomic.fetch_and_add next_file 1 }

(* A frame's key packs its file's id above its 32-bit page number, so a
   lookup hashes one int. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k = (k lxor (k lsr 32)) land max_int
end)

let key file page = (file.id lsl 32) lor page

let page_of_key k = k land 0xFFFF_FFFF

(* Frames are slots [0, capacity).  A resident slot is in [table] under
   its key, names its file in [files] and sits on a doubly linked list
   in recency order, [head] the most recently used and [tail] the next
   victim; a free slot has key -1 and sits on the [free] stack. *)
type t = {
  capacity : int;
  table : int Keys.t;
  keys : int array;
  files : file array;
  buffers : bytes array;
  prev : int array;
  next : int array;
  mutable head : int;
  mutable tail : int;
  free : int array;
  mutable n_free : int;
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
      table = Keys.create (2 * frames);
      keys = Array.make frames (-1);
      files = Array.make frames { path = ""; id = -1 };
      buffers = Array.make frames Bytes.empty;
      prev = Array.make frames (-1);
      next = Array.make frames (-1);
      head = -1;
      tail = -1;
      free = Array.init frames (fun i -> frames - 1 - i);
      n_free = frames;
      live = { page_reads = 0; hits = 0; evictions = 0; allocations = 0 };
    }
  in
  register t;
  t

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

(* Take slot [s] out of the table and the recency list. *)
let drop t s =
  unlink t s;
  Keys.remove t.table t.keys.(s);
  t.keys.(s) <- -1

let release t s =
  t.buffers.(s) <- Bytes.empty;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let invalidate t ~path ~from_page =
  let n = ref 0 in
  for s = 0 to t.capacity - 1 do
    let k = t.keys.(s) in
    if k >= 0 && page_of_key k >= from_page && String.equal t.files.(s).path path then begin
      drop t s;
      release t s;
      incr n
    end
  done;
  if !n > 0 then Subql_obs.Metrics.incr ~by:!n m_invalidations;
  !n

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

let resident t = t.capacity - t.n_free

let fetch t file ~page ~size ~load =
  let k = key file page in
  match Keys.find t.table k with
  | s ->
    if t.head <> s then begin
      unlink t s;
      push_front t s
    end;
    t.live.hits <- t.live.hits + 1;
    Subql_obs.Metrics.incr m_hits;
    t.buffers.(s)
  | exception Not_found ->
    (* A full pool evicts its least recently used frame and hands the
       victim's buffer to the incoming page when the sizes match (pools
       are shared across files of different page sizes). *)
    let s =
      if t.n_free = 0 then begin
        let s = t.tail in
        drop t s;
        t.live.evictions <- t.live.evictions + 1;
        Subql_obs.Metrics.incr m_evictions;
        s
      end
      else begin
        t.n_free <- t.n_free - 1;
        t.free.(t.n_free)
      end
    in
    let bytes =
      if Bytes.length t.buffers.(s) = size then t.buffers.(s)
      else begin
        t.live.allocations <- t.live.allocations + 1;
        Bytes.create size
      end
    in
    (match load bytes with
    | () -> ()
    | exception e ->
      release t s;
      raise e);
    t.live.page_reads <- t.live.page_reads + 1;
    Subql_obs.Metrics.incr m_reads;
    t.keys.(s) <- k;
    t.files.(s) <- file;
    t.buffers.(s) <- bytes;
    Keys.replace t.table k s;
    push_front t s;
    bytes
