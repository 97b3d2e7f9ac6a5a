(** A fixed-capacity page buffer pool with LRU replacement.

    The pool caches pages from any number of files, keyed by a {!file}
    identity and a page number.  Misses call the supplied loader; when
    the pool is full the least-recently-used page is evicted, and its
    buffer is refilled in place for the incoming page when the two
    page sizes match — a scan through a full pool allocates no page
    buffers at all.  A hit, a miss and an eviction each cost O(1): the
    frames sit on a doubly linked list in recency order, and a lookup
    hashes one int.  Pages are never mutated through the pool (heap
    files rewrite pages directly), so eviction never writes back;
    instead a file append {e invalidates} the affected tail pages in
    every live pool ({!invalidate_all}), so a pool shared across an
    append can never serve a stale last-page image.

    The stats make the paper's I/O argument observable: a coalesced GMDJ
    reads each detail page once; chained GMDJs read the file once per
    operator; a pool smaller than the file degrades gracefully
    (sequential scans miss every page rather than thrash). *)

type t

type stats = {
  page_reads : int;  (** loader invocations (misses) *)
  hits : int;
  evictions : int;
  allocations : int;
      (** page buffers created: at most {!frames} while every page has
          the same size, since a miss on a full pool reuses its
          victim's buffer *)
}
(** An immutable snapshot — {!stats} returns a copy, so mutable fields
    here would only invite the mistaken belief that writing them affects
    (or tracks) the pool. *)

val create : frames:int -> t
(** @raise Invalid_argument if [frames <= 0]. *)

val frames : t -> int

val stats : t -> stats
(** A snapshot copy — mutating it cannot corrupt the pool's own
    accounting, and it does not track later pool activity.  Every
    access is also published to {!Subql_obs.Metrics.default} under
    ["storage.buffer_pool.hits" / "page_reads" / "evictions"]. *)

val hit_rate : t -> float
(** [hits / (hits + page_reads)] since creation or the last
    {!reset_stats}; [0.] when the pool has not been accessed. *)

val reset_stats : t -> unit

type file
(** The identity of one open file's pages. *)

val file : string -> file
(** A fresh identity for pages of the file at the given path: a heap
    file handle takes one when it is opened, so two handles never share
    frames, while {!invalidate} still finds every frame of the path. *)

val fetch : t -> file -> page:int -> size:int -> load:(bytes -> unit) -> bytes
(** Page [page] of [file].  On a miss, [load] fills a [size]-byte buffer
    — the evicted victim's when it has that size, a fresh one otherwise
    — which is then cached.  LRU order, residency and the statistics
    do not depend on which buffer was used.

    The returned bytes are valid until the next [fetch] or
    {!invalidate} on this pool: a later miss may recycle them for
    another page.  Callers decode (or copy) a page before fetching
    again. *)

val resident : t -> int
(** Pages currently cached. *)

val invalidate : t -> path:string -> from_page:int -> int
(** Drop every cached frame of [path] (under any {!file} of that path)
    with page number [>= from_page];
    returns the number of frames dropped.  Dropped frames count under
    the registry counter ["storage.buffer_pool.invalidations"], not as
    evictions. *)

val invalidate_all : path:string -> from_page:int -> int
(** {!invalidate} across every live pool in the process (pools register
    themselves weakly at {!create}).  Called by [Heap_file.append] with
    the first rewritten page, this makes the no-stale-page invariant
    hold for pools the appender has never seen. *)
