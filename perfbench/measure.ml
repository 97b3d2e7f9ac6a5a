(* Counters the benchmark reads from outside the layers: the process
   metrics registry and the garbage collector. *)

module Metrics = Subql_obs.Metrics

let counter name = Metrics.counter_value_by_name Metrics.default name

(* Counter deltas across [f]: [(name, after - before)] for each name. *)
let counter_deltas names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> (name, counter name - b)) names before)

type gc = { alloc_bytes : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { alloc_bytes = Gc.allocated_bytes (); major_collections = s.Gc.major_collections }

let gc_since g0 =
  let g1 = gc_now () in
  {
    alloc_bytes = g1.alloc_bytes -. g0.alloc_bytes;
    major_collections = g1.major_collections - g0.major_collections;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
