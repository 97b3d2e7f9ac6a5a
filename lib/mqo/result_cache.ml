open Subql_relational

type entry = {
  relation : Relation.t;
  bytes : int;
  catalog : Catalog.t;  (* the catalog the relation was computed from *)
  epochs : (string * int) list;  (* each table the plan reads, at its epoch then *)
  mutable last_used : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  max_bytes : int;
  min_cost : float;
  mutable total_bytes : int;
  mutable clock : int;
  m_hits : Subql_obs.Metrics.counter;
  m_misses : Subql_obs.Metrics.counter;
  m_evictions : Subql_obs.Metrics.counter;
  m_repaired : Subql_obs.Metrics.counter;
  m_invalidated : Subql_obs.Metrics.counter;
  m_bytes : Subql_obs.Metrics.gauge;
}

let create ?(max_bytes = 64 * 1024 * 1024) ?(min_cost = 1000.)
    ?(registry = Subql_obs.Metrics.default) () =
  if max_bytes <= 0 then invalid_arg "Result_cache.create: max_bytes must be positive";
  {
    table = Hashtbl.create 64;
    max_bytes;
    min_cost;
    total_bytes = 0;
    clock = 0;
    m_hits = Subql_obs.Metrics.counter registry "mqo.cache.hits";
    m_misses = Subql_obs.Metrics.counter registry "mqo.cache.misses";
    m_evictions = Subql_obs.Metrics.counter registry "mqo.cache.evictions";
    m_repaired = Subql_obs.Metrics.counter registry "mqo.cache.repaired";
    m_invalidated = Subql_obs.Metrics.counter registry "mqo.cache.invalidated";
    m_bytes = Subql_obs.Metrics.gauge registry "mqo.cache.bytes";
  }

(* Estimated resident size: OCaml boxes most values, so charge word-level
   overheads rather than payload sizes alone. *)
let value_bytes = function
  | Value.Null | Value.Bool _ -> 8
  | Value.Int _ -> 8
  | Value.Float _ -> 16
  | Value.Str s -> 24 + String.length s

let approx_bytes rel =
  let per_row = 16 (* array header + slot *) in
  Relation.fold
    (fun acc row -> acc + per_row + Array.fold_left (fun a v -> a + value_bytes v) 0 row)
    0 rel

let publish t =
  Subql_obs.Metrics.set t.m_bytes (float_of_int t.total_bytes)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let remove t fp =
  match Hashtbl.find_opt t.table fp with
  | Some e ->
    Hashtbl.remove t.table fp;
    t.total_bytes <- t.total_bytes - e.bytes
  | None -> ()

let snapshot catalog tables = List.map (fun name -> (name, Catalog.epoch catalog name)) tables

let current e catalog =
  e.catalog == catalog
  && List.for_all (fun (name, epoch) -> Catalog.epoch catalog name = epoch) e.epochs

let lookup t ~catalog fp =
  match Hashtbl.find_opt t.table fp with
  | Some e when current e catalog ->
    e.last_used <- tick t;
    Subql_obs.Metrics.incr t.m_hits;
    Some e.relation
  | Some _ ->
    (* Stale: asked of another catalog, or a table the plan reads changed
       since this was computed.  Drop eagerly so the space is reusable. *)
    remove t fp;
    publish t;
    Subql_obs.Metrics.incr t.m_invalidated;
    Subql_obs.Metrics.incr t.m_misses;
    None
  | None ->
    Subql_obs.Metrics.incr t.m_misses;
    None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun fp e ->
      match !victim with
      | Some (_, v) when v.last_used <= e.last_used -> ()
      | _ -> victim := Some (fp, e))
    t.table;
  match !victim with
  | Some (fp, _) ->
    remove t fp;
    Subql_obs.Metrics.incr t.m_evictions
  | None -> ()

let store t ~catalog ~tables ~fingerprint ~cost relation =
  let bytes = approx_bytes relation in
  if cost < t.min_cost || bytes > t.max_bytes then false
  else begin
    remove t fingerprint;
    while t.total_bytes + bytes > t.max_bytes && Hashtbl.length t.table > 0 do
      evict_lru t
    done;
    Hashtbl.replace t.table fingerprint
      {
        relation;
        bytes;
        catalog;
        epochs = snapshot catalog tables;
        last_used = tick t;
      };
    t.total_bytes <- t.total_bytes + bytes;
    publish t;
    true
  end

let peek t fp =
  Option.map (fun e -> e.relation) (Hashtbl.find_opt t.table fp)

let repair t ~catalog ~fingerprint relation =
  match Hashtbl.find_opt t.table fingerprint with
  | Some old when old.catalog == catalog ->
    let bytes = approx_bytes relation in
    t.total_bytes <- t.total_bytes - old.bytes + bytes;
    Hashtbl.replace t.table fingerprint
      {
        old with
        relation;
        bytes;
        epochs = snapshot catalog (List.map fst old.epochs);
        last_used = tick t;
      };
    (* The repaired entry just got the freshest tick, so LRU eviction
       spares it; the > 1 guard keeps an over-budget repair from spinning
       on its own entry. *)
    while t.total_bytes > t.max_bytes && Hashtbl.length t.table > 1 do
      evict_lru t
    done;
    publish t;
    Subql_obs.Metrics.incr t.m_repaired;
    true
  | _ -> false

let entries t = Hashtbl.length t.table

let resident_bytes t = t.total_bytes

let clear t =
  Hashtbl.reset t.table;
  t.total_bytes <- 0;
  publish t
