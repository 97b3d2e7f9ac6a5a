open Subql_relational
open Subql_gmdj
open Subql_mqo
open Subql_analysis

(* Each view is the plan the result cache serves under its fingerprint
   ([Batch.solo_plan]).  Delta-maintainability is decided by the static
   effect analysis [Subql_analysis.Deltaable]: a plan qualifies when its
   single GMDJ, plain or completed, has a detail side that is a
   row-local operator chain over one base table the base side does not
   read.  The analysis also compiles the proof into
   a runnable [delta_pipeline] — the detail chain as a stream
   transformer — which is what [sync] feeds each appended batch through.
   The refused plans keep their ING diagnostics, so a caller can see
   {e why} a view recomputes. *)

type view = {
  fingerprint : string;
  plan : Subql.Algebra.t;
  deps : string list;  (* base tables the plan reads, sorted *)
  maintainable : Deltaable.maintainable option;
  why_not : Diag.t list;  (* ING diagnostics when not maintainable *)
  mutable state : Gmdj.Maintain.t option;
  mutable synced : (string * int) list;  (* table -> epoch at last sync *)
}

type t = {
  catalog : Catalog.t;
  cache : Result_cache.t;
  config : Subql.Eval.config;
  delta_row_cost : float;
  views : (string, view) Hashtbl.t;
  mutable stats_cache : (Subql.Cost.Stats.t * float) option;
      (* stats + total catalog rows at snapshot time *)
  m_delta : Subql_obs.Metrics.counter;
  m_recompute : Subql_obs.Metrics.counter;
}

type report = {
  views : int;
  delta_maintained : int;
  recomputed : int;
  delta_rows : int;
  avoided_rows : int;
}

let create ?(config = Subql.Eval.default_config) ?(delta_row_cost = 4.)
    ?(registry = Subql_obs.Metrics.default) ~catalog ~cache () =
  {
    catalog;
    cache;
    config;
    delta_row_cost;
    views = Hashtbl.create 16;
    stats_cache = None;
    m_delta = Subql_obs.Metrics.counter registry "ingest.maintain.delta";
    m_recompute = Subql_obs.Metrics.counter registry "ingest.maintain.recompute";
  }

(* ------------------------------------------------------------------ *)
(* Registration                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot_epochs (t : t) deps = List.map (fun d -> (d, Catalog.epoch t.catalog d)) deps

let register_query (t : t) q =
  let e = Batch.prepare q in
  let fingerprint = Batch.fingerprint e in
  if Hashtbl.mem t.views fingerprint then false
  else begin
    (* The plan the batch layer caches and serves, completion included:
       repairs land on exactly the answer the cache holds. *)
    let plan = Batch.solo_plan e in
    let deps = Subql.Algebra.tables plan in
    let verdict = Deltaable.analyze plan in
    Hashtbl.replace t.views fingerprint
      {
        fingerprint;
        plan;
        deps;
        maintainable = verdict.Deltaable.maintainable;
        why_not = verdict.Deltaable.diags;
        state = None;
        synced = snapshot_epochs t deps;
      };
    true
  end

let is_maintainable (t : t) ~fingerprint =
  match Hashtbl.find_opt t.views fingerprint with
  | Some v -> Option.is_some v.maintainable
  | None -> false

let why_not_maintainable (t : t) ~fingerprint =
  match Hashtbl.find_opt t.views fingerprint with
  | Some v -> v.why_not
  | None -> []

(* ------------------------------------------------------------------ *)
(* Synchronisation                                                      *)
(* ------------------------------------------------------------------ *)

let eval_via_state (t : t) v (m : Deltaable.maintainable) state =
  (* Splice the maintained accumulators into the registered plan: the
     override answers the [Md] subterm, the surrounding operators run
     normally over its (small) output. *)
  Subql.Eval.eval ~config:t.config
    ~override:(fun node ->
      if node == m.Deltaable.md_node then Some (Gmdj.Maintain.result state) else None)
    t.catalog v.plan

(* Rebuild the maintained accumulators from scratch — one full detail
   scan through the whole detail chain — and answer the plan through
   them, so the scan also serves the recomputation. *)
let rebuild (t : t) v (m : Deltaable.maintainable) =
  let base = Subql.Eval.eval ~config:t.config t.catalog m.Deltaable.base_plan in
  let detail = Subql.Eval.eval ~config:t.config t.catalog m.Deltaable.detail_plan in
  let state =
    Gmdj.Maintain.create ~strategy:t.config.Subql.Eval.gmdj_strategy
      ?completion:m.Deltaable.completion ~base ~detail m.Deltaable.blocks
  in
  v.state <- Some state;
  eval_via_state t v m state

(* Cost stats are only consulted to price delta folds against full MD
   recomputes, a decision with order-of-magnitude margins — so the
   distinct-count scan behind [Stats.of_catalog] (every column of every
   table) is cached and refreshed only once the catalog has grown 25%
   past the snapshot.  Recomputing it per append would cost more than
   the folds it prices. *)
let catalog_rows (t : t) =
  List.fold_left
    (fun acc name ->
      acc +. float_of_int (Relation.cardinality (Catalog.find t.catalog name)))
    0. (Catalog.tables t.catalog)

let stats (t : t) =
  let total = catalog_rows t in
  match t.stats_cache with
  | Some (s, at) when total <= at *. 1.25 -> s
  | _ ->
    let s = Subql.Cost.Stats.of_catalog t.catalog in
    t.stats_cache <- Some (s, total);
    s

let decide_delta (t : t) ~stats (m : Deltaable.maintainable) ~delta_n =
  (* Price the delta fold against recomputing just the MD node; the
     operators around it run in either path. *)
  let n_blocks = float_of_int (List.length m.Deltaable.blocks) in
  let cost_delta = t.delta_row_cost *. float_of_int delta_n *. n_blocks in
  let cost_full =
    (Subql.Cost.estimate stats ~config:t.config m.Deltaable.md_node).Subql.Cost.cost
  in
  cost_delta < cost_full

let sync (t : t) ~table ~before batch =
  let stats = lazy (stats t) in
  let delta_maintained = ref 0
  and recomputed = ref 0
  and delta_rows = ref 0
  and avoided_rows = ref 0 in
  (* Deterministic view order, so costs and metrics are reproducible. *)
  let views =
    Hashtbl.fold (fun _ v acc -> v :: acc) t.views []
    |> List.sort (fun a b -> String.compare a.fingerprint b.fingerprint)
  in
  List.iter
    (fun v ->
      let changed =
        List.filter (fun (d, e) -> Catalog.epoch t.catalog d <> e) v.synced |> List.map fst
      in
      (* A view whose tables did not move is still the answer its entry
         holds, and that entry is still current: nothing to do. *)
      if changed <> [] then begin
        (* Fold [batch] only when it is all that moved the view since its
           last sync: its detail table alone moved, and from the epoch the
           fold state was synced at.  Any other registration of the table
           in between leaves state that predates the catalog's relation,
           so the view rebuilds. *)
        let via_delta =
          match (v.maintainable, v.state) with
          | Some m, Some state
            when changed = [ table ]
                 && String.equal m.Deltaable.detail_table table
                 && List.assoc table v.synced = before
                 && decide_delta t ~stats:(Lazy.force stats) m ~delta_n:(Array.length batch) ->
            let rel = Catalog.find t.catalog table in
            let src =
              Chunk.Source.of_relation
                (Relation.create ~check:false (Relation.schema rel) batch)
            in
            (* The accumulators advance by the rows that survive the
               detail chain. *)
            let folded = Gmdj.Maintain.insert_source state (m.Deltaable.delta_pipeline src) in
            delta_rows := !delta_rows + folded;
            avoided_rows := !avoided_rows + (Relation.cardinality rel - Array.length batch);
            Some (eval_via_state t v m state)
          | _ -> None
        in
        v.synced <- snapshot_epochs t v.deps;
        let rel =
          match via_delta with
          | Some rel ->
            incr delta_maintained;
            Subql_obs.Metrics.incr t.m_delta;
            rel
          | None -> (
            incr recomputed;
            Subql_obs.Metrics.incr t.m_recompute;
            match v.maintainable with
            | Some m -> rebuild t v m
            | None -> Subql.Eval.eval ~config:t.config t.catalog v.plan)
        in
        (* A view never admitted to the cache stays out — repair is not
           admission — so the cache's cost policy is preserved. *)
        ignore (Result_cache.repair t.cache ~catalog:t.catalog ~fingerprint:v.fingerprint rel)
      end)
    views;
  {
    views = List.length views;
    delta_maintained = !delta_maintained;
    recomputed = !recomputed;
    delta_rows = !delta_rows;
    avoided_rows = !avoided_rows;
  }
