open Subql_relational
open Subql_storage

type policy = Maintain_on_write | Maintain_on_read | Recompute_on_miss

let policy_name = function
  | Maintain_on_write -> "maintain-on-write"
  | Maintain_on_read -> "maintain-on-read"
  | Recompute_on_miss -> "recompute-on-miss"

let policy_of_string = function
  | "on-write" | "maintain-on-write" -> Some Maintain_on_write
  | "on-read" | "maintain-on-read" -> Some Maintain_on_read
  | "recompute" | "recompute-on-miss" -> Some Recompute_on_miss
  | _ -> None

(* Per-table append state: the heap file is the durable form (and the
   delta stream's backing store); the row vector mirrors it so the
   catalog can be re-registered per batch; marks remember where every
   batch landed so any batch-aligned suffix replays as a chunk stream
   ([Heap_file.source ~from]). *)
type table_state = {
  schema : Schema.t;
  file : Heap_file.t;
  rows : Tuple.t Vec.t;
  marks : (int, Heap_file.delta) Hashtbl.t;  (* first row of a batch -> where it landed *)
}

type t = {
  catalog : Catalog.t;
  pool : Buffer_pool.t;
  policy : policy;
  page_size : int;
  tables : (string, table_state) Hashtbl.t;
  maint : Maintenance.t;
  mutable dirty : bool;
  m_rows : Subql_obs.Metrics.counter;
  m_batches : Subql_obs.Metrics.counter;
}

let create ?(policy = Maintain_on_write) ?(page_size = 8192) ?(frames = 64) ?config
    ?delta_row_cost ?(registry = Subql_obs.Metrics.default) ~catalog ~cache () =
  {
    catalog;
    pool = Buffer_pool.create ~frames;
    policy;
    page_size;
    tables = Hashtbl.create 8;
    maint = Maintenance.create ?config ?delta_row_cost ~registry ~catalog ~cache ();
    dirty = false;
    m_rows = Subql_obs.Metrics.counter registry "ingest.rows_appended";
    m_batches = Subql_obs.Metrics.counter registry "ingest.batches";
  }

let policy t = t.policy

let dirty t = t.dirty

let maintenance t = t.maint

let register_query t q = Maintenance.register_query t.maint q

let attach t name =
  match Hashtbl.find_opt t.tables name with
  | Some st -> st
  | None ->
    let rel = Catalog.find t.catalog name in
    let path = Filename.temp_file ("subql_" ^ name ^ "_") ".heap" in
    let file = Heap_file.write ~path ~page_size:t.page_size rel in
    let rows =
      Vec.create ~capacity:(max 1 (Relation.cardinality rel)) ~dummy:Tuple.empty ()
    in
    Relation.iter (Vec.push rows) rel;
    let marks = Hashtbl.create 8 in
    Hashtbl.replace marks 0
      { Heap_file.first_page = 0; skip = 0; first_row = 0; rows = Relation.cardinality rel };
    let st = { schema = Relation.schema rel; file; rows; marks } in
    Hashtbl.replace t.tables name st;
    st

let table_rows t name = Option.map (fun st -> Vec.length st.rows) (Hashtbl.find_opt t.tables name)

let sync t =
  if not t.dirty then None
  else begin
    let report =
      Maintenance.sync t.maint
        ~rows:(fun table ->
          Option.map (fun st -> Vec.length st.rows) (Hashtbl.find_opt t.tables table))
        ~delta:(fun ~table ~from_row ->
          match Hashtbl.find_opt t.tables table with
          | None -> None
          | Some st ->
            if from_row >= Vec.length st.rows then Some (Chunk.Source.empty st.schema)
            else
              Option.map
                (fun from -> Heap_file.source ~from st.file ~pool:t.pool)
                (Hashtbl.find_opt st.marks from_row))
    in
    t.dirty <- false;
    Some report
  end

let append t ~table rows =
  let st = attach t table in
  let d = Heap_file.append st.file rows in
  if d.Heap_file.rows > 0 then begin
    Hashtbl.replace st.marks d.Heap_file.first_row d;
    Array.iter (Vec.push st.rows) rows;
    (* One registration per batch: the per-table epoch bumps atomically,
       never exposing a half-applied batch to epoch observers. *)
    Catalog.add t.catalog table (Relation.create ~check:false st.schema (Vec.to_array st.rows));
    Subql_obs.Metrics.incr ~by:d.Heap_file.rows t.m_rows;
    Subql_obs.Metrics.incr t.m_batches;
    t.dirty <- true
  end;
  match t.policy with Maintain_on_write -> sync t | Maintain_on_read | Recompute_on_miss -> None

let before_batch t ~now:_ =
  match t.policy with
  | Maintain_on_read -> ignore (sync t)
  | Maintain_on_write | Recompute_on_miss -> ()

let close t =
  Hashtbl.iter
    (fun _ st ->
      let path = Heap_file.path st.file in
      Heap_file.close st.file;
      try Sys.remove path with Sys_error _ -> ())
    t.tables;
  Hashtbl.reset t.tables
