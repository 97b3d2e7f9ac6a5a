open Subql_relational

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

(* An ingested table lives once: as the relation registered in the
   catalog.  [tables] keeps the relation this module last registered
   for each table it appended to; an append grows it, and a sync hands
   maintenance its suffix past any row count. *)
type t = {
  catalog : Catalog.t;
  policy : policy;
  tables : (string, Relation.t) Hashtbl.t;
  maint : Maintenance.t;
  mutable dirty : bool;
  m_rows : Subql_obs.Metrics.counter;
  m_batches : Subql_obs.Metrics.counter;
}

let create ?(policy = Maintain_on_write) ?config ?delta_row_cost
    ?(registry = Subql_obs.Metrics.default) ~catalog ~cache () =
  {
    catalog;
    policy;
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

let table_rows t name = Option.map Relation.cardinality (Hashtbl.find_opt t.tables name)

(* Rows [from_row, n) of a table: the appended suffix maintenance folds. *)
let suffix rel ~from_row =
  let rows = Relation.rows rel in
  Chunk.Source.of_relation
    (Relation.create ~check:false (Relation.schema rel)
       (Array.sub rows from_row (Array.length rows - from_row)))

let sync t =
  if not t.dirty then None
  else begin
    let report =
      Maintenance.sync t.maint ~rows:(table_rows t) ~delta:(fun ~table ~from_row ->
          Option.map (suffix ~from_row) (Hashtbl.find_opt t.tables table))
    in
    t.dirty <- false;
    Some report
  end

let append t ~table rows =
  let old =
    match Hashtbl.find_opt t.tables table with
    | Some rel -> rel
    | None -> Catalog.find t.catalog table
  in
  let schema = Relation.schema old in
  (* Checked before anything changes: a malformed row raises here. *)
  ignore (Relation.create schema rows);
  if Array.length rows = 0 then Hashtbl.replace t.tables table old
  else begin
    let grown = Relation.create ~check:false schema (Array.append (Relation.rows old) rows) in
    (* One registration per batch: the per-table epoch bumps atomically,
       never exposing a half-applied batch to epoch observers. *)
    Catalog.add t.catalog table grown;
    Hashtbl.replace t.tables table grown;
    Subql_obs.Metrics.incr ~by:(Array.length rows) t.m_rows;
    Subql_obs.Metrics.incr t.m_batches;
    t.dirty <- true
  end;
  match t.policy with Maintain_on_write -> sync t | Maintain_on_read | Recompute_on_miss -> None

let before_batch t ~now:_ =
  match t.policy with
  | Maintain_on_read -> ignore (sync t)
  | Maintain_on_write | Recompute_on_miss -> ()

let close t = Hashtbl.reset t.tables
