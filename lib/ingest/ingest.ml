open Subql_relational

type policy = Maintain_on_write | Recompute_on_miss

let policy_name = function
  | Maintain_on_write -> "maintain-on-write"
  | Recompute_on_miss -> "recompute-on-miss"

let policy_of_string = function
  | "on-write" | "maintain-on-write" -> Some Maintain_on_write
  | "recompute" | "recompute-on-miss" -> Some Recompute_on_miss
  | _ -> None

(* An ingested table lives once: as the relation registered in the
   catalog.  An append grows whatever relation the catalog holds. *)
type t = {
  catalog : Catalog.t;
  policy : policy;
  maint : Maintenance.t;
  m_rows : Subql_obs.Metrics.counter;
  m_batches : Subql_obs.Metrics.counter;
}

let create ?(policy = Maintain_on_write) ?config ?delta_row_cost
    ?(registry = Subql_obs.Metrics.default) ~catalog ~cache () =
  {
    catalog;
    policy;
    maint = Maintenance.create ?config ?delta_row_cost ~registry ~catalog ~cache ();
    m_rows = Subql_obs.Metrics.counter registry "ingest.rows_appended";
    m_batches = Subql_obs.Metrics.counter registry "ingest.batches";
  }

let policy t = t.policy

let maintenance t = t.maint

let register_query t q = Maintenance.register_query t.maint q

let append t ~table rows =
  let old = Catalog.find t.catalog table in
  let schema = Relation.schema old in
  (* Checked before anything changes: a malformed row raises here. *)
  ignore (Relation.create schema rows);
  if Array.length rows = 0 then None
  else begin
    let before = Catalog.epoch t.catalog table in
    (* One registration per batch: the per-table epoch bumps atomically,
       never exposing a half-applied batch to epoch observers. *)
    Catalog.add t.catalog table
      (Relation.create ~check:false schema (Array.append (Relation.rows old) rows));
    Subql_obs.Metrics.incr ~by:(Array.length rows) t.m_rows;
    Subql_obs.Metrics.incr t.m_batches;
    match t.policy with
    | Maintain_on_write -> Some (Maintenance.sync t.maint ~table ~before rows)
    | Recompute_on_miss -> None
  end

let close _ = ()
