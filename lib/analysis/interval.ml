open Subql_relational
open Subql

type certified = {
  certificate : Cost.certificate;
  diags : Diag.t list;
}

(* The certificate is sound by construction; the only analysis-level
   finding is {e vacuity} — an infinite bound certifies nothing, and the
   tree pinpoints which scans lost the statistics. *)
let unknown_tables stats plan =
  List.filter
    (fun t -> Cost.Stats.table_rows_opt stats t = None)
    (Algebra.tables plan)

let certify ?(config = Eval.default_config) stats plan =
  let certificate = Cost.memory_height_certified stats ~config plan in
  let diags =
    if Float.is_finite certificate.Cost.bound then []
    else
      match unknown_tables stats plan with
      | [] ->
        [
          Diag.warning ~code:"IVL001"
            "certified memory bound is infinite: an operator's cardinality interval is \
             unbounded";
        ]
      | ts ->
        List.map
          (fun t ->
            Diag.makef ~subject:t Diag.Warning ~code:"IVL001"
              "certified memory bound is infinite: no row-count statistics for table %s"
              t)
          ts
  in
  { certificate; diags = Diag.sort diags }

(* JSON cannot carry infinity; an unbounded hi serializes as "inf" so
   check.sh's finite-bound gate can grep for it literally. *)
let json_bound f =
  let open Subql_obs.Json in
  if Float.is_finite f then Float f else Str "inf"

let rec tree_to_json (t : Cost.Interval.tree) =
  let open Subql_obs.Json in
  Obj
    [
      ("op", Str t.Cost.Interval.op);
      ("path", List (List.map (fun s -> Str s) t.Cost.Interval.path));
      ("lo", Float t.Cost.Interval.ival.Cost.Interval.lo);
      ("hi", json_bound t.Cost.Interval.ival.Cost.Interval.hi);
      ("children", List (List.map tree_to_json t.Cost.Interval.children));
    ]

let certificate_to_json (c : Cost.certificate) =
  let open Subql_obs.Json in
  Obj
    [
      ("bound", json_bound c.Cost.bound);
      ("spill_bound", Float c.Cost.spill_bound);
      ("argmax_op", Str c.Cost.argmax_op);
      ("argmax_path", List (List.map (fun s -> Str s) c.Cost.argmax_path));
      ("argmax_rows", json_bound c.Cost.argmax_rows);
      ("intervals", tree_to_json c.Cost.tree);
    ]
