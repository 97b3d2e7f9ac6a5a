open Subql_relational
open Subql

type maintainable = {
  md_node : Algebra.t;
  base_plan : Algebra.t;
  detail_plan : Algebra.t;
  detail_table : string;
  blocks : Subql_gmdj.Gmdj.block list;
  completion : Subql_gmdj.Gmdj.completion option;
  delta_pipeline : Chunk.Source.t -> Chunk.Source.t;
}

type verdict = { maintainable : maintainable option; diags : Diag.t list }

(* --- Plan walks ------------------------------------------------------- *)

(* Every MD node, completed or not, with its plan path and fields. *)
let md_nodes plan =
  let nodes = ref [] in
  let rec walk rev_path p =
    let rev_path = Algebra.node_label p :: rev_path in
    (match p with
    | Algebra.Md { base; detail; blocks; completion } ->
      nodes := (List.rev rev_path, p, (base, detail, blocks, completion)) :: !nodes
    | _ -> ());
    List.iter (walk rev_path) (Algebra.children p)
  in
  walk [] plan;
  List.rev !nodes

(* --- The detail-side effect analysis ---------------------------------- *)

(* A detail side folds append suffixes iff it is a {e row-local} pipeline
   over exactly one base-table scan: each output row is a function of one
   input row, so pipeline(prefix ++ delta) = pipeline(prefix) ++
   pipeline(delta) and the appended suffix can be streamed through the
   same operators into live accumulators.  Position-dependent operators
   (Add_rownum) and stateful ones (DISTINCT, joins, nested GMDJs) break
   that equation. *)
let rec detail_chain ~path detail =
  match detail with
  | Algebra.Table d -> Ok (d, fun src -> src)
  | Algebra.Rename (a, x) ->
    Result.map
      (fun (d, pipe) -> (d, fun src -> Ops.rename a (pipe src)))
      (detail_chain ~path x)
  | Algebra.Select (e, x) ->
    Result.map
      (fun (d, pipe) -> (d, fun src -> Ops.select e (pipe src)))
      (detail_chain ~path x)
  | Algebra.Project (ps, x) ->
    Result.map
      (fun (d, pipe) -> (d, fun src -> Ops.project ps (pipe src)))
      (detail_chain ~path x)
  | Algebra.Project_cols { cols; input } ->
    Result.map
      (fun (d, pipe) -> (d, fun src -> Ops.project_cols cols (pipe src)))
      (detail_chain ~path input)
  | Algebra.Project_rel (aliases, x) ->
    Result.map
      (fun (d, pipe) -> (d, fun src -> Ops.project_rel aliases (pipe src)))
      (detail_chain ~path x)
  | Algebra.Add_rownum (name, _) ->
    Error
      (Diag.makef ~path ~subject:name Diag.Info ~code:"ING003"
         "detail side assigns row numbers (%s): position-dependent output blocks suffix \
          folding"
         name)
  | _ ->
    Error
      (Diag.makef ~path ~subject:(Algebra.node_label detail) Diag.Info ~code:"ING003"
         "detail side contains a non-row-local operator (%s): appended rows cannot be \
          folded as a suffix"
         (Eval.node_label detail))

let not_maintainable diags = { maintainable = None; diags = Diag.sort diags }

let analyze plan =
  match md_nodes plan with
  | [] ->
    not_maintainable
      [
        Diag.info ~code:"ING001"
          "plan has no GMDJ node: nothing to maintain incrementally, appends force a \
           recompute";
      ]
  | (path, _, _) :: _ :: _ as nodes ->
    not_maintainable
      [
        Diag.makef ~path Diag.Info ~code:"ING001"
          "plan holds %d GMDJ nodes: maintaining one in place would stale the others, \
           appends force a recompute"
          (List.length nodes);
      ]
  | [ (path, md_node, (base, detail, blocks, completion)) ] -> (
    match detail_chain ~path:(path @ [ "detail" ]) detail with
    | Error d -> not_maintainable [ d ]
    | Ok (detail_table, delta_pipeline) ->
      if List.mem detail_table (Algebra.tables base) then
        not_maintainable
          [
            Diag.makef ~path:(path @ [ "base" ]) ~subject:detail_table Diag.Info
              ~code:"ING001"
              "detail table %s also feeds the base side: an append changes the \
               accumulator matrix itself, not just the folded suffix"
              detail_table;
          ]
      else
        {
          maintainable =
            Some
              { md_node; base_plan = base; detail_plan = detail; detail_table; blocks;
                completion; delta_pipeline };
          diags = [];
        })
