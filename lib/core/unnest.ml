open Subql_relational
open Subql_gmdj
module N = Subql_nested.Nested_ast
module Normalize = Subql_nested.Normalize
module Scope = Subql_nested.Scope

exception Not_applicable of string

let not_applicable fmt = Format.kasprintf (fun s -> raise (Not_applicable s)) fmt

type gensym = { mutable counter : int }

let fresh g prefix =
  g.counter <- g.counter + 1;
  Printf.sprintf "%s#%d" prefix g.counter

(* ------------------------------------------------------------------ *)
(* Shared building block: aggregate a correlated range via a           *)
(* row-numbered left outer join and group-by, then join back.          *)
(* ------------------------------------------------------------------ *)

(* Returns the plan extending [acc] (which must contain the row-number
   column [rid] identifying base rows) with one column per spec, each
   aggregated over the detail rows matching [theta].  [Count_star] is
   rewritten to a count over a fresh marker column on the detail side so
   that the outer join's NULL padding is not counted (the COUNT bug). *)
let attach_aggregates g ~acc ~rid ~detail ~theta specs =
  let mark = fresh g "mark" in
  let rid2 = fresh g "rid" in
  let detail_marked = Algebra.Add_rownum (mark, detail) in
  let joined = Algebra.Join { kind = Algebra.Left_outer; cond = theta; left = acc; right = detail_marked } in
  let adjusted =
    List.map
      (fun spec ->
        match spec.Aggregate.func with
        | Aggregate.Count_star -> { spec with Aggregate.func = Aggregate.Count (Expr.attr mark) }
        | Aggregate.Count _ | Aggregate.Sum _ | Aggregate.Min _ | Aggregate.Max _
        | Aggregate.Avg _ | Aggregate.First _ ->
          spec)
      specs
  in
  let grouped =
    Algebra.Group_by { keys = Some [ (None, rid) ]; aggs = adjusted; input = joined }
  in
  let renamed =
    Algebra.Project
      ( (Expr.attr rid, rid2)
        :: List.map (fun spec -> (Expr.attr spec.Aggregate.name, spec.Aggregate.name)) specs,
        grouped )
  in
  Algebra.Join
    {
      kind = Algebra.Inner;
      cond = Expr.eq (Expr.attr rid) (Expr.attr rid2);
      left = acc;
      right = renamed;
    }

(* ------------------------------------------------------------------ *)
(* Classical conjunctive plans                                          *)
(* ------------------------------------------------------------------ *)

let rec conjunction_items = function
  | N.Pand (a, b) -> conjunction_items a @ conjunction_items b
  | N.Ptrue -> []
  | p -> [ p ]

let atoms_only pred =
  let items = conjunction_items pred in
  let exprs =
    List.map
      (function
        | N.Atom e -> e
        | N.Ptrue -> Expr.bool true
        | N.Pand _ | N.Por _ | N.Pnot _ | N.Sub _ ->
          not_applicable "classical unnesting requires a flat conjunctive inner WHERE")
      items
  in
  Expr.conjoin exprs

let via_semijoins catalog query =
  ignore catalog;
  let query = Normalize.query query in
  let g = { counter = 0 } in
  let base_alg =
    if query.N.q_alias = "" then Transform.base_to_algebra query.N.q_base
    else Algebra.Rename (query.N.q_alias, Transform.base_to_algebra query.N.q_base)
  in
  (* One shared row number keys every aggregate attachment. *)
  let rid = fresh g "rid" in
  let acc = ref (Algebra.Add_rownum (rid, base_alg)) in
  let items = conjunction_items query.N.q_where in
  let handle_item = function
    | N.Atom e -> acc := Algebra.Select (e, !acc)
    | N.Ptrue -> ()
    | N.Por _ | N.Pnot _ | N.Pand _ ->
      not_applicable "classical unnesting requires a conjunctive WHERE"
    | N.Sub s ->
      (match Scope.non_neighboring ~enclosing:(N.scope_aliases query) s with
      | [] -> ()
      | alias :: _ ->
        not_applicable "classical unnesting cannot place non-neighboring reference to %s" alias);
      let theta = atoms_only s.N.s_where in
      let src = Algebra.Rename (s.N.s_alias, Transform.base_to_algebra s.N.source) in
      let local col = Expr.attr ~rel:s.N.s_alias col in
      (match s.N.kind with
      | N.Exists ->
        acc := Algebra.Join { kind = Algebra.Semi; cond = theta; left = !acc; right = src }
      | N.Not_exists ->
        acc := Algebra.Join { kind = Algebra.Anti; cond = theta; left = !acc; right = src }
      | N.Quant (lhs, op, N.Qsome, col) ->
        let cond = Expr.and_ theta (Expr.cmp op lhs (local col)) in
        acc := Algebra.Join { kind = Algebra.Semi; cond; left = !acc; right = src }
      | N.Quant (lhs, op, N.Qall, col) ->
        (* Keep a row iff no range row fails the comparison: anti-join on
           θ ∧ ¬(lhs φ col IS TRUE). *)
        let cond =
          Expr.and_ theta (Expr.not_ (Expr.Is_true (Expr.cmp op lhs (local col))))
        in
        acc := Algebra.Join { kind = Algebra.Anti; cond; left = !acc; right = src }
      | N.Cmp_scalar (lhs, op, col) ->
        let cnt = fresh g "cnt" in
        let cond = Expr.and_ theta (Expr.cmp op lhs (local col)) in
        acc :=
          attach_aggregates g ~acc:!acc ~rid ~detail:src ~theta:cond
            [ Aggregate.count_star cnt ];
        acc := Algebra.Select (Expr.eq (Expr.attr cnt) (Expr.int 1), !acc)
      | N.Cmp_agg (lhs, op, func) ->
        let a = fresh g "agg" in
        acc :=
          attach_aggregates g ~acc:!acc ~rid ~detail:src ~theta
            [ { Aggregate.func; name = a } ];
        acc := Algebra.Select (Expr.cmp op lhs (Expr.attr a), !acc)
      | N.In_ _ | N.Not_in _ -> assert false (* removed by normalization *))
  in
  List.iter handle_item items;
  Transform.lower_tail query !acc

(* ------------------------------------------------------------------ *)
(* General expansion: GMDJ → outer joins + grouping                     *)
(* ------------------------------------------------------------------ *)

let attr_ref (a : Schema.attr) =
  ((if a.Schema.rel = "" then None else Some a.Schema.rel), a.Schema.name)

let md_to_joins ~lookup alg =
  let g = { counter = 0 } in
  let rec go alg =
    match alg with
    | Algebra.Md { completion = Some _; _ } ->
      invalid_arg "Unnest.md_to_joins: expand before completion optimization"
    | Algebra.Md { base; detail; blocks; completion = None } ->
      let base = go base and detail = go detail in
      let base_schema = Algebra.schema_of ~lookup base in
      let out_schema =
        Gmdj.output_schema ~base:base_schema
          ~detail:(Algebra.schema_of ~lookup detail)
          blocks
      in
      let rid = fresh g "rid" in
      let b0 = Algebra.Add_rownum (rid, base) in
      let acc =
        List.fold_left
          (fun acc block ->
            attach_aggregates g ~acc ~rid ~detail ~theta:block.Gmdj.theta block.Gmdj.aggs)
          b0 blocks
      in
      (* Restore the exact MD output schema (base columns then aggregate
         columns, in order). *)
      let cols = List.map attr_ref (Schema.to_list out_schema) in
      Algebra.Project_cols { cols; input = acc }
    | Algebra.Table _ | Algebra.Rename _ | Algebra.Select _ | Algebra.Project _
    | Algebra.Project_cols _ | Algebra.Project_rel _ | Algebra.Add_rownum _
    | Algebra.Product _ | Algebra.Join _ | Algebra.Group_by _ | Algebra.Union_all _
    | Algebra.Diff_all _ | Algebra.Sort _ ->
      Algebra.map_children go alg
  in
  go alg

let via_joins catalog query =
  let lookup name = Relation.schema (Catalog.find catalog name) in
  md_to_joins ~lookup (Transform.to_algebra query)

let best catalog query =
  match via_semijoins catalog query with
  | alg -> alg
  | exception Not_applicable _ -> via_joins catalog query
