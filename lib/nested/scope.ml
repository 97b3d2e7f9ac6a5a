open Subql_relational
open Nested_ast

let kind_exprs = function
  | Exists | Not_exists -> []
  | Cmp_scalar (lhs, _, _) | Cmp_agg (lhs, _, _) | Quant (lhs, _, _, _) | In_ (lhs, _)
  | Not_in (lhs, _) ->
    [ lhs ]

let add_unique acc q = if List.mem q acc then acc else acc @ [ q ]

let rec collect_pred local acc = function
  | Ptrue -> acc
  | Atom e -> collect_expr local acc e
  | Pand (a, b) | Por (a, b) -> collect_pred local (collect_pred local acc a) b
  | Pnot a -> collect_pred local acc a
  | Sub s -> collect_sub local acc s

and collect_sub local acc s =
  let acc = List.fold_left (collect_expr local) acc (kind_exprs s.kind) in
  (* Aggregate arguments range over the subquery's own source; any outer
     qualifiers inside them are still free references. *)
  let acc =
    match s.kind with
    | Cmp_agg (_, _, func) -> (
      match Aggregate.arg func with
      | None -> acc
      | Some e -> collect_expr (s.s_alias :: local) acc e)
    | Exists | Not_exists | Cmp_scalar _ | Quant _ | In_ _ | Not_in _ -> acc
  in
  collect_pred (s.s_alias :: local) acc s.s_where

and collect_expr local acc e =
  List.fold_left
    (fun acc q -> if List.mem q local then acc else add_unique acc q)
    acc (Expr.qualifiers e)

let free_aliases_pred ~local p = collect_pred local [] p

let free_aliases_sub s = collect_sub [] [] s

let non_neighboring ~enclosing s =
  List.filter (fun a -> not (List.mem a enclosing)) (free_aliases_sub s)

let non_neighboring_subs q =
  let rec walk enclosing acc p =
    match p with
    | Ptrue | Atom _ -> acc
    | Pand (a, b) | Por (a, b) -> walk enclosing (walk enclosing acc a) b
    | Pnot a -> walk enclosing acc a
    | Sub s ->
      let acc =
        match non_neighboring ~enclosing s with
        | [] -> acc
        | aliases -> acc @ [ (s.s_alias, aliases) ]
      in
      walk [ s.s_alias ] acc s.s_where
  in
  walk (scope_aliases q) [] q.q_where
