open Subql_relational
module N = Subql_nested.Nested_ast

exception Unrepresentable of string

let unrepresentable fmt = Format.kasprintf (fun s -> raise (Unrepresentable s)) fmt

let string_literal s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let value_to_sql = function
  | Value.Null -> "NULL"
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    let s = Printf.sprintf "%.12g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Value.Str s -> string_literal s
  | Value.Bool b -> if b then "TRUE" else "FALSE"

(* [aggs] names the aggregate columns of a grouped select list: a bare
   reference to one renders as the aggregate call it stands for. *)
let rec expr_sql ~aggs = function
  | Expr.Const v -> value_to_sql v
  | Expr.Attr (None, n) -> (
    match List.find_opt (fun s -> s.Aggregate.name = n) aggs with
    | Some s -> func_to_sql s.Aggregate.func
    | None -> n)
  | Expr.Attr (Some r, n) -> r ^ "." ^ n
  | Expr.Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_sql ~aggs a) (Expr.cmp_to_string op) (expr_sql ~aggs b)
  | Expr.And (a, b) -> Printf.sprintf "(%s AND %s)" (expr_sql ~aggs a) (expr_sql ~aggs b)
  | Expr.Or (a, b) -> Printf.sprintf "(%s OR %s)" (expr_sql ~aggs a) (expr_sql ~aggs b)
  | Expr.Not a -> Printf.sprintf "(NOT %s)" (expr_sql ~aggs a)
  | Expr.Arith (op, a, b) ->
    let sym =
      match op with
      | Expr.Add -> "+"
      | Expr.Sub -> "-"
      | Expr.Mul -> "*"
      | Expr.Div -> "/"
      | Expr.Mod -> "%"
    in
    Printf.sprintf "(%s %s %s)" (expr_sql ~aggs a) sym (expr_sql ~aggs b)
  | Expr.Neg a -> Printf.sprintf "(-%s)" (expr_sql ~aggs a)
  | Expr.Is_null a -> Printf.sprintf "(%s IS NULL)" (expr_sql ~aggs a)
  | Expr.Is_not_null a -> Printf.sprintf "(%s IS NOT NULL)" (expr_sql ~aggs a)
  | Expr.Is_true _ -> unrepresentable "IS TRUE has no surface syntax"
  | Expr.Null_safe_eq _ -> unrepresentable "null-safe equality has no surface syntax"

and func_to_sql func =
  let arg e = expr_sql ~aggs:[] e in
  match func with
  | Aggregate.Count_star -> "COUNT(*)"
  | Aggregate.Count e -> Printf.sprintf "COUNT(%s)" (arg e)
  | Aggregate.Sum e -> Printf.sprintf "SUM(%s)" (arg e)
  | Aggregate.Min e -> Printf.sprintf "MIN(%s)" (arg e)
  | Aggregate.Max e -> Printf.sprintf "MAX(%s)" (arg e)
  | Aggregate.Avg e -> Printf.sprintf "AVG(%s)" (arg e)
  | Aggregate.First e -> Printf.sprintf "FIRST(%s)" (arg e)

let expr_to_sql = expr_sql ~aggs:[]

(* FROM items of a base: only tables, aliased tables, and products. *)
let rec from_items = function
  | N.Btable t -> [ (t, t) ]
  | N.Balias (a, N.Btable t) -> [ (t, a) ]
  | N.Bproduct (l, r) -> from_items l @ from_items r
  | N.Balias (_, _) | N.Bselect _ | N.Bproject _ ->
    unrepresentable "base has no FROM syntax in the dialect"

let from_clause base alias =
  match base, alias with
  | N.Btable t, "" -> t
  | N.Btable t, a -> Printf.sprintf "%s %s" t a
  | b, "" ->
    String.concat ", "
      (List.map
         (fun (t, a) -> if t = a then t else Printf.sprintf "%s %s" t a)
         (from_items b))
  | _, _ -> unrepresentable "an aliased compound base has no FROM syntax"

let rec pred_to_sql = function
  | N.Ptrue -> "TRUE = TRUE"
  | N.Atom e -> expr_to_sql e
  | N.Pand (a, b) -> Printf.sprintf "(%s AND %s)" (pred_to_sql a) (pred_to_sql b)
  | N.Por (a, b) -> Printf.sprintf "(%s OR %s)" (pred_to_sql a) (pred_to_sql b)
  | N.Pnot a -> Printf.sprintf "(NOT %s)" (pred_to_sql a)
  | N.Sub s -> sub_to_sql s

and sub_body ?(sel = "*") s =
  let where =
    match s.N.s_where with N.Ptrue -> "" | w -> " WHERE " ^ pred_to_sql w
  in
  Printf.sprintf "(SELECT %s FROM %s %s%s)" sel (from_clause s.N.source "") s.N.s_alias where

and sub_to_sql s =
  match s.N.kind with
  | N.Exists -> "EXISTS " ^ sub_body s
  | N.Not_exists -> "NOT EXISTS " ^ sub_body s
  | N.Quant (lhs, op, q, col) ->
    Printf.sprintf "%s %s %s %s" (expr_to_sql lhs) (Expr.cmp_to_string op)
      (match q with N.Qsome -> "SOME" | N.Qall -> "ALL")
      (sub_body ~sel:col s)
  | N.In_ (lhs, col) -> Printf.sprintf "%s IN %s" (expr_to_sql lhs) (sub_body ~sel:col s)
  | N.Not_in (lhs, col) ->
    Printf.sprintf "%s NOT IN %s" (expr_to_sql lhs) (sub_body ~sel:col s)
  | N.Cmp_scalar (lhs, op, col) ->
    Printf.sprintf "%s %s %s" (expr_to_sql lhs) (Expr.cmp_to_string op) (sub_body ~sel:col s)
  | N.Cmp_agg (lhs, op, func) ->
    Printf.sprintf "%s %s %s" (expr_to_sql lhs) (Expr.cmp_to_string op)
      (sub_body ~sel:(func_to_sql func) s)

let col_to_sql = function None, n -> n | Some r, n -> r ^ "." ^ n

let items_to_sql ~aggs exprs =
  String.concat ", "
    (List.map (fun (e, n) -> Printf.sprintf "%s AS %s" (expr_sql ~aggs e) n) exprs)

let select_to_sql = function
  | N.Select_all -> "*"
  | N.Select_cols cols -> String.concat ", " (List.map col_to_sql cols)
  | N.Select_exprs exprs -> items_to_sql ~aggs:[] exprs
  | N.Select_grouped g -> items_to_sql ~aggs:g.N.aggs g.N.out

let tail_to_sql q =
  let grouping =
    match q.N.q_select with
    | N.Select_grouped g ->
      (match g.N.keys with
      | [] -> ""
      | keys -> " GROUP BY " ^ String.concat ", " (List.map col_to_sql keys))
      ^ (match g.N.having with
        | Some h -> " HAVING " ^ expr_sql ~aggs:g.N.aggs h
        | None -> "")
    | N.Select_all | N.Select_cols _ | N.Select_exprs _ -> ""
  in
  let order =
    match q.N.q_order_by with
    | [] -> ""
    | by ->
      " ORDER BY "
      ^ String.concat ", "
          (List.map
             (fun (c, dir) ->
               col_to_sql c ^ match dir with `Asc -> " ASC" | `Desc -> " DESC")
             by)
  in
  let limit = match q.N.q_limit with Some n -> Printf.sprintf " LIMIT %d" n | None -> "" in
  grouping ^ order ^ limit

let query_to_sql q =
  let where =
    match q.N.q_where with N.Ptrue -> "" | w -> " WHERE " ^ pred_to_sql w
  in
  Printf.sprintf "SELECT %s%s FROM %s%s%s"
    (if q.N.q_distinct then "DISTINCT " else "")
    (select_to_sql q.N.q_select)
    (from_clause q.N.q_base q.N.q_alias)
    where (tail_to_sql q)
