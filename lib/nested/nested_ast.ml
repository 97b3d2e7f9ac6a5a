open Subql_relational

type quant = Qsome | Qall

type base =
  | Btable of string
  | Bselect of Expr.t * base
  | Bproject of { cols : string list; distinct : bool; input : base }
  | Bproduct of base * base
  | Balias of string * base

type sub_kind =
  | Exists
  | Not_exists
  | Cmp_scalar of Expr.t * Expr.cmp * string
  | Cmp_agg of Expr.t * Expr.cmp * Aggregate.func
  | Quant of Expr.t * Expr.cmp * quant * string
  | In_ of Expr.t * string
  | Not_in of Expr.t * string

type pred =
  | Ptrue
  | Atom of Expr.t
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred
  | Sub of sub

and sub = { kind : sub_kind; source : base; s_alias : string; s_where : pred }

type select =
  | Select_all
  | Select_cols of (string option * string) list
  | Select_exprs of (Expr.t * string) list
  | Select_grouped of grouped

and grouped = {
  keys : (string option * string) list;
  aggs : Aggregate.spec list;
  having : Expr.t option;
  out : (Expr.t * string) list;
}

type order_key = (string option * string) * [ `Asc | `Desc ]

type query = {
  q_base : base;
  q_alias : string;
  q_where : pred;
  q_select : select;
  q_distinct : bool;
  q_order_by : order_key list;
  q_limit : int option;
}

let table name = Btable name

let query ?(select = Select_all) ?(distinct = false) ?(order_by = []) ?limit ~base ~alias
    where =
  {
    q_base = base;
    q_alias = alias;
    q_where = where;
    q_select = select;
    q_distinct = distinct;
    q_order_by = order_by;
    q_limit = limit;
  }

let mk_sub kind ?(where = Ptrue) source s_alias =
  Sub { kind; source; s_alias; s_where = where }

let exists ?where source alias = mk_sub Exists ?where source alias

let not_exists ?where source alias = mk_sub Not_exists ?where source alias

let some_ lhs op ?where source alias ~col = mk_sub (Quant (lhs, op, Qsome, col)) ?where source alias

let all_ lhs op ?where source alias ~col = mk_sub (Quant (lhs, op, Qall, col)) ?where source alias

let in_ lhs ?where source alias ~col = mk_sub (In_ (lhs, col)) ?where source alias

let not_in lhs ?where source alias ~col = mk_sub (Not_in (lhs, col)) ?where source alias

let scalar_cmp lhs op ?where source alias ~col =
  mk_sub (Cmp_scalar (lhs, op, col)) ?where source alias

let agg_cmp lhs op func ?where source alias = mk_sub (Cmp_agg (lhs, op, func)) ?where source alias

let atom e = Atom e

let pand a b = Pand (a, b)

let por a b = Por (a, b)

let pnot a = Pnot a

let conjoin_preds = function
  | [] -> Ptrue
  | p :: rest -> List.fold_left pand p rest

let rec fold_subs f acc = function
  | Ptrue | Atom _ -> acc
  | Pand (a, b) | Por (a, b) -> fold_subs f (fold_subs f acc a) b
  | Pnot a -> fold_subs f acc a
  | Sub s -> f acc s

let rec base_aliases = function
  | Btable t -> [ t ]
  | Bselect (_, b) | Bproject { input = b; _ } -> base_aliases b
  | Bproduct (a, b) -> base_aliases a @ base_aliases b
  | Balias (a, _) -> [ a ]

let scope_aliases q = if q.q_alias = "" then base_aliases q.q_base else [ q.q_alias ]

let rec pp_base ppf = function
  | Btable t -> Format.pp_print_string ppf t
  | Bselect (e, b) -> Format.fprintf ppf "sigma[%a](%a)" Expr.pp e pp_base b
  | Bproject { cols; distinct; input } ->
    Format.fprintf ppf "pi%s[%s](%a)"
      (if distinct then "-distinct" else "")
      (String.concat ", " cols) pp_base input
  | Bproduct (a, b) -> Format.fprintf ppf "(%a x %a)" pp_base a pp_base b
  | Balias (a, b) -> Format.fprintf ppf "(%a -> %s)" pp_base b a

let quant_to_string = function Qsome -> "some" | Qall -> "all"

let rec pp_pred ppf = function
  | Ptrue -> Format.pp_print_string ppf "true"
  | Atom e -> Expr.pp ppf e
  | Pand (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_pred a pp_pred b
  | Por (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_pred a pp_pred b
  | Pnot a -> Format.fprintf ppf "(NOT %a)" pp_pred a
  | Sub s -> pp_sub ppf s

and pp_sub ppf s =
  let body ppf () =
    Format.fprintf ppf "%a -> %s%s" pp_base s.source s.s_alias
      (match s.s_where with
      | Ptrue -> ""
      | w -> Format.asprintf " WHERE %a" pp_pred w)
  in
  match s.kind with
  | Exists -> Format.fprintf ppf "EXISTS(%a)" body ()
  | Not_exists -> Format.fprintf ppf "NOT EXISTS(%a)" body ()
  | Cmp_scalar (lhs, op, col) ->
    Format.fprintf ppf "(%a %s (SELECT %s FROM %a))" Expr.pp lhs (Expr.cmp_to_string op) col
      body ()
  | Cmp_agg (lhs, op, func) ->
    Format.fprintf ppf "(%a %s (SELECT %s FROM %a))" Expr.pp lhs (Expr.cmp_to_string op)
      (Aggregate.func_to_string func) body ()
  | Quant (lhs, op, q, col) ->
    Format.fprintf ppf "(%a %s %s (SELECT %s FROM %a))" Expr.pp lhs (Expr.cmp_to_string op)
      (String.uppercase_ascii (quant_to_string q))
      col body ()
  | In_ (lhs, col) ->
    Format.fprintf ppf "(%a IN (SELECT %s FROM %a))" Expr.pp lhs col body ()
  | Not_in (lhs, col) ->
    Format.fprintf ppf "(%a NOT IN (SELECT %s FROM %a))" Expr.pp lhs col body ()

let col_to_string = function None, n -> n | Some r, n -> r ^ "." ^ n

let pp_query ppf q =
  let exprs es =
    String.concat ", " (List.map (fun (e, n) -> Format.asprintf "%a AS %s" Expr.pp e n) es)
  in
  let pp_select ppf = function
    | Select_all -> Format.pp_print_string ppf "*"
    | Select_cols cols ->
      Format.pp_print_string ppf (String.concat ", " (List.map col_to_string cols))
    | Select_exprs es | Select_grouped { out = es; _ } -> Format.pp_print_string ppf (exprs es)
  in
  Format.fprintf ppf "SELECT %s%a FROM %a -> %s WHERE %a"
    (if q.q_distinct then "DISTINCT " else "")
    pp_select q.q_select pp_base q.q_base q.q_alias pp_pred q.q_where;
  (match q.q_select with
  | Select_grouped g ->
    Format.fprintf ppf " GROUP BY [%s] AGGS [%s]%s"
      (String.concat ", " (List.map col_to_string g.keys))
      (String.concat ", " (List.map (Format.asprintf "%a" Aggregate.pp_spec) g.aggs))
      (match g.having with
      | Some h -> Format.asprintf " HAVING %a" Expr.pp h
      | None -> "")
  | Select_all | Select_cols _ | Select_exprs _ -> ());
  if q.q_order_by <> [] then
    Format.fprintf ppf " ORDER BY %s"
      (String.concat ", "
         (List.map
            (fun (c, dir) ->
              col_to_string c ^ match dir with `Asc -> " ASC" | `Desc -> " DESC")
            q.q_order_by));
  Option.iter (Format.fprintf ppf " LIMIT %d") q.q_limit
