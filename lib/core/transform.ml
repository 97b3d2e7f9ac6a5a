open Subql_relational
open Subql_gmdj
module N = Subql_nested.Nested_ast
module Normalize = Subql_nested.Normalize

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let rec base_to_algebra = function
  | N.Btable t -> Algebra.Table t
  | N.Bselect (e, b) -> Algebra.Select (e, base_to_algebra b)
  | N.Bproject { cols; distinct; input } ->
    let cols = List.map (fun c -> (None, c)) cols and input = base_to_algebra input in
    if distinct then Algebra.Group_by { keys = Some cols; aggs = []; input }
    else Algebra.Project_cols { cols; input }
  | N.Bproduct (a, b) -> Algebra.Product (base_to_algebra a, base_to_algebra b)
  | N.Balias (a, b) -> Algebra.Rename (a, base_to_algebra b)

type env = { mutable counter : int }

let gensym env prefix =
  env.counter <- env.counter + 1;
  Printf.sprintf "%s#%d" prefix env.counter

(* A pending push-down (Thms 3.3/3.4): the columns [cols] of the outer
   relation occurrence [orig] have been embedded — distinct-projected and
   requalified as [pushed] — into some descendant base-values expression.
   The level that owns [orig] closes the loop by conjoining null-safe
   equalities between [orig] and [pushed] into its GMDJ condition. *)
type push = { orig : string; pushed : string; cols : string list }

let dedup_strings l =
  List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) [] l

let cols_of_alias alias exprs =
  List.concat_map Expr.attrs exprs
  |> List.filter_map (fun (r, n) -> if r = Some alias then Some n else None)
  |> dedup_strings

let match_conds ~left_alias ~right_alias cols =
  List.map
    (fun c ->
      Expr.Null_safe_eq (Expr.attr ~rel:left_alias c, Expr.attr ~rel:right_alias c))
    cols

(* Each scope level may bind several aliases (a multi-relation FROM). *)
let level_source ~scope orig =
  List.find_map
    (fun (aliases, src) -> if List.mem orig aliases then Some src else None)
    scope

let pushed_rel ~scope ~orig ~pushed_alias ~cols =
  match level_source ~scope orig with
  | None -> unsupported "reference to alias %s which is not in scope" orig
  | Some src ->
    Algebra.Rename
      ( pushed_alias,
        Algebra.Group_by
          { keys = Some (List.map (fun c -> (Some orig, c)) cols); aggs = []; input = src } )

(* [transform_where env ~scope ~stack p] eliminates the subqueries of [p].
   [scope] lists the enclosing relation occurrences (alias and source
   algebra), outermost first; the last entry is the scope that owns [p].
   [stack] holds that scope's base-values expression and is wrapped with
   one GMDJ per subquery.  Returns the condition replacing [p] (over the
   final [stack] schema plus, for correlated parts, enclosing aliases)
   and the pushes that must be resolved further up. *)
let rec transform_where env ~scope ~stack (p : N.pred) : Expr.t * push list =
  match p with
  | N.Ptrue -> (Expr.bool true, [])
  | N.Atom e -> (e, [])
  | N.Pand (a, b) ->
    let ea, pa = transform_where env ~scope ~stack a in
    let eb, pb = transform_where env ~scope ~stack b in
    (Expr.and_ ea eb, pa @ pb)
  | N.Por (a, b) ->
    let ea, pa = transform_where env ~scope ~stack a in
    let eb, pb = transform_where env ~scope ~stack b in
    (Expr.or_ ea eb, pa @ pb)
  | N.Pnot _ -> unsupported "predicate is not negation-normalized"
  | N.Sub s -> transform_sub env ~scope ~stack s

and transform_sub env ~scope ~stack (s : N.sub) : Expr.t * push list =
  let parent_aliases =
    match List.rev scope with (aliases, _) :: _ -> aliases | [] -> assert false
  in
  let source_alg = Algebra.Rename (s.N.s_alias, base_to_algebra s.N.source) in
  let child_scope = scope @ [ ([ s.N.s_alias ], source_alg) ] in
  let child_stack = ref source_alg in
  let theta_w, child_pushes =
    transform_where env ~scope:child_scope ~stack:child_stack s.N.s_where
  in
  (* Resolve pushes addressed to this scope; chain the others through our
     own base-values expression (Thm 3.4: one extra join per level). *)
  let theta_w = ref theta_w in
  let propagated = ref [] in
  List.iter
    (fun p ->
      if List.mem p.orig parent_aliases then
        theta_w :=
          Expr.conjoin
            (!theta_w :: match_conds ~left_alias:p.orig ~right_alias:p.pushed p.cols)
      else begin
        let chained = gensym env p.orig in
        stack :=
          Algebra.Product
            (pushed_rel ~scope ~orig:p.orig ~pushed_alias:chained ~cols:p.cols, !stack);
        theta_w :=
          Expr.conjoin
            (!theta_w :: match_conds ~left_alias:chained ~right_alias:p.pushed p.cols);
        propagated := { p with pushed = chained } :: !propagated
      end)
    child_pushes;
  let theta_w = !theta_w in
  (* Table 1: blocks and count-based selection condition per subquery kind. *)
  let local col = Expr.attr ~rel:s.N.s_alias col in
  let blocks, cond =
    match s.N.kind with
    | N.Exists ->
      let c = gensym env "cnt" in
      ([ Gmdj.block [ Aggregate.count_star c ] theta_w ], Expr.gt (Expr.attr c) (Expr.int 0))
    | N.Not_exists ->
      let c = gensym env "cnt" in
      ([ Gmdj.block [ Aggregate.count_star c ] theta_w ], Expr.eq (Expr.attr c) (Expr.int 0))
    | N.Quant (lhs, op, N.Qsome, col) ->
      let c = gensym env "cnt" in
      let theta = Expr.and_ theta_w (Expr.cmp op lhs (local col)) in
      ([ Gmdj.block [ Aggregate.count_star c ] theta ], Expr.gt (Expr.attr c) (Expr.int 0))
    | N.Quant (lhs, op, N.Qall, col) ->
      let c1 = gensym env "cnt" and c2 = gensym env "cnt" in
      let theta1 = Expr.and_ theta_w (Expr.cmp op lhs (local col)) in
      ( [
          Gmdj.block [ Aggregate.count_star c1 ] theta1;
          Gmdj.block [ Aggregate.count_star c2 ] theta_w;
        ],
        Expr.eq (Expr.attr c1) (Expr.attr c2) )
    | N.Cmp_scalar (lhs, op, col) ->
      let c = gensym env "cnt" in
      let theta = Expr.and_ theta_w (Expr.cmp op lhs (local col)) in
      ([ Gmdj.block [ Aggregate.count_star c ] theta ], Expr.eq (Expr.attr c) (Expr.int 1))
    | N.Cmp_agg (lhs, op, func) ->
      let a = gensym env "agg" in
      ( [ Gmdj.block [ { Aggregate.func; name = a } ] theta_w ],
        Expr.cmp op lhs (Expr.attr a) )
    | N.In_ _ | N.Not_in _ ->
      unsupported "IN/NOT IN must be desugared (run Normalize first)"
  in
  (* Legalize this GMDJ's own non-neighboring references: any enclosing
     alias other than the immediate parent appearing in a block condition
     is replaced by a pushed-down copy embedded in our base-values
     expression (Thm 3.3), to be matched one level up. *)
  let scope_aliases = List.concat_map fst scope in
  let thetas = List.map (fun b -> b.Gmdj.theta) blocks in
  let bad =
    List.concat_map Expr.qualifiers thetas
    |> dedup_strings
    |> List.filter (fun a -> (not (List.mem a parent_aliases)) && List.mem a scope_aliases)
  in
  let blocks = ref blocks in
  List.iter
    (fun orig ->
      let pushed_alias = gensym env orig in
      let cols = cols_of_alias orig thetas in
      stack :=
        Algebra.Product (pushed_rel ~scope ~orig ~pushed_alias ~cols, !stack);
      blocks :=
        List.map
          (fun b ->
            {
              b with
              Gmdj.theta = Expr.rewrite_qualifier ~from_rel:orig ~to_rel:pushed_alias b.Gmdj.theta;
            })
          !blocks;
      propagated := { orig; pushed = pushed_alias; cols } :: !propagated)
    bad;
  stack :=
    Algebra.Md { base = !stack; detail = !child_stack; blocks = !blocks; completion = None };
  (cond, List.rev !propagated)

let where_condition q =
  let q = Normalize.query q in
  let env = { counter = 0 } in
  let base_alg =
    if q.N.q_alias = "" then base_to_algebra q.N.q_base
    else Algebra.Rename (q.N.q_alias, base_to_algebra q.N.q_base)
  in
  let stack = ref base_alg in
  let cond, pushes =
    transform_where env ~scope:[ (N.scope_aliases q, base_alg) ] ~stack q.N.q_where
  in
  (match pushes with
  | [] -> ()
  | p :: _ -> unsupported "unresolved push-down for alias %s" p.orig);
  (!stack, cond)

let lower_tail q rows =
  let projected =
    match q.N.q_select with
    | N.Select_all -> Algebra.Project_rel (N.scope_aliases q, rows)
    | N.Select_cols cols -> Algebra.Project_cols { cols; input = rows }
    | N.Select_exprs exprs -> Algebra.Project (exprs, rows)
    | N.Select_grouped g ->
      (* Grouping reads the statement's own columns only, never the
         auxiliary count columns or pushed-down copies beside them. *)
      let input = Algebra.Project_rel (N.scope_aliases q, rows) in
      let grouped = Algebra.Group_by { keys = Some g.N.keys; aggs = g.N.aggs; input } in
      let kept =
        match g.N.having with Some h -> Algebra.Select (h, grouped) | None -> grouped
      in
      Algebra.Project (g.N.out, kept)
  in
  let distinct =
    if q.N.q_distinct then Algebra.Group_by { keys = None; aggs = []; input = projected }
    else projected
  in
  match q.N.q_order_by, q.N.q_limit with
  | [], None -> distinct
  | by, limit -> Algebra.Sort { by; limit; input = distinct }

let to_algebra q =
  let stack_alg, cond = where_condition q in
  lower_tail q (Algebra.Select (cond, stack_alg))
