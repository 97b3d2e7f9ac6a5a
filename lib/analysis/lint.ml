open Subql_relational
open Subql_nested
open Subql

(* --- Plan rules -------------------------------------------------------- *)

let rec strip_wrappers = function
  | Algebra.Select (_, x) | Algebra.Group_by { keys = None; aggs = []; input = x } ->
    strip_wrappers x
  | x -> x

let bare_names_of acc e =
  List.fold_left (fun acc (_, name) -> name :: acc) acc (Expr.attrs e)

let agg_names acc aggs =
  List.fold_left bare_names_of acc
    (List.filter_map (fun spec -> Aggregate.arg spec.Aggregate.func) aggs)

let block_names acc (b : Subql_gmdj.Gmdj.block) =
  let acc = bare_names_of acc b.theta in
  agg_names acc b.aggs

(* [needed] is the set of bare column names any ancestor may read; [None]
   means "all of them" (the conservative default wherever tracking would
   get imprecise). *)
let union_needed needed names =
  Option.map (fun set -> List.rev_append names set) needed

let plan_lints alg =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let rec go rev_path needed alg =
    let rev_path = Algebra.node_label alg :: rev_path in
    let path = List.rev rev_path in
    let sub slot needed x =
      go (match slot with "" -> rev_path | s -> s :: rev_path) needed x
    in
    (match alg with
    | Algebra.Product _ ->
      emit
        (Diag.warning ~path ~code:"LNT001"
           "cartesian product: no join condition ties the two sides")
    | Algebra.Md { base; detail; _ } -> (
      match strip_wrappers base with
      | Algebra.Md { detail = d2; _ } ->
        if Algebra.same_occurrence_modulo_alias detail d2 then
          emit
            (Diag.warning ~path ~code:"LNT002"
               "adjacent GMDJs range over the same detail occurrence; \
                coalescing (Prop. 4.1) would evaluate them in one scan")
      | _ -> ())
    | _ -> ());
    match alg with
    | Algebra.Table _ -> ()
    | Algebra.Rename (_, x) -> sub "" needed x
    | Algebra.Sort { by; input; _ } ->
      sub "" (union_needed needed (List.map (fun ((_, name), _) -> name) by)) input
    | Algebra.Select (e, x) -> sub "" (union_needed needed (bare_names_of [] e)) x
    | Algebra.Project (exprs, x) ->
      (match needed with
      | None -> ()
      | Some set ->
        List.iter
          (fun (_, name) ->
            if not (List.mem name set) then
              emit
                (Diag.warning ~path ~subject:name ~code:"LNT003"
                   (Printf.sprintf
                      "projected column %s is never read downstream" name)))
          exprs);
      sub ""
        (Some (List.fold_left (fun acc (e, _) -> bare_names_of acc e) [] exprs))
        x
    | Algebra.Project_cols { cols; input; _ } ->
      (match needed with
      | None -> ()
      | Some set ->
        List.iter
          (fun (_, name) ->
            if not (List.mem name set) then
              emit
                (Diag.warning ~path ~subject:name ~code:"LNT003"
                   (Printf.sprintf
                      "projected column %s is never read downstream" name)))
          cols);
      sub "" (Some (List.map snd cols)) input
    | Algebra.Project_rel (_, x) -> sub "" None x
    | Algebra.Add_rownum (_, x) -> sub "" needed x
    | Algebra.Product (l, r) ->
      sub "left" needed l;
      sub "right" needed r
    | Algebra.Join { cond; left; right; _ } ->
      let needed = union_needed needed (bare_names_of [] cond) in
      sub "left" needed left;
      sub "right" needed right
    | Algebra.Group_by { keys; aggs; input } ->
      (* Grouping on every column reads every column. *)
      sub "" (Option.map (fun keys -> agg_names (List.map snd keys) aggs) keys) input
    | Algebra.Md { base; detail; blocks; completion } ->
      let block_refs = List.fold_left block_names [] blocks in
      let completion_refs =
        match completion with
        | Some c ->
          List.fold_left bare_names_of []
            (c.Subql_gmdj.Gmdj.kill_when @ c.Subql_gmdj.Gmdj.require_fired)
        | None -> []
      in
      sub "base" (union_needed needed (block_refs @ completion_refs)) base;
      sub "detail" None detail
    | Algebra.Union_all (l, r) | Algebra.Diff_all (l, r) ->
      sub "left" needed l;
      sub "right" needed r
  in
  go [] None alg;
  Diag.sort !diags

(* --- Query rules ------------------------------------------------------- *)

(* The plain (subquery-free) conjuncts of a WHERE clause, used to respect
   explicit IS NOT NULL filters when judging the NOT IN trap. *)
let rec top_atoms = function
  | Nested_ast.Atom e -> [ e ]
  | Nested_ast.Pand (a, b) -> top_atoms a @ top_atoms b
  | Nested_ast.Ptrue | Nested_ast.Por _ | Nested_ast.Pnot _ | Nested_ast.Sub _
    ->
    []

(* Nullability of the subquery's comparison column, seen through its
   source expression and any local filters. *)
let sub_col_nulls env (s : Nested_ast.sub) col =
  let plan =
    Algebra.Rename (s.s_alias, Transform.base_to_algebra s.source)
  in
  let plan =
    match top_atoms s.s_where with
    | [] -> plan
    | es -> Algebra.Select (Expr.conjoin es, plan)
  in
  let v = Typing.infer env plan in
  match v.Typing.schema, v.Typing.nulls with
  | Some schema, Some nulls -> (
    match Schema.find_opt schema col with
    | Some i -> nulls.(i)
    | None -> Nullability.Maybe_null
    | exception Schema.Ambiguous_attribute _ -> Nullability.Maybe_null)
  | _ -> Nullability.Maybe_null

let query_lints env (q : Nested_ast.query) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun (alias, skips) ->
      emit
        (Diag.info ~subject:alias ~code:"LNT004"
           (Printf.sprintf
              "subquery %s correlates past its enclosing scope (to %s); the \
               translation pushes the referenced base down (Thms 3.3/3.4)"
              alias
              (String.concat ", " skips))))
    (Scope.non_neighboring_subs q);
  let rec pred_walk p =
    match (p : Nested_ast.pred) with
    | Ptrue | Atom _ -> ()
    | Pand (a, b) | Por (a, b) ->
      pred_walk a;
      pred_walk b
    | Pnot a -> pred_walk a
    | Sub s ->
      (match s.kind with
      | Not_in (_, col) | Quant (_, _, Nested_ast.Qall, col) ->
        if sub_col_nulls env s col <> Nullability.Non_null then
          emit
            (Diag.warning ~subject:col ~code:"NUL001"
               (Printf.sprintf
                  "%s over subquery column %s.%s which may be NULL: a single \
                   NULL makes the predicate unknown for every outer row \
                   (the 3VL NOT IN trap); add an IS NOT NULL filter if \
                   emptying the result is not intended"
                  (match s.kind with
                  | Not_in _ -> "NOT IN"
                  | _ -> "ALL quantification")
                  s.s_alias col))
      | Exists | Not_exists | Cmp_scalar _ | Cmp_agg _ | Quant _ | In_ _ -> ());
      pred_walk s.s_where
  in
  pred_walk q.Nested_ast.q_where;
  Diag.sort !diags
