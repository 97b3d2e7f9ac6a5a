open Subql_relational
open Subql_gmdj

type join_kind = Ops.join_kind = Inner | Left_outer | Semi | Anti

type t =
  | Table of string
  | Rename of string * t
  | Select of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Project_cols of { cols : (string option * string) list; input : t }
  | Project_rel of string list * t
  | Add_rownum of string * t
  | Product of t * t
  | Join of { kind : join_kind; cond : Expr.t; left : t; right : t }
  | Group_by of {
      keys : (string option * string) list option;
      aggs : Aggregate.spec list;
      input : t;
    }
  | Md of {
      base : t;
      detail : t;
      blocks : Gmdj.block list;
      completion : Gmdj.completion option;
    }
  | Union_all of t * t
  | Diff_all of t * t
  | Sort of {
      by : ((string option * string) * [ `Asc | `Desc ]) list;
      limit : int option;
      input : t;
    }

let children = function
  | Table _ -> []
  | Rename (_, x)
  | Select (_, x)
  | Project (_, x)
  | Project_cols { input = x; _ }
  | Project_rel (_, x)
  | Add_rownum (_, x)
  | Group_by { input = x; _ }
  | Sort { input = x; _ } ->
    [ x ]
  | Product (l, r)
  | Join { left = l; right = r; _ }
  | Md { base = l; detail = r; _ }
  | Union_all (l, r)
  | Diff_all (l, r) ->
    [ l; r ]

let map_children f = function
  | Table _ as t -> t
  | Rename (a, x) -> Rename (a, f x)
  | Select (e, x) -> Select (e, f x)
  | Project (p, x) -> Project (p, f x)
  | Project_cols c -> Project_cols { c with input = f c.input }
  | Project_rel (a, x) -> Project_rel (a, f x)
  | Add_rownum (n, x) -> Add_rownum (n, f x)
  | Product (l, r) -> Product (f l, f r)
  | Join j -> Join { j with left = f j.left; right = f j.right }
  | Group_by g -> Group_by { g with input = f g.input }
  | Md m -> Md { m with base = f m.base; detail = f m.detail }
  | Union_all (l, r) -> Union_all (f l, f r)
  | Diff_all (l, r) -> Diff_all (f l, f r)
  | Sort srt -> Sort { srt with input = f srt.input }

let tables plan =
  let rec walk acc = function
    | Table name -> name :: acc
    | p -> List.fold_left walk acc (children p)
  in
  List.sort_uniq String.compare (walk [] plan)

(* Schema inference.

   [schema_diag] is the primary implementation: failures come back as a
   structured {!Diag.t} carrying the plan path of the offending node
   instead of a bare exception.  [schema_of] is the legacy wrapper that
   re-raises the historical exceptions. *)

let ( let* ) = Result.bind

let node_label = function
  | Table _ -> "Table"
  | Rename _ -> "Rename"
  | Select _ -> "Select"
  | Project _ -> "Project"
  | Project_cols _ -> "ProjectCols"
  | Project_rel _ -> "ProjectRel"
  | Add_rownum _ -> "AddRownum"
  | Product _ -> "Product"
  | Join _ -> "Join"
  | Group_by _ -> "GroupBy"
  | Md { completion = None; _ } -> "Md"
  | Md { completion = Some _; _ } -> "MdCompleted"
  | Union_all _ -> "UnionAll"
  | Diff_all _ -> "DiffAll"
  | Sort _ -> "Sort"

(* Convert the exceptions the node-local schema operations may raise into
   diagnostics located at [path]. *)
let guard ~path f =
  try f () with
  | Catalog.Unknown_table t ->
    Error (Diag.error ~path ~subject:t ~code:"SCH004" ("unknown table " ^ t))
  | Schema.Unknown_attribute a ->
    Error (Diag.error ~path ~subject:a ~code:"SCH001" ("unknown attribute " ^ a))
  | Schema.Ambiguous_attribute a ->
    Error (Diag.error ~path ~subject:a ~code:"SCH002" ("ambiguous attribute " ^ a))
  | Invalid_argument m -> Error (Diag.error ~path ~code:"SCH003" m)
  | Value.Type_error m -> Error (Diag.error ~path ~code:"TYP002" m)

let rec schema_d ~lookup rev_path alg =
  let rev_path = node_label alg :: rev_path in
  let path = List.rev rev_path in
  let sub slot x =
    schema_d ~lookup (match slot with "" -> rev_path | s -> s :: rev_path) x
  in
  match alg with
  | Table name -> guard ~path (fun () -> Ok (lookup name))
  | Rename (alias, x) ->
    let* s = sub "" x in
    Ok (Schema.rename_rel alias s)
  | Select (_, x) -> sub "" x
  | Project (exprs, x) ->
    let* s = sub "" x in
    let* attrs =
      List.fold_left
        (fun acc (e, name) ->
          let* acc = acc in
          let* ty = Expr.infer_diag ~path [| s |] e in
          let ty = match ty with Some ty -> ty | None -> Value.Tint in
          Ok (Schema.attr name ty :: acc))
        (Ok []) exprs
    in
    guard ~path (fun () -> Ok (Schema.of_list (List.rev attrs)))
  | Project_cols { cols; input; _ } ->
    let* s = sub "" input in
    guard ~path (fun () ->
        let idxs =
          Array.of_list (List.map (fun (rel, name) -> Schema.find s ?rel name) cols)
        in
        Ok (Schema.project s idxs))
  | Project_rel (aliases, x) ->
    let* s = sub "" x in
    let keep = List.filter (fun a -> List.mem a.Schema.rel aliases) (Schema.to_list s) in
    guard ~path (fun () -> Ok (Schema.of_list keep))
  | Add_rownum (name, x) ->
    let* s = sub "" x in
    Ok (Schema.concat s [| Schema.attr name Value.Tint |])
  | Product (l, r) ->
    let* ls = sub "left" l in
    let* rs = sub "right" r in
    Ok (Schema.concat ls rs)
  | Join { kind; left; right; _ } -> (
    let* ls = sub "left" left in
    match kind with
    | Inner | Left_outer ->
      let* rs = sub "right" right in
      Ok (Schema.concat ls rs)
    | Semi | Anti -> Ok ls)
  | Group_by { keys; aggs; input } ->
    let* s = sub "" input in
    guard ~path (fun () -> Ok (snd (Ops.group_schema ?keys ~aggs s)))
  | Md { base; detail; blocks; _ } ->
    let* bs = sub "base" base in
    let* ds = sub "detail" detail in
    guard ~path (fun () -> Ok (Gmdj.output_schema ~base:bs ~detail:ds blocks))
  | Union_all (l, _) | Diff_all (l, _) -> sub "left" l
  | Sort { by; input; _ } ->
    let* s = sub "" input in
    guard ~path (fun () ->
        List.iter (fun ((rel, name), _) -> ignore (Schema.find s ?rel name)) by;
        Ok s)

let schema_diag ~lookup alg = schema_d ~lookup [] alg

let schema_of ~lookup alg =
  match schema_diag ~lookup alg with
  | Ok s -> s
  | Error d when d.Diag.code = "SCH004" ->
    raise
      (Catalog.Unknown_table
         (match d.Diag.subject with Some t -> t | None -> d.Diag.message))
  | Error d -> Expr.raise_diag d

let equal_specs s1 s2 =
  List.equal
    (fun (a : Aggregate.spec) (b : Aggregate.spec) ->
      a.name = b.name && Aggregate.equal_func a.func b.func)
    s1 s2

let equal_blocks b1 b2 =
  List.equal
    (fun x y -> Expr.equal x.Gmdj.theta y.Gmdj.theta && equal_specs x.Gmdj.aggs y.Gmdj.aggs)
    b1 b2

let equal_completion (c1 : Gmdj.completion) (c2 : Gmdj.completion) =
  c1.Gmdj.maintain_aggregates = c2.Gmdj.maintain_aggregates
  && List.equal Expr.equal c1.Gmdj.kill_when c2.Gmdj.kill_when
  && List.equal Expr.equal c1.Gmdj.require_fired c2.Gmdj.require_fired

let rec equal a b =
  match a, b with
  | Table x, Table y -> x = y
  | Rename (a1, x), Rename (a2, y) -> a1 = a2 && equal x y
  | Select (e1, x), Select (e2, y) -> Expr.equal e1 e2 && equal x y
  | Project (p1, x), Project (p2, y) ->
    List.length p1 = List.length p2
    && List.for_all2 (fun (e1, n1) (e2, n2) -> n1 = n2 && Expr.equal e1 e2) p1 p2
    && equal x y
  | Project_cols c1, Project_cols c2 -> c1.cols = c2.cols && equal c1.input c2.input
  | Project_rel (a1, x), Project_rel (a2, y) -> a1 = a2 && equal x y
  | Add_rownum (n1, x), Add_rownum (n2, y) -> n1 = n2 && equal x y
  | Product (l1, r1), Product (l2, r2) -> equal l1 l2 && equal r1 r2
  | Join j1, Join j2 ->
    j1.kind = j2.kind && Expr.equal j1.cond j2.cond && equal j1.left j2.left
    && equal j1.right j2.right
  | Group_by g1, Group_by g2 ->
    g1.keys = g2.keys && equal_specs g1.aggs g2.aggs && equal g1.input g2.input
  | Md m1, Md m2 ->
    equal m1.base m2.base && equal m1.detail m2.detail && equal_blocks m1.blocks m2.blocks
    && Option.equal equal_completion m1.completion m2.completion
  | Union_all (l1, r1), Union_all (l2, r2) | Diff_all (l1, r1), Diff_all (l2, r2) ->
    equal l1 l2 && equal r1 r2
  | Sort s1, Sort s2 -> s1.by = s2.by && s1.limit = s2.limit && equal s1.input s2.input
  | ( ( Table _ | Rename _ | Select _ | Project _ | Project_cols _ | Project_rel _
      | Add_rownum _ | Product _ | Join _ | Group_by _ | Md _ | Union_all _ | Diff_all _
      | Sort _ ),
      _ ) ->
    false

let detail_alias = function Rename (a, _) -> Some a | _ -> None

let same_occurrence_modulo_alias a b =
  match a, b with
  | Rename (_, x), Rename (_, y) -> equal x y
  | _ -> equal a b

let join_kind_to_string = function
  | Inner -> "join"
  | Left_outer -> "left-outer-join"
  | Semi -> "semi-join"
  | Anti -> "anti-join"

let pp_cols ppf cols =
  Format.pp_print_string ppf
    (String.concat ", " (List.map (function None, n -> n | Some r, n -> r ^ "." ^ n) cols))

let sort_label by limit =
  Printf.sprintf "Sort [%s]%s"
    (String.concat ", "
       (List.map
          (fun ((q, n), dir) ->
            (match q with None -> n | Some r -> r ^ "." ^ n)
            ^ match dir with `Asc -> " asc" | `Desc -> " desc")
          by))
    (match limit with Some n -> Printf.sprintf " limit %d" n | None -> "")

let group_by_label = function
  | None -> "GroupBy [*]"
  | Some keys -> Format.asprintf "GroupBy [%a]" pp_cols keys

let pp_aggs ppf aggs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Aggregate.pp_spec ppf aggs

let rec pp ppf alg =
  match alg with
  | Table name -> Format.fprintf ppf "Table %s" name
  | Rename (alias, x) -> Format.fprintf ppf "Rename %s@;<1 2>@[%a@]" alias pp x
  | Select (e, x) -> Format.fprintf ppf "Select %a@;<1 2>@[%a@]" Expr.pp e pp x
  | Project (exprs, x) ->
    Format.fprintf ppf "Project [%s]@;<1 2>@[%a@]"
      (String.concat ", "
         (List.map (fun (e, n) -> Format.asprintf "%a -> %s" Expr.pp e n) exprs))
      pp x
  | Project_cols { cols; input } ->
    Format.fprintf ppf "Project [%a]@;<1 2>@[%a@]" pp_cols cols pp input
  | Project_rel (aliases, x) ->
    Format.fprintf ppf "ProjectRel %s@;<1 2>@[%a@]" (String.concat ", " aliases) pp x
  | Add_rownum (name, x) -> Format.fprintf ppf "AddRownum %s@;<1 2>@[%a@]" name pp x
  | Product (l, r) -> Format.fprintf ppf "Product@;<1 2>@[%a@]@;<1 2>@[%a@]" pp l pp r
  | Join { kind; cond; left; right } ->
    Format.fprintf ppf "%s %a@;<1 2>@[%a@]@;<1 2>@[%a@]" (join_kind_to_string kind) Expr.pp
      cond pp left pp right
  | Group_by { keys; aggs; input } ->
    Format.pp_print_string ppf (group_by_label keys);
    if aggs <> [] then Format.fprintf ppf " aggs [%a]" pp_aggs aggs;
    Format.fprintf ppf "@;<1 2>@[%a@]" pp input
  | Md { base; detail; blocks; completion } ->
    let pp_blocks =
      Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Gmdj.pp_block
    in
    (match completion with
    | None -> Format.fprintf ppf "MD %a" pp_blocks blocks
    | Some c -> Format.fprintf ppf "MD-completed %a %a" pp_blocks blocks Gmdj.pp_completion c);
    Format.fprintf ppf "@;<1 2>base: @[%a@]@;<1 2>detail: @[%a@]" pp base pp detail
  | Union_all (l, r) -> Format.fprintf ppf "UnionAll@;<1 2>@[%a@]@;<1 2>@[%a@]" pp l pp r
  | Diff_all (l, r) -> Format.fprintf ppf "DiffAll@;<1 2>@[%a@]@;<1 2>@[%a@]" pp l pp r
  | Sort { by; limit; input } ->
    Format.fprintf ppf "%s@;<1 2>@[%a@]" (sort_label by limit) pp input
