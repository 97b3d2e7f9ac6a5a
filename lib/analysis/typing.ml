open Subql_relational
open Subql_gmdj
open Subql

type env = {
  lookup : string -> Schema.t;
  table_nulls : string -> Nullability.t array;
}

let env_of_catalog catalog =
  let lookup name = Relation.schema (Catalog.find catalog name) in
  let table_nulls name =
    let rel = Catalog.find catalog name in
    let has_null = Array.make (Schema.arity (Relation.schema rel)) false in
    Relation.iter
      (fun row ->
        Array.iteri (fun i v -> if Value.is_null v then has_null.(i) <- true) row)
      rel;
    Array.map
      (fun b -> if b then Nullability.Maybe_null else Nullability.Non_null)
      has_null
  in
  { lookup; table_nulls }

type verdict = {
  schema : Schema.t option;
  nulls : Nullability.t array option;
  diags : Diag.t list;
}

(* One analyzed operand: its schema and the nullability of each slot. *)
type frame = { fs : Schema.t; fn : Nullability.t array }

let ( let* ) = Result.bind

(* --- Expression nullability ------------------------------------------ *)

let resolve_null frames rel name =
  (* Innermost frame that knows the name, like expression evaluation. *)
  let n = Array.length frames in
  let rec go i =
    if i < 0 then Nullability.Maybe_null
    else
      let s, nulls = frames.(i) in
      match Schema.find_opt s ?rel name with
      | Some idx -> nulls.(idx)
      | None -> go (i - 1)
      | exception Schema.Ambiguous_attribute _ -> Nullability.Maybe_null
  in
  go (n - 1)

let rec expr_nulls frames (e : Expr.t) =
  match e with
  | Const Value.Null -> Nullability.Always_null
  | Const _ -> Nullability.Non_null
  | Attr (rel, name) -> resolve_null frames rel name
  | Null_safe_eq _ | Is_null _ | Is_not_null _ | Is_true _ -> Nullability.Non_null
  | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    (* sound for AND/OR too: both operands non-NULL ⇒ result non-NULL,
       both NULL ⇒ NULL (Kleene) *)
    Nullability.lub (expr_nulls frames a) (expr_nulls frames b)
  | Not a | Neg a -> expr_nulls frames a
  | Arith ((Expr.Div | Expr.Mod), a, b) -> (
    (* division by zero yields NULL, so Non_null is never provable *)
    match Nullability.lub (expr_nulls frames a) (expr_nulls frames b) with
    | Nullability.Always_null -> Nullability.Always_null
    | _ -> Nullability.Maybe_null)
  | Arith (_, a, b) -> Nullability.lub (expr_nulls frames a) (expr_nulls frames b)

(* --- Selection narrowing --------------------------------------------- *)

(* Attributes reachable through strictly NULL-propagating operators: if
   any of them is NULL the whole (sub)expression is NULL.  Stops at
   operators that can absorb NULLs (IS NULL, AND/OR, NULL-safe eq …). *)
let rec strict_attrs acc (e : Expr.t) =
  match e with
  | Attr (rel, name) -> (rel, name) :: acc
  | Arith (_, a, b) -> strict_attrs (strict_attrs acc a) b
  | Neg a -> strict_attrs acc a
  | Const _ | Cmp _ | Null_safe_eq _ | And _ | Or _ | Not _ | Is_null _
  | Is_not_null _ | Is_true _ ->
    acc

(* A tuple only survives σ[p] when p is TRUE, so every conjunct was TRUE
   — and a TRUE comparison proves both operands (hence their strictly
   NULL-propagating attributes) non-NULL. *)
let narrow frame pred =
  let nulls = Array.copy frame.fn in
  let mark refs =
    List.iter
      (fun (rel, name) ->
        match Schema.find_opt frame.fs ?rel name with
        | Some i -> nulls.(i) <- Nullability.Non_null
        | None | (exception Schema.Ambiguous_attribute _) -> ())
      refs
  in
  let rec conjunct (c : Expr.t) =
    match c with
    | Cmp (_, a, b) -> mark (strict_attrs (strict_attrs [] a) b)
    | Is_not_null e -> mark (strict_attrs [] e)
    | Is_true e -> conjunct e
    | _ -> ()
  in
  List.iter conjunct (Expr.conjuncts pred);
  { frame with fn = nulls }

(* --- Aggregates ------------------------------------------------------- *)

(* COUNT is total (empty range ⇒ 0); the others yield NULL on an empty
   or all-NULL range — unless every group is known non-empty AND the
   argument is provably non-NULL (GROUP BY groups are non-empty by
   construction). *)
let agg_nulls ~nonempty_groups frames (spec : Aggregate.spec) =
  match spec.func with
  | Aggregate.Count_star | Aggregate.Count _ -> Nullability.Non_null
  | Aggregate.Sum e | Aggregate.Min e | Aggregate.Max e | Aggregate.Avg e
  | Aggregate.First e ->
    if nonempty_groups && expr_nulls frames e = Nullability.Non_null then
      Nullability.Non_null
    else Nullability.Maybe_null

(* --- The plan walk ---------------------------------------------------- *)

let total_aggs blocks =
  List.fold_left (fun n b -> n + List.length b.Gmdj.aggs) 0 blocks

let infer env alg =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* Aggregate-argument checks report under TYP003 (the dedicated code),
     keeping schema-resolution failures under their SCH codes. *)
  let check_agg_args ~path schemas aggs =
    List.iter
      (fun spec ->
        match Aggregate.arg spec.Aggregate.func with
        | None -> ()
        | Some e -> (
          match Expr.infer_diag ~path schemas e with
          | Ok ty -> (
            (* SUM/AVG arithmetic needs a numeric argument; the schema
               pass alone lets [sum(s)] through and it dies at runtime. *)
            match (spec.Aggregate.func, ty) with
            | (Aggregate.Sum _ | Aggregate.Avg _), Some ((Value.Tstring | Value.Tbool) as ty)
              ->
              emit
                (Diag.error ~path ~subject:spec.Aggregate.name ~code:"TYP003"
                   (Printf.sprintf "aggregate %s: argument has type %s, expected a numeric type"
                      (Aggregate.func_to_string spec.Aggregate.func)
                      (Value.ty_to_string ty)))
            | _ -> ())
          | Error d ->
            if String.length d.Diag.code >= 3 && String.sub d.Diag.code 0 3 = "TYP"
            then
              emit
                (Diag.error ~path ?subject:d.Diag.subject ~code:"TYP003"
                   (Printf.sprintf "aggregate %s: %s" spec.Aggregate.name
                      d.Diag.message))
            else emit d))
      aggs
  in
  (* NUL002: a counting condition over a GMDJ must not read a
     possibly-NULL aggregate column without a COUNT guard in the same
     conjunct.  The Table 1 translations are NULL-sound precisely
     because every value-aggregate comparison is disjoined with a
     count-column test ([cnt = 0 OR x > mx]): the count decides the
     empty-range case before the NULL aggregate is consulted. *)
  let check_agg_condition ~path frame ~base_arity e =
    let nullable = ref [] in
    let guarded = ref false in
    List.iter
      (fun (rel, name) ->
        match Schema.find_opt frame.fs ?rel name with
        | Some i when i >= base_arity ->
          if frame.fn.(i) = Nullability.Non_null then guarded := true
          else if not (List.mem name !nullable) then
            nullable := name :: !nullable
        | Some _ | None | (exception Schema.Ambiguous_attribute _) -> ())
      (Expr.attrs e);
    if not !guarded then
      List.iter
        (fun name ->
          emit
            (Diag.warning ~path ~subject:name ~code:"NUL002"
               (Printf.sprintf
                  "counting condition reads aggregate column %s which may be \
                   NULL and carries no COUNT guard; only COUNT columns are \
                   provably non-NULL"
                  name)))
        (List.rev !nullable)
  in
  let rec go rev_path alg : (frame, Diag.t) result =
    let rev_path = Algebra.node_label alg :: rev_path in
    let path = List.rev rev_path in
    let sub slot x =
      go (match slot with "" -> rev_path | s -> s :: rev_path) x
    in
    let check_pred frames e =
      List.iter emit (Expr.typecheck_bool_diag ~path frames e)
    in
    match (alg : Algebra.t) with
    | Table name ->
      let* s = Algebra.guard ~path (fun () -> Ok (env.lookup name)) in
      Ok { fs = s; fn = env.table_nulls name }
    | Rename (alias, x) ->
      let* f = sub "" x in
      Ok { f with fs = Schema.rename_rel alias f.fs }
    | Sort { by; input; _ } ->
      let* f = sub "" input in
      Algebra.guard ~path (fun () ->
          List.iter (fun ((rel, name), _) -> ignore (Schema.find f.fs ?rel name)) by;
          Ok f)
    | Select (pred, x) ->
      let* f = sub "" x in
      check_pred [| f.fs |] pred;
      (match x with
      | Algebra.Md { blocks; _ } ->
        let base_arity = Schema.arity f.fs - total_aggs blocks in
        List.iter
          (check_agg_condition ~path f ~base_arity)
          (Expr.conjuncts pred)
      | _ -> ());
      Ok (narrow f pred)
    | Project (exprs, x) ->
      let* f = sub "" x in
      let* attrs =
        List.fold_left
          (fun acc (e, name) ->
            let* acc = acc in
            let* ty = Expr.infer_diag ~path [| f.fs |] e in
            let ty = match ty with Some ty -> ty | None -> Value.Tint in
            Ok (Schema.attr name ty :: acc))
          (Ok []) exprs
      in
      let* s = Algebra.guard ~path (fun () -> Ok (Schema.of_list (List.rev attrs))) in
      Ok
        {
          fs = s;
          fn =
            Array.of_list
              (List.map (fun (e, _) -> expr_nulls [| (f.fs, f.fn) |] e) exprs);
        }
    | Project_cols { cols; input; _ } ->
      let* f = sub "" input in
      let* idxs =
        Algebra.guard ~path (fun () ->
            Ok
              (Array.of_list
                 (List.map (fun (rel, name) -> Schema.find f.fs ?rel name) cols)))
      in
      Ok
        {
          fs = Schema.project f.fs idxs;
          fn = Array.map (fun i -> f.fn.(i)) idxs;
        }
    | Project_rel (aliases, x) ->
      let* f = sub "" x in
      let keep = ref [] in
      Array.iteri
        (fun i a -> if List.mem a.Schema.rel aliases then keep := i :: !keep)
        f.fs;
      let idxs = Array.of_list (List.rev !keep) in
      let* s = Algebra.guard ~path (fun () -> Ok (Schema.project f.fs idxs)) in
      Ok { fs = s; fn = Array.map (fun i -> f.fn.(i)) idxs }
    | Add_rownum (name, x) ->
      let* f = sub "" x in
      Ok
        {
          fs = Schema.concat f.fs [| Schema.attr name Value.Tint |];
          fn = Array.append f.fn [| Nullability.Non_null |];
        }
    | Product (l, r) ->
      let* lf = sub "left" l in
      let* rf = sub "right" r in
      Ok { fs = Schema.concat lf.fs rf.fs; fn = Array.append lf.fn rf.fn }
    | Join { kind; cond; left; right } -> (
      let* lf = sub "left" left in
      let* rf = sub "right" right in
      let both =
        { fs = Schema.concat lf.fs rf.fs; fn = Array.append lf.fn rf.fn }
      in
      check_pred [| both.fs |] cond;
      match kind with
      | Algebra.Inner -> Ok (narrow both cond)
      | Algebra.Left_outer ->
        (* every left row survives un-narrowed; right columns of
           unmatched rows are NULL-padded *)
        let rn =
          Array.map
            (function
              | Nullability.Always_null -> Nullability.Always_null
              | _ -> Nullability.Maybe_null)
            rf.fn
        in
        Ok { fs = both.fs; fn = Array.append lf.fn rn }
      | Algebra.Semi ->
        (* a surviving left row witnessed cond TRUE for some right row *)
        let narrowed = narrow both cond in
        Ok
          {
            fs = lf.fs;
            fn = Array.sub narrowed.fn 0 (Array.length lf.fn);
          }
      | Algebra.Anti -> Ok lf)
    | Group_by { keys; aggs; input } ->
      let* f = sub "" input in
      check_agg_args ~path [| f.fs |] aggs;
      let* idxs, s = Algebra.guard ~path (fun () -> Ok (Ops.group_schema ?keys ~aggs f.fs)) in
      let key_nulls = Array.map (fun i -> f.fn.(i)) idxs in
      let frames = [| (f.fs, f.fn) |] in
      (* Every group holds a row, except the global aggregate's: it has a
         row even over empty input, where non-COUNT aggregates are NULL
         regardless of their argument. *)
      let nonempty_groups = keys <> Some [] in
      let agg_nulls_arr =
        Array.of_list (List.map (agg_nulls ~nonempty_groups frames) aggs)
      in
      Ok { fs = s; fn = Array.append key_nulls agg_nulls_arr }
    | Md { base; detail; blocks; completion } ->
      let* bf = sub "base" base in
      let* df = sub "detail" detail in
      let theta_frames = [| bf.fs; df.fs |] in
      List.iter
        (fun b ->
          check_pred theta_frames b.Gmdj.theta;
          check_agg_args ~path theta_frames b.Gmdj.aggs)
        blocks;
      let* s =
        Algebra.guard ~path (fun () ->
            Ok (Gmdj.output_schema ~base:bf.fs ~detail:df.fs blocks))
      in
      (* the certified fact: GMDJ count columns are never NULL (empty
         range ⇒ count 0); value aggregates over an empty range are *)
      let frames = [| (bf.fs, bf.fn); (df.fs, df.fn) |] in
      let agg_nulls_arr =
        Array.of_list
          (List.concat_map
             (fun b ->
               List.map (agg_nulls ~nonempty_groups:false frames) b.Gmdj.aggs)
             blocks)
      in
      (* completion rules fire per (base, detail) pair, like θ *)
      Option.iter
        (fun c ->
          List.iter (check_pred theta_frames) (c.Gmdj.kill_when @ c.Gmdj.require_fired))
        completion;
      Ok { fs = s; fn = Array.append bf.fn agg_nulls_arr }
    | Union_all (l, r) ->
      let* lf = sub "left" l in
      let* rf = sub "right" r in
      if Array.length lf.fn = Array.length rf.fn then
        Ok { lf with fn = Array.map2 Nullability.lub lf.fn rf.fn }
      else (
        emit
          (Diag.error ~path ~code:"SCH005"
             (Printf.sprintf "union operands have arities %d and %d"
                (Array.length lf.fn) (Array.length rf.fn)));
        Ok lf)
    | Diff_all (l, r) ->
      let* lf = sub "left" l in
      let* _rf = sub "right" r in
      Ok lf
  in
  match go [] alg with
  | Ok f -> { schema = Some f.fs; nulls = Some f.fn; diags = Diag.sort !diags }
  | Error d ->
    { schema = None; nulls = None; diags = Diag.sort (d :: !diags) }
