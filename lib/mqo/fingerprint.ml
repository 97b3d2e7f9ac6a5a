open Subql_relational
open Subql_gmdj
open Subql

(* ------------------------------------------------------------------ *)
(* Alias collection                                                     *)
(* ------------------------------------------------------------------ *)

(* Aliases introduced by [Rename] nodes, in pre-order of first
   occurrence.  Plans that are equal up to a bijective renaming of their
   aliases list them in the same positions, so the positional mapping
   makes them identical.  The mapping is injective (distinct originals
   get distinct positions), so no two inequivalent plans are conflated
   by the renaming itself. *)
let alias_map alg =
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  let rec go alg =
    (match alg with
    | Algebra.Rename (a, _) ->
      if not (Hashtbl.mem tbl a) then begin
        incr next;
        Hashtbl.add tbl a (Printf.sprintf "~r%d" !next)
      end
    | _ -> ());
    List.iter go (Algebra.children alg)
  in
  go alg;
  fun a -> match Hashtbl.find_opt tbl a with Some a' -> a' | None -> a

(* ------------------------------------------------------------------ *)
(* Expression normalization                                             *)
(* ------------------------------------------------------------------ *)

let rec flatten_and acc = function
  | Expr.And (a, b) -> flatten_and (flatten_and acc b) a
  | e -> e :: acc

let rec flatten_or acc = function
  | Expr.Or (a, b) -> flatten_or (flatten_or acc b) a
  | e -> e :: acc

let rebuild join = function
  | [] -> assert false (* flatten always yields at least one operand *)
  | e :: es -> List.fold_left join e es

let rec canon_expr rename e =
  let go = canon_expr rename in
  match e with
  | Expr.Const _ -> e
  | Expr.Attr (q, n) -> Expr.Attr (Option.map rename q, n)
  | Expr.Cmp (op, a, b) ->
    let a = go a and b = go b in
    if compare a b <= 0 then Expr.Cmp (op, a, b) else Expr.Cmp (Expr.swap_cmp op, b, a)
  | Expr.Null_safe_eq (a, b) ->
    let a = go a and b = go b in
    if compare a b <= 0 then Expr.Null_safe_eq (a, b) else Expr.Null_safe_eq (b, a)
  | Expr.And _ ->
    flatten_and [] e |> List.map go |> List.sort compare |> rebuild (fun a b -> Expr.And (a, b))
  | Expr.Or _ ->
    flatten_or [] e |> List.map go |> List.sort compare |> rebuild (fun a b -> Expr.Or (a, b))
  | Expr.Not x -> Expr.Not (go x)
  | Expr.Arith (op, a, b) -> Expr.Arith (op, go a, go b)
  | Expr.Neg x -> Expr.Neg (go x)
  | Expr.Is_null x -> Expr.Is_null (go x)
  | Expr.Is_not_null x -> Expr.Is_not_null (go x)
  | Expr.Is_true x -> Expr.Is_true (go x)

let canon_spec rename (s : Aggregate.spec) =
  { s with Aggregate.func = Aggregate.map_arg (canon_expr rename) s.Aggregate.func }

let canon_blocks rename blocks =
  blocks
  |> List.map (fun b ->
         {
           Gmdj.theta = canon_expr rename b.Gmdj.theta;
           aggs = List.map (canon_spec rename) b.Gmdj.aggs;
         })
  |> List.sort compare

let canon_completion rename (c : Gmdj.completion) =
  {
    Gmdj.kill_when = List.map (canon_expr rename) c.Gmdj.kill_when |> List.sort compare;
    require_fired = List.map (canon_expr rename) c.Gmdj.require_fired |> List.sort compare;
    maintain_aggregates = c.Gmdj.maintain_aggregates;
  }

(* ------------------------------------------------------------------ *)
(* Plan canonicalization                                                *)
(* ------------------------------------------------------------------ *)

let canonicalize alg =
  let rename = alias_map alg in
  let ce = canon_expr rename in
  let rec go alg =
    match alg with
    | Algebra.Table _ -> alg
    | Algebra.Rename (a, x) -> Algebra.Rename (rename a, go x)
    | Algebra.Select (e, x) -> (
      (* Merge adjacent selections so that pushed and unpushed variants of
         the same conjunction coincide, then sort the conjuncts. *)
      match go x with
      | Algebra.Select (f, y) ->
        let conjs = List.sort compare (Expr.conjuncts (ce e) @ Expr.conjuncts f) in
        Algebra.Select (rebuild (fun a b -> Expr.And (a, b)) conjs, y)
      | y -> Algebra.Select (ce e, y))
    | Algebra.Project (exprs, x) ->
      Algebra.Project (List.map (fun (e, n) -> (ce e, n)) exprs, go x)
    | Algebra.Project_cols c ->
      Algebra.Project_cols
        {
          cols = List.map (fun (q, n) -> (Option.map rename q, n)) c.cols;
          input = go c.input;
        }
    | Algebra.Project_rel (aliases, x) ->
      Algebra.Project_rel (List.sort String.compare (List.map rename aliases), go x)
    | Algebra.Add_rownum (n, x) -> Algebra.Add_rownum (n, go x)
    | Algebra.Product (l, r) -> Algebra.Product (go l, go r)
    | Algebra.Join j -> Algebra.Join { j with cond = ce j.cond; left = go j.left; right = go j.right }
    | Algebra.Group_by g ->
      Algebra.Group_by
        {
          keys = Option.map (List.map (fun (q, n) -> (Option.map rename q, n))) g.keys;
          aggs = List.map (canon_spec rename) g.aggs;
          input = go g.input;
        }
    | Algebra.Md m ->
      Algebra.Md
        {
          base = go m.base;
          detail = go m.detail;
          blocks = canon_blocks rename m.blocks;
          completion = Option.map (canon_completion rename) m.completion;
        }
    | Algebra.Union_all (l, r) -> Algebra.Union_all (go l, go r)
    | Algebra.Diff_all (l, r) -> Algebra.Diff_all (go l, go r)
    | Algebra.Sort srt ->
      Algebra.Sort
        {
          srt with
          by = List.map (fun ((q, n), dir) -> ((Option.map rename q, n), dir)) srt.by;
          input = go srt.input;
        }
  in
  go alg

let fingerprint alg =
  (* No_sharing: two structurally equal plans must serialize identically
     even when one shares subtrees physically and the other does not. *)
  Digest.to_hex (Digest.string (Marshal.to_string (canonicalize alg) [ Marshal.No_sharing ]))

let of_query query = fingerprint (Transform.to_algebra query)
