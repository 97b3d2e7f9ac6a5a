open Subql_relational
open Subql_gmdj

type flags = { coalesce : bool; pushdown : bool; completion : bool }

let all = { coalesce = true; pushdown = true; completion = true }

let none = { coalesce = false; pushdown = false; completion = false }

let only ?(coalesce = false) ?(pushdown = false) ?(completion = false) () =
  { coalesce; pushdown; completion }

(* ------------------------------------------------------------------ *)
(* Generic bottom-up rewriting                                         *)
(* ------------------------------------------------------------------ *)

(* Apply [rule] bottom-up; keep rewriting a node until the rule no longer
   fires, then move up.  Terminates because every rule strictly shrinks
   the number of Md nodes or fires at most once per node. *)
let rewrite_bottom_up rule alg =
  let rec go alg =
    let alg = Algebra.map_children go alg in
    match rule alg with
    | Some alg' -> go alg'
    | None -> alg
  in
  go alg

(* Top-down variant: the completion rule must see a projection together
   with the selection and GMDJ underneath it — rewriting the children
   first would consume the [Select (cond, Md)] before the enclosing
   projection is inspected, losing the aggregate-free mode. *)
let rewrite_top_down rule alg =
  let rec go alg =
    match rule alg with
    | Some alg' -> go alg'
    | None -> Algebra.map_children go alg
  in
  go alg

(* ------------------------------------------------------------------ *)
(* Coalescing (Prop. 4.1) and selection push-up (Ex. 4.1)              *)
(* ------------------------------------------------------------------ *)

let agg_names blocks =
  List.concat_map (fun b -> List.map (fun s -> s.Aggregate.name) b.Gmdj.aggs) blocks

let block_exprs b =
  b.Gmdj.theta
  :: List.filter_map (fun s -> Aggregate.arg s.Aggregate.func) b.Gmdj.aggs

let references_any_name names e =
  List.exists (fun (_, n) -> List.mem n names) (Expr.attrs e)

(* Outer blocks may be merged below the inner GMDJ only if they do not
   read the inner GMDJ's aggregate columns (condition independence). *)
let blocks_independent ~inner_blocks ~outer_blocks =
  let inner_names = agg_names inner_blocks in
  not
    (List.exists
       (fun b -> List.exists (references_any_name inner_names) (block_exprs b))
       outer_blocks)

let requalify_blocks ~from_alias ~to_alias blocks =
  if from_alias = to_alias then blocks
  else
    List.map
      (fun b ->
        let rw = Expr.rewrite_qualifier ~from_rel:from_alias ~to_rel:to_alias in
        {
          Gmdj.theta = rw b.Gmdj.theta;
          aggs =
            List.map
              (fun s -> { s with Aggregate.func = Aggregate.map_arg rw s.Aggregate.func })
              b.Gmdj.aggs;
        })
      blocks

let try_merge ~inner_base ~inner_detail ~inner_blocks ~outer_detail ~outer_blocks =
  if not (Algebra.same_occurrence_modulo_alias inner_detail outer_detail) then None
  else if not (blocks_independent ~inner_blocks ~outer_blocks) then None
  else
    let outer_blocks =
      match Algebra.detail_alias outer_detail, Algebra.detail_alias inner_detail with
      | Some from_alias, Some to_alias -> requalify_blocks ~from_alias ~to_alias outer_blocks
      | _ -> outer_blocks
    in
    Some
      (Algebra.Md
         {
           base = inner_base;
           detail = inner_detail;
           blocks = inner_blocks @ outer_blocks;
           completion = None;
         })

(* Two GMDJs without completion rules, the outer one directly over the
   inner one or over a selection on it. *)
let coalesce_rule = function
  | Algebra.Md { base; detail = outer_detail; blocks = outer_blocks; completion = None } -> (
    match base with
    | Algebra.Md
        { base = inner_base; detail = inner_detail; blocks = inner_blocks; completion = None } ->
      try_merge ~inner_base ~inner_detail ~inner_blocks ~outer_detail ~outer_blocks
    | Algebra.Select
        ( cond,
          Algebra.Md
            { base = inner_base; detail = inner_detail; blocks = inner_blocks; completion = None }
        ) ->
      (* Example 4.1: hoist the count-selection above the merged GMDJ.
         The GMDJ extends each base row independently, so it commutes
         with any selection on its base. *)
      Option.map
        (fun merged -> Algebra.Select (cond, merged))
        (try_merge ~inner_base ~inner_detail ~inner_blocks ~outer_detail ~outer_blocks)
    | _ -> None)
  | _ -> None


(* ------------------------------------------------------------------ *)
(* Selection push-down                                                  *)
(* ------------------------------------------------------------------ *)

(* The aliases an expression's output columns are qualified with, when
   they can be determined syntactically; [None] when the node may emit
   columns we cannot attribute (computed projections, group outputs,
   etc.).  GMDJ outputs are base columns plus unqualified aggregate
   columns, so qualified references into them resolve via the base. *)
let rec alias_set = function
  | Algebra.Table t -> Some [ t ]
  | Algebra.Rename (a, _) -> Some [ a ]
  | Algebra.Select (_, x)
  | Algebra.Add_rownum (_, x)
  | Algebra.Group_by { keys = None; aggs = []; input = x }
  | Algebra.Sort { input = x; _ } ->
    alias_set x
  | Algebra.Md { base; _ } -> alias_set base
  | Algebra.Product (l, r) | Algebra.Join { kind = Algebra.Inner; left = l; right = r; _ } ->
    (match alias_set l, alias_set r with
    | Some a, Some b -> Some (a @ b)
    | _ -> None)
  | Algebra.Join { kind = Algebra.Semi | Algebra.Anti; left = l; _ } -> alias_set l
  | Algebra.Join { kind = Algebra.Left_outer; left = l; right = r; _ } ->
    (match alias_set l, alias_set r with Some a, Some b -> Some (a @ b) | _ -> None)
  | Algebra.Project _ | Algebra.Project_cols _ | Algebra.Project_rel _ | Algebra.Group_by _
  | Algebra.Union_all _ | Algebra.Diff_all _ ->
    None

(* A conjunct can move to a side iff all its references are qualified,
   every qualifier belongs to that side, and none belongs to the other
   (alias overlap would make resolution ambiguous). *)
let attributable conjunct ~here ~there =
  let refs = Expr.attrs conjunct in
  refs <> []
  && List.for_all
       (fun (q, _) ->
         match q with
         | None -> false
         | Some alias -> List.mem alias here && not (List.mem alias there))
       refs

let split_by_side e ~left_aliases ~right_aliases =
  List.fold_left
    (fun (l, r, rest) conjunct ->
      if attributable conjunct ~here:left_aliases ~there:right_aliases then
        (conjunct :: l, r, rest)
      else if attributable conjunct ~here:right_aliases ~there:left_aliases then
        (l, conjunct :: r, rest)
      else (l, r, conjunct :: rest))
    ([], [], []) (Expr.conjuncts e)
  |> fun (l, r, rest) -> (List.rev l, List.rev r, List.rev rest)

let select_over conjs x = match conjs with [] -> x | cs -> Algebra.Select (Expr.conjoin cs, x)

let pushdown_rule = function
  | Algebra.Select (e, Algebra.Select (f, x)) -> Some (Algebra.Select (Expr.and_ f e, x))
  | Algebra.Select (e, Algebra.Product (l, r)) -> (
    (* A selection over a product always becomes a join (σ ∘ × ≡ ⋈);
       single-side conjuncts additionally sink into the operands. *)
    match alias_set l, alias_set r with
    | Some left_aliases, Some right_aliases -> (
      let le, re, rest = split_by_side e ~left_aliases ~right_aliases in
      let l = select_over le l and r = select_over re r in
      match rest with
      | [] -> Some (Algebra.Product (l, r))
      | cs ->
        Some (Algebra.Join { kind = Algebra.Inner; cond = Expr.conjoin cs; left = l; right = r }))
    | _ ->
      Some (Algebra.Join { kind = Algebra.Inner; cond = e; left = l; right = r }))
  | Algebra.Select (e, Algebra.Join ({ kind = Algebra.Inner; _ } as j)) -> (
    match alias_set j.left, alias_set j.right with
    | Some left_aliases, Some right_aliases ->
      let le, re, rest = split_by_side e ~left_aliases ~right_aliases in
      let left = select_over le j.left and right = select_over re j.right in
      let cond = Expr.conjoin (j.cond :: rest) in
      Some (Algebra.Join { j with cond; left; right })
    | _ -> Some (Algebra.Join { j with cond = Expr.and_ j.cond e }))
  | Algebra.Select (e, Algebra.Md { base; detail; blocks; completion = None }) -> (
    (* Base-only conjuncts commute below the GMDJ. *)
    match alias_set base with
    | None -> None
    | Some base_aliases -> (
      let movable, rest =
        List.partition
          (fun conjunct -> attributable conjunct ~here:base_aliases ~there:[])
          (Expr.conjuncts e)
      in
      match movable with
      | [] -> None
      | _ ->
        let pushed =
          Algebra.Md { base = select_over movable base; detail; blocks; completion = None }
        in
        Some (select_over rest pushed)))
  | Algebra.Table _ | Algebra.Rename _ | Algebra.Select _ | Algebra.Project _
  | Algebra.Project_cols _ | Algebra.Project_rel _ | Algebra.Add_rownum _
  | Algebra.Product _ | Algebra.Join _ | Algebra.Group_by _ | Algebra.Md _
  | Algebra.Union_all _ | Algebra.Diff_all _ | Algebra.Sort _ ->
    None

(* ------------------------------------------------------------------ *)
(* Completion detection (Thms 4.1/4.2)                                 *)
(* ------------------------------------------------------------------ *)

(* Map an unqualified column name to the θ of the block whose count-star
   aggregate produces it.  Only applicable when names are globally unique
   across the GMDJ's aggregates. *)
let count_thetas blocks =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun s ->
          match s.Aggregate.func with
          | Aggregate.Count_star -> Some (s.Aggregate.name, b.Gmdj.theta)
          | Aggregate.Count _ | Aggregate.Sum _ | Aggregate.Min _ | Aggregate.Max _
          | Aggregate.Avg _ | Aggregate.First _ ->
            None)
        b.Gmdj.aggs)
    blocks

let names_unique names =
  let sorted = List.sort String.compare names in
  let rec ok = function
    | a :: (b :: _ as rest) -> a <> b && ok rest
    | [ _ ] | [] -> true
  in
  ok sorted

type rule_acc = {
  mutable kills : Expr.t list;
  mutable requires_ : Expr.t list;
  mutable residual : Expr.t list;
}

let expr_subset small big = List.for_all (fun c -> List.exists (Expr.equal c) big) small

let expr_diff big small = List.filter (fun c -> not (List.exists (Expr.equal c) small)) big

(* The ALL pattern: cnt_a = cnt_b where θ_a = θ_b ∧ ψ.  The selection
   fails exactly when some detail row satisfies θ_b but not ψ (as true),
   so that row kills the base tuple. *)
let all_kill theta_a theta_b =
  let ca = Expr.conjuncts theta_a and cb = Expr.conjuncts theta_b in
  if expr_subset cb ca && List.length cb < List.length ca then
    let psi = Expr.conjoin (expr_diff ca cb) in
    Some (Expr.and_ theta_b (Expr.not_ (Expr.Is_true psi)))
  else None

let classify_conjunct counts acc conjunct =
  let theta_of n = List.assoc_opt n counts in
  let as_count_attr = function
    | Expr.Attr (None, n) -> theta_of n
    | _ -> None
  in
  let handled =
    match conjunct with
    (* cnt = 0  /  0 = cnt  → kill *)
    | Expr.Cmp (Expr.Eq, a, Expr.Const (Value.Int 0)) -> (
      match as_count_attr a with
      | Some theta ->
        acc.kills <- acc.kills @ [ theta ];
        true
      | None -> false)
    | Expr.Cmp (Expr.Eq, Expr.Const (Value.Int 0), a) -> (
      match as_count_attr a with
      | Some theta ->
        acc.kills <- acc.kills @ [ theta ];
        true
      | None -> false)
    (* cnt > 0, cnt >= 1, cnt <> 0, 0 < cnt → require-fired *)
    | Expr.Cmp (Expr.Gt, a, Expr.Const (Value.Int 0))
    | Expr.Cmp (Expr.Ge, a, Expr.Const (Value.Int 1))
    | Expr.Cmp (Expr.Ne, a, Expr.Const (Value.Int 0)) -> (
      match as_count_attr a with
      | Some theta ->
        acc.requires_ <- acc.requires_ @ [ theta ];
        true
      | None -> false)
    | Expr.Cmp (Expr.Lt, Expr.Const (Value.Int 0), a)
    | Expr.Cmp (Expr.Le, Expr.Const (Value.Int 1), a)
    | Expr.Cmp (Expr.Ne, Expr.Const (Value.Int 0), a) -> (
      match as_count_attr a with
      | Some theta ->
        acc.requires_ <- acc.requires_ @ [ theta ];
        true
      | None -> false)
    (* cnt_a = cnt_b (the ALL pattern) *)
    | Expr.Cmp (Expr.Eq, a, b) -> (
      match as_count_attr a, as_count_attr b with
      | Some ta, Some tb -> (
        match all_kill ta tb with
        | Some kill ->
          acc.kills <- acc.kills @ [ kill ];
          true
        | None -> (
          match all_kill tb ta with
          | Some kill ->
            acc.kills <- acc.kills @ [ kill ];
            true
          | None -> false))
      | _ -> false)
    | _ -> false
  in
  if not handled then acc.residual <- acc.residual @ [ conjunct ]

(* Try to turn [Select (cond, Md m)] into a completed [Md].
   [aggs_discarded] tells whether the context projects the aggregate
   columns away, enabling Thm 4.1's aggregate-free mode. *)
let complete_select ~aggs_discarded cond (m : Algebra.t) =
  match m with
  | Algebra.Md { base; detail; blocks; completion = None } ->
    let counts = count_thetas blocks in
    if not (names_unique (agg_names blocks)) then None
    else begin
      let acc = { kills = []; requires_ = []; residual = [] } in
      List.iter (classify_conjunct counts acc) (Expr.conjuncts cond);
      if acc.kills = [] && acc.requires_ = [] then None
      else
        let names = agg_names blocks in
        let residual_uses_aggs = List.exists (references_any_name names) acc.residual in
        let maintain_aggregates = (not aggs_discarded) || residual_uses_aggs in
        let completion =
          { Gmdj.kill_when = acc.kills; require_fired = acc.requires_; maintain_aggregates }
        in
        let completed =
          Algebra.Md { base; detail; blocks; completion = Some completion }
        in
        Some
          (match acc.residual with
          | [] -> completed
          | rs -> Algebra.Select (Expr.conjoin rs, completed))
    end
  | _ -> None

let completion_rule alg =
  match alg with
  | Algebra.Select (cond, (Algebra.Md { completion = None; _ } as m)) ->
    complete_select ~aggs_discarded:false cond m
  | Algebra.Project_rel (a, Algebra.Select (cond, (Algebra.Md { completion = None; _ } as m)))
    ->
    Option.map
      (fun inner -> Algebra.Project_rel (a, inner))
      (complete_select ~aggs_discarded:true cond m)
  | Algebra.Project_cols ({ cols; _ } as pc) -> (
    match pc.input with
    | Algebra.Select (cond, (Algebra.Md { blocks; completion = None; _ } as m)) ->
      let names = agg_names blocks in
      let discards = not (List.exists (fun (_, n) -> List.mem n names) cols) in
      Option.map
        (fun inner -> Algebra.Project_cols { pc with input = inner })
        (complete_select ~aggs_discarded:discards cond m)
    | _ -> None)
  | Algebra.Project
      (exprs, Algebra.Select (cond, (Algebra.Md { blocks; completion = None; _ } as m))) ->
    let names = agg_names blocks in
    let discards = not (List.exists (fun (e, _) -> references_any_name names e) exprs) in
    Option.map
      (fun inner -> Algebra.Project (exprs, inner))
      (complete_select ~aggs_discarded:discards cond m)
  | Algebra.Table _ | Algebra.Rename _ | Algebra.Select _ | Algebra.Project _
  | Algebra.Project_rel _ | Algebra.Add_rownum _ | Algebra.Product _ | Algebra.Join _
  | Algebra.Group_by _ | Algebra.Md _ | Algebra.Union_all _ | Algebra.Diff_all _
  | Algebra.Sort _ ->
    None

(* Completion fires at most once per position (it consumes the Md): the
   patterns above only match an Md with no completion yet, so the
   rewritten node cannot fire again. *)

(* ------------------------------------------------------------------ *)
(* Key factorization of an aggregate-free completion's inner GMDJ      *)
(* ------------------------------------------------------------------ *)

(* An aggregate-free completion (Thm 4.1) over [MD(B, R, l, θ)] asks
   only which detail rows exist, so it reads that GMDJ as a set.  Every
   aggregate of a base tuple is a function of the base columns K its
   blocks read, so
     δπ_{K∪aggs} MD(B, R, l, θ) = MD(δπ_K B, R, l, θ)
   and the inner GMDJ runs once per distinct key instead of once per
   base tuple.  K also holds the base columns the completion reads.  The
   push-down's [distinct(outer cols) × I] bases are where this pays:
   the product is never materialized at full size. *)

let dedup_refs refs = List.sort_uniq compare refs

(* The base columns [exprs] read, each as [(alias, name)], or [None]
   when some reference cannot be attributed syntactically.  References
   qualified with [others] or named in [other_names] (unqualified)
   resolve outside the base; an alias in both lists is ambiguous. *)
let base_refs ~base_aliases ~others ~other_names exprs =
  List.fold_left
    (fun acc (q, n) ->
      match acc, q with
      | None, _ -> None
      | Some _, None -> if List.mem n other_names then acc else None
      | Some refs, Some a -> (
        match List.mem a base_aliases, List.mem a others with
        | true, false -> Some ((a, n) :: refs)
        | false, true -> acc
        | true, true | false, false -> None))
    (Some [])
    (List.concat_map Expr.attrs exprs)
  |> Option.map dedup_refs

let keys_of_alias aliases keys = List.filter (fun (a, _) -> List.mem a aliases) keys

(* Is [alg] syntactically a duplicate-free relation over exactly [keys]? *)
let distinct_on keys alg =
  let names cols = List.sort_uniq compare (List.map snd cols) in
  match alg with
  | Algebra.Group_by { keys = Some cols; aggs = []; _ } ->
    List.sort_uniq compare cols = List.map (fun (a, n) -> (Some a, n)) keys
  | Algebra.Rename (a, Algebra.Group_by { keys = Some cols; aggs = []; _ }) ->
    List.for_all (fun (k, _) -> k = a) keys && names cols = names keys
  | _ -> false

(* Rewrite [alg] into a relation with the same set of [keys] values,
   duplicate-free where that is cheap: [δπ_K] pushed through products
   (each side keeps its own keys; a side reading none stays as it is,
   since dropping it would make an empty product non-empty) and placed
   over anything else — a renamed table, or the selection a hoisted
   filter sank into.  [None] when nothing changes. *)
let rec factor_keys keys alg =
  let leaf () =
    if distinct_on keys alg then None
    else
      Some
        (Algebra.Group_by
           { keys = Some (List.map (fun (a, n) -> (Some a, n)) keys); aggs = []; input = alg })
  in
  match alg with
  | Algebra.Product (l, r) -> (
    match alias_set l, alias_set r with
    | Some al, Some ar when not (List.exists (fun a -> List.mem a ar) al) -> (
      let side ks x = if ks = [] then None else factor_keys ks x in
      match side (keys_of_alias al keys) l, side (keys_of_alias ar keys) r with
      | None, None -> None
      | l', r' ->
        Some (Algebra.Product (Option.value l' ~default:l, Option.value r' ~default:r)))
    | _ -> leaf ())
  | _ -> leaf ()

let completion_thetas blocks (c : Gmdj.completion) =
  c.Gmdj.kill_when @ c.Gmdj.require_fired @ List.map (fun b -> b.Gmdj.theta) blocks

(* Hoist: conjuncts that sit in every completion θ and block θ and read
   only the inner GMDJ's base columns filter the detail instead (a row
   failing one fires no rule and feeds no block), and the push-down
   rule sinks them into the inner base — otherwise their columns would
   stay in K.  Returns the rewritten blocks, completion and detail. *)
let hoist_detail_filters ~outer_aliases ~base_aliases blocks completion detail =
  match completion_thetas blocks completion with
  | [] -> None
  | first :: rest ->
    let common =
      List.filter
        (fun c ->
          attributable c ~here:base_aliases ~there:outer_aliases
          && List.for_all (fun t -> List.exists (Expr.equal c) (Expr.conjuncts t)) rest)
        (Expr.conjuncts first)
    in
    if common = [] then None
    else
      match rewrite_bottom_up pushdown_rule (Algebra.Select (Expr.conjoin common, detail)) with
      | Algebra.Md { completion = None; _ } as detail ->
        let drop t = Expr.conjoin (expr_diff (Expr.conjuncts t) common) in
        let blocks = List.map (fun b -> { b with Gmdj.theta = drop b.Gmdj.theta }) blocks in
        let completion =
          {
            completion with
            Gmdj.kill_when = List.map drop completion.Gmdj.kill_when;
            require_fired = List.map drop completion.Gmdj.require_fired;
          }
        in
        Some (blocks, completion, detail)
      | _ -> None

let factorize_rule = function
  | Algebra.Md
      ({
         completion = Some ({ maintain_aggregates = false; _ } as outer_completion);
         detail = Algebra.Md ({ completion = None; _ } as inner);
         _;
       } as m) -> (
    match alias_set m.base, alias_set inner.base, alias_set inner.detail with
    | Some outer_aliases, Some base_aliases, Some detail_aliases -> (
      let hoisted =
        hoist_detail_filters ~outer_aliases ~base_aliases m.blocks outer_completion m.detail
      in
      let blocks, completion, detail =
        Option.value hoisted ~default:(m.blocks, outer_completion, m.detail)
      in
      let factored =
        match detail with
        | Algebra.Md ({ completion = None; _ } as inner) -> (
          let read_by_completion =
            base_refs ~base_aliases ~others:outer_aliases ~other_names:(agg_names inner.blocks)
              (completion_thetas blocks completion @ List.concat_map block_exprs blocks)
          and read_by_blocks =
            base_refs ~base_aliases ~others:detail_aliases ~other_names:[]
              (List.concat_map block_exprs inner.blocks)
          in
          match read_by_completion, read_by_blocks with
          | Some c, Some k when c @ k <> [] ->
            Option.map
              (fun base -> Algebra.Md { inner with base })
              (factor_keys (dedup_refs (c @ k)) inner.base)
          | _ -> None)
        | _ -> None
      in
      if Option.is_none hoisted && Option.is_none factored then None
      else
        let detail = Option.value factored ~default:detail in
        Some (Algebra.Md { m with blocks; completion = Some completion; detail }))
    | _ -> None)
  | _ -> None

let optimize ?(flags = all) alg =
  let alg = if flags.coalesce then rewrite_bottom_up coalesce_rule alg else alg in
  let alg = if flags.pushdown then rewrite_bottom_up pushdown_rule alg else alg in
  if flags.completion then
    rewrite_top_down
      (fun alg ->
        match completion_rule alg with Some _ as r -> r | None -> factorize_rule alg)
      alg
  else alg
