open Subql_relational
open Subql_gmdj

module Stats = struct
  type col_stats = (string, float) Hashtbl.t

  type t = { tables : (string, float * col_stats) Hashtbl.t }

  let of_catalog catalog =
    let tables = Hashtbl.create 16 in
    List.iter
      (fun name ->
        let rel = Catalog.find catalog name in
        let schema = Relation.schema rel in
        let cols = Hashtbl.create (Schema.arity schema) in
        Array.iteri
          (fun i attr ->
            let seen = Hashtbl.create 64 in
            Relation.iter (fun row -> Hashtbl.replace seen row.(i) ()) rel;
            Hashtbl.replace cols attr.Schema.name (float_of_int (max 1 (Hashtbl.length seen))))
          schema;
        Hashtbl.replace tables name (float_of_int (Relation.cardinality rel), cols))
      (Catalog.tables catalog);
    { tables }

  let table_rows t name =
    match Hashtbl.find_opt t.tables name with Some (rows, _) -> rows | None -> 1000.0

  let table_rows_opt t name =
    match Hashtbl.find_opt t.tables name with Some (rows, _) -> Some rows | None -> None

  let column_distinct t ~table ~column =
    match Hashtbl.find_opt t.tables table with
    | None -> None
    | Some (_, cols) -> Hashtbl.find_opt cols column
end

type estimate = { rows : float; cost : float }

(* Alias-to-table origins let selectivity reach per-column distinct
   counts through renames; anything more complex degrades gracefully to
   shape-based defaults. *)
type info = { est : estimate; origins : (string * string) list }

let clamp s = Float.max 1e-6 (Float.min 1.0 s)

let ndv_of stats origins = function
  | Expr.Attr (Some alias, column) -> (
    match List.assoc_opt alias origins with
    | Some table -> Stats.column_distinct stats ~table ~column
    | None -> None)
  | _ -> None

(* The distinct count of each key column, where statistics reach it. *)
let key_ndvs stats origins keys =
  List.map (fun (rel, name) -> ndv_of stats origins (Expr.Attr (rel, name))) keys

let rec selectivity_with stats origins e =
  let sel =
    match e with
    | Expr.Const (Value.Bool true) -> 1.0
    | Expr.Const (Value.Bool false) -> 0.0
    | Expr.Cmp (Expr.Eq, a, b) | Expr.Null_safe_eq (a, b) -> (
      match ndv_of stats origins a, ndv_of stats origins b with
      | Some n, Some m -> 1.0 /. Float.max n m
      | Some n, None | None, Some n -> 1.0 /. n
      | None, None -> 0.1)
    | Expr.Cmp (Expr.Ne, _, _) -> 0.9
    | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> 0.33
    | Expr.And (a, b) -> selectivity_with stats origins a *. selectivity_with stats origins b
    | Expr.Or (a, b) ->
      Float.min 1.0 (selectivity_with stats origins a +. selectivity_with stats origins b)
    | Expr.Not a -> 1.0 -. selectivity_with stats origins a
    | Expr.Is_true a -> selectivity_with stats origins a
    | Expr.Is_null _ -> 0.05
    | Expr.Is_not_null _ -> 0.95
    | Expr.Const _ | Expr.Attr _ | Expr.Arith _ | Expr.Neg _ -> 0.5
  in
  clamp sel

let selectivity stats ~origins e = selectivity_with stats origins e

(* A GMDJ block can use the hash-partitioning strategy when its θ has an
   [=] or [<=>] conjunct between two differently-qualified attributes
   (one ends up on each side in practice) — the keys
   {!Expr.split_equi} extracts. *)
let block_hashable theta =
  List.exists
    (function
      | Expr.Cmp (Expr.Eq, Expr.Attr (Some a, _), Expr.Attr (Some b, _))
      | Expr.Null_safe_eq (Expr.Attr (Some a, _), Expr.Attr (Some b, _)) ->
        a <> b
      | _ -> false)
    (Expr.conjuncts theta)

(* The estimated output rows of every node of a plan: [point] is the
   node's, [inputs] its inputs' in {!Algebra.children} order.  A node's
   estimate depends on its subtree alone, so its [point] is exactly
   [(estimate stats ~config node).rows]. *)
type point = { point : float; inputs : point list }

let estimate_points stats ~config alg =
  let hash_joins = config.Eval.join_strategy = `Hash in
  let hash_gmdj = config.Eval.gmdj_strategy = `Hash in
  let rec node alg =
    let inputs = ref [] in
    (* Inputs are estimated in {!Algebra.children} order. *)
    let go x =
      let i, p = node x in
      inputs := p :: !inputs;
      i
    in
    let i =
      match alg with
      | Algebra.Table name ->
        let rows = Stats.table_rows stats name in
        { est = { rows; cost = rows }; origins = [ (name, name) ] }
      | Algebra.Rename (alias, x) ->
        let i = go x in
        let origins =
          match x with Algebra.Table t -> [ (alias, t) ] | _ -> []
        in
        { i with origins }
      | Algebra.Select (e, x) ->
        let i = go x in
        let sel = selectivity_with stats i.origins e in
        {
          i with
          est = { rows = i.est.rows *. sel; cost = i.est.cost +. i.est.rows };
        }
      | Algebra.Project (_, x)
      | Algebra.Project_cols { input = x; _ }
      | Algebra.Project_rel (_, x)
      | Algebra.Add_rownum (_, x) ->
        let i = go x in
        { est = { rows = i.est.rows; cost = i.est.cost +. i.est.rows }; origins = i.origins }
      | Algebra.Sort { by; limit; input } ->
        let i = go input in
        let n = i.est.rows in
        let rows = match limit with Some l -> Float.min n (float_of_int l) | None -> n in
        let work = match by with [] -> n | _ -> n *. Float.log2 (Float.max 2.0 n) in
        { est = { rows; cost = i.est.cost +. work }; origins = i.origins }
      | Algebra.Product (l, r) ->
        let li = go l in
        let ri = go r in
        let rows = li.est.rows *. ri.est.rows in
        {
          est = { rows; cost = li.est.cost +. ri.est.cost +. rows };
          origins = li.origins @ ri.origins;
        }
      | Algebra.Join { kind; cond; left; right } ->
        let li = go left in
        let ri = go right in
        let origins = li.origins @ ri.origins in
        let sel = selectivity_with stats origins cond in
        let l = li.est.rows and r = ri.est.rows in
        let inputs = li.est.cost +. ri.est.cost in
        let pair_work = if hash_joins then l +. r +. (l *. r *. sel) else l *. r in
        let est =
          match kind with
          | Algebra.Inner -> { rows = l *. r *. sel; cost = inputs +. pair_work }
          | Algebra.Left_outer ->
            { rows = Float.max l (l *. r *. sel); cost = inputs +. pair_work }
          | Algebra.Semi ->
            (* P(some right row matches) ≈ min(1, sel·r); nested loops stop
               at the first match, hash probes one bucket. *)
            let hit = Float.min 1.0 (sel *. r) in
            let cost =
              if hash_joins then inputs +. l +. r else inputs +. (l *. r *. 0.5)
            in
            { rows = l *. hit; cost }
          | Algebra.Anti ->
            let hit = Float.min 1.0 (sel *. r) in
            let cost =
              if hash_joins then inputs +. l +. r else inputs +. (l *. r *. 0.75)
            in
            { rows = l *. (1.0 -. hit); cost }
        in
        { est; origins }
      | Algebra.Group_by { keys; input; _ } ->
        (* One row per group: the distinct-count product of the qualified
           keys, capped by the input; a fixed fraction of the input when no
           key has statistics (unqualified keys, or every column). *)
        let i = go input in
        let ndvs =
          List.filter_map Fun.id (key_ndvs stats i.origins (Option.value keys ~default:[]))
        in
        let groups =
          match keys, ndvs with
          | Some [], _ -> 1.0
          | _, [] -> Float.max 1.0 (i.est.rows *. 0.3)
          | _ -> Float.min i.est.rows (List.fold_left ( *. ) 1.0 ndvs)
        in
        { est = { rows = groups; cost = i.est.cost +. i.est.rows }; origins = i.origins }
      | Algebra.Md { base; detail; blocks; completion } ->
        let bi = go base in
        let di = go detail in
        let b = bi.est.rows and d = di.est.rows in
        let origins = bi.origins @ di.origins in
        let block_cost block =
          let theta = block.Gmdj.theta in
          if hash_gmdj && block_hashable theta then
            (* One probe per detail row plus the matched updates. *)
            d +. (b *. d *. selectivity_with stats origins theta)
          else b *. d
        in
        let scan_cost = List.fold_left (fun acc blk -> acc +. block_cost blk) 0.0 blocks in
        let completion_factor = match completion with Some _ -> 0.5 | None -> 1.0 in
        {
          est =
            {
              rows = b;
              cost = bi.est.cost +. di.est.cost +. (scan_cost *. completion_factor) +. b;
            };
          origins;
        }
      | Algebra.Union_all (l, r) ->
        let li = go l in
        let ri = go r in
        {
          est =
            {
              rows = li.est.rows +. ri.est.rows;
              cost = li.est.cost +. ri.est.cost +. li.est.rows +. ri.est.rows;
            };
          origins = [];
        }
      | Algebra.Diff_all (l, r) ->
        let li = go l in
        let ri = go r in
        {
          est =
            {
              rows = li.est.rows;
              cost = li.est.cost +. ri.est.cost +. li.est.rows +. ri.est.rows;
            };
          origins = [];
        }
    in
    (i, { point = i.est.rows; inputs = List.rev !inputs })
  in
  let i, p = node alg in
  (i.est, p)

let estimate stats ~config alg = fst (estimate_points stats ~config alg)

(* ------------------------------------------------------------------ *)
(* Certified cardinality intervals (abstract interpretation)           *)
(* ------------------------------------------------------------------ *)

module Interval = struct
  type t = { lo : float; hi : float }

  let v lo hi =
    let lo = Float.max 0.0 lo in
    { lo; hi = Float.max lo hi }

  let exact n = v n n

  let top = { lo = 0.0; hi = Float.infinity }

  let contains t n = n >= t.lo -. 1e-6 && n <= t.hi +. 1e-6

  let is_finite t = t.hi < Float.infinity

  let fmt_bound n =
    if n = Float.infinity then "inf"
    else if Float.is_integer n && Float.abs n < 1e15 then
      Printf.sprintf "%.0f" n
    else Printf.sprintf "%g" n

  let to_string t = Printf.sprintf "[%s, %s]" (fmt_bound t.lo) (fmt_bound t.hi)

  let pp ppf t = Format.pp_print_string ppf (to_string t)

  type tree = { op : string; path : string list; ival : t; children : tree list }
end

(* Per-operator cardinality intervals: unlike {!estimate}, which picks a
   plausible point, these are {e sound} bounds — for any database
   consistent with [stats] (exact row and distinct counts over the
   current catalog), the operator's true output cardinality lies inside
   its interval.  Selections therefore only widen the lower bound to 0
   (never guess a selectivity), outer joins and GMDJ completion widen
   conservatively, and the only narrowing below the input's upper bound
   comes from distinct-count products, which are genuine upper bounds on
   group/distinct counts.  Alias origins are threaded exactly as in
   {!estimate} but dropped across computed projections ([Project],
   [Add_rownum]) where a derived column could shadow a base column's
   name: a distinct-count bound is only used where the column provably
   carries base-table values. *)
(* A conjunction of integer comparisons pinning one attribute to an
   empty value range proves the selection dead — certified cardinality
   exactly 0, a narrowing no selectivity heuristic can make soundly.
   Only conjuncts of the shape [attr OP int-const] (either operand
   order) participate; everything else is ignored, which can only
   weaken the check, never unsoundly fire it. *)
let unsatisfiable pred =
  let rec conjuncts e acc =
    match e with Expr.And (a, b) -> conjuncts a (conjuncts b acc) | e -> e :: acc
  in
  let bounds = Hashtbl.create 4 in
  let tighten key lo hi =
    let l0, h0 =
      match Hashtbl.find_opt bounds key with
      | Some b -> b
      | None -> (Float.neg_infinity, Float.infinity)
    in
    Hashtbl.replace bounds key (Float.max l0 lo, Float.min h0 hi)
  in
  let note_cmp op key c =
    let c = float_of_int c in
    match op with
    | Expr.Eq -> tighten key c c
    | Expr.Lt -> tighten key Float.neg_infinity (c -. 1.0)
    | Expr.Le -> tighten key Float.neg_infinity c
    | Expr.Gt -> tighten key (c +. 1.0) Float.infinity
    | Expr.Ge -> tighten key c Float.infinity
    | Expr.Ne -> ()
  in
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | (Expr.Eq | Expr.Ne) as op -> op
  in
  List.iter
    (function
      | Expr.Cmp (op, Expr.Attr (rel, name), Expr.Const (Value.Int c)) ->
        note_cmp op (rel, name) c
      | Expr.Cmp (op, Expr.Const (Value.Int c), Expr.Attr (rel, name)) ->
        note_cmp (flip op) (rel, name) c
      | _ -> ())
    (conjuncts pred []);
  Hashtbl.fold (fun _ (lo, hi) acc -> acc || lo > hi) bounds false

let intervals stats alg =
  let open Interval in
  let is_true = function Expr.Const (Value.Bool true) -> true | _ -> false in
  let is_false = function Expr.Const (Value.Bool false) -> true | _ -> false in
  let ndv_product origins cols =
    let ndvs = key_ndvs stats origins cols in
    if List.exists Option.is_none ndvs then None
    else Some (List.fold_left (fun acc n -> acc *. Option.get n) 1.0 ndvs)
  in
  let rec go rev_path alg =
    let rev_path = Algebra.node_label alg :: rev_path in
    let path = List.rev rev_path in
    let sub slot x = go (match slot with "" -> rev_path | s -> s :: rev_path) x in
    let node ival children origins =
      ({ op = Eval.node_label alg; path; ival; children }, origins)
    in
    match alg with
    | Algebra.Table name -> (
      match Stats.table_rows_opt stats name with
      | Some rows -> node (exact rows) [] [ (name, name) ]
      | None -> node top [] [])
    | Algebra.Rename (alias, x) ->
      let t, _ = sub "" x in
      let origins = match x with Algebra.Table tbl -> [ (alias, tbl) ] | _ -> [] in
      node t.ival [ t ] origins
    | Algebra.Select (e, x) ->
      let t, origins = sub "" x in
      let ival =
        if is_false e || unsatisfiable e then exact 0.0
        else if is_true e then t.ival
        else v 0.0 t.ival.hi
      in
      node ival [ t ] origins
    | Algebra.Project (_, x) | Algebra.Add_rownum (_, x) ->
      (* Output columns may be computed: keep the cardinality, drop the
         origins so downstream distinct-count lookups cannot alias a
         derived column to a base column. *)
      let t, _ = sub "" x in
      node t.ival [ t ] []
    | Algebra.Project_rel (_, x) | Algebra.Project_cols { input = x; _ } ->
      let t, origins = sub "" x in
      node t.ival [ t ] origins
    | Algebra.Sort { limit; input; _ } ->
      let t, origins = sub "" input in
      let cut x = match limit with Some l -> Float.min x (float_of_int l) | None -> x in
      node (v (cut t.ival.lo) (cut t.ival.hi)) [ t ] origins
    | Algebra.Product (l, r) ->
      let lt, lo_ = sub "left" l and rt, ro = sub "right" r in
      node (v (lt.ival.lo *. rt.ival.lo) (lt.ival.hi *. rt.ival.hi)) [ lt; rt ] (lo_ @ ro)
    | Algebra.Join { kind; cond; left; right } ->
      let lt, lo_ = sub "left" left and rt, ro = sub "right" right in
      let origins = lo_ @ ro in
      let li = lt.ival and ri = rt.ival in
      let ival =
        match kind with
        | Algebra.Inner ->
          let lo = if is_true cond then li.lo *. ri.lo else 0.0 in
          v lo (li.hi *. ri.hi)
        | Algebra.Left_outer ->
          (* Every left row appears at least once; at most once per
             matching right row. *)
          v li.lo (li.hi *. Float.max 1.0 ri.hi)
        | Algebra.Semi ->
          let lo = if is_true cond && ri.lo > 0.0 then li.lo else 0.0 in
          v lo li.hi
        | Algebra.Anti ->
          let lo = if ri.hi = 0.0 then li.lo else 0.0 in
          v lo li.hi
      in
      node ival [ lt; rt ] origins
    | Algebra.Group_by { keys; input; _ } ->
      (* The global aggregate is exactly one row; otherwise at least one
         group per non-empty input, at most one per distinct key. *)
      let t, origins = sub "" input in
      let ival =
        match keys with
        | Some [] -> exact 1.0
        | _ ->
          let lo = if t.ival.lo > 0.0 then 1.0 else 0.0 in
          let hi =
            match Option.bind keys (ndv_product origins) with
            | Some p -> Float.min t.ival.hi p
            | None -> t.ival.hi
          in
          v lo hi
      in
      node ival [ t ] origins
    | Algebra.Md { base; detail; completion; _ } ->
      (* A GMDJ emits exactly one output row per base row (Thm 4.1);
         completion may kill base rows, unless it has no kill/require
         rules. *)
      let bt, bo = sub "base" base and dt, _ = sub "detail" detail in
      let lo =
        match completion with
        | Some c when c.Gmdj.kill_when <> [] || c.Gmdj.require_fired <> [] -> 0.0
        | Some _ | None -> bt.ival.lo
      in
      node (v lo bt.ival.hi) [ bt; dt ] bo
    | Algebra.Union_all (l, r) ->
      let lt, _ = sub "left" l and rt, _ = sub "right" r in
      node (v (lt.ival.lo +. rt.ival.lo) (lt.ival.hi +. rt.ival.hi)) [ lt; rt ] []
    | Algebra.Diff_all (l, r) ->
      let lt, _ = sub "left" l and rt, _ = sub "right" r in
      node (v (Float.max 0.0 (lt.ival.lo -. rt.ival.hi)) lt.ival.hi) [ lt; rt ] []
  in
  fst (go [] alg)

type certificate = {
  bound : float;
  spill_bound : float;
  argmax_op : string;
  argmax_path : string list;
  argmax_rows : float;
  tree : Interval.tree;
}

(* An [=]/[<=>] conjunct between differently-qualified attributes is
   what [Spill.join] partitions on — the same syntactic test the GMDJ hash
   strategy uses ([block_hashable]). *)
let join_partitionable cond = block_hashable cond

(* Memory height: the one model of the rows the streaming executor
   ([Eval.dispatch]) holds materialized — the planning-time counterpart
   of the measured ["eval.peak_materialized_rows"] gauge.  Per node it
   yields [(peak, live, copy)]: the high-water mark while the node sets
   up its output stream (every breaker below it runs then), the rows it
   keeps held while that stream flows, and the rows a consumer adds by
   collecting the stream ([0] when the output already is a relation the
   consumer borrows: a table, an alias of one, a breaker's result).

   - Pipelined operators hold nothing of their own.
   - A build/probe operator (Product, Diff_all, Join) collects its right
     input and holds it while its left input is set up and streams.
   - A breaker releases its input and holds its result; GROUP BY
     (DISTINCT and the global aggregate too) folds its input without
     charging it, Sort and the GMDJ base collect theirs first.
   - The root's result is collected once more at the end.

   A node's cardinality is the upper bound of its interval in [tree]:
   a certified interval, which makes the result a sound ceiling, or a
   point estimate ({!at_points}).  [budget] is the spill cap: state a
   spilling operator bounds (GROUP BY hash state, a partitionable
   join's inputs) is charged at most
   [budget], the excess accumulating as spill volume; every spilling
   join collects both inputs. *)
let height ~budget alg tree =
  let rows (t : Interval.tree) = t.Interval.ival.Interval.hi in
  let spilled = ref 0.0 in
  let cap r =
    match budget with
    | Some b when r > b ->
      spilled := !spilled +. (r -. b);
      b
    | Some _ | None -> r
  in
  let best = ref (0.0, "<streaming>", ([] : string list)) in
  let note v (t : Interval.tree) =
    let b, _, _ = !best in
    if v > b then best := (v, t.Interval.op, t.Interval.path)
  in
  let ( ++ ) = Float.max in
  let rec go alg (t : Interval.tree) =
    let n = rows t in
    let breaker own peak =
      note own t;
      (peak ++ own, n, 0.0)
    in
    match alg, t.Interval.children with
    | Algebra.Table _, _ -> (0.0, 0.0, 0.0)
    | Algebra.Rename (_, x), [ c ] -> go x c
    | ( ( Algebra.Select (_, x)
        | Algebra.Project (_, x)
        | Algebra.Project_rel (_, x)
        | Algebra.Add_rownum (_, x)
        | Algebra.Project_cols { input = x; _ } ),
        [ c ] ) ->
      let peak, live, _ = go x c in
      (peak, live, n)
    | Algebra.Group_by { input = x; _ }, [ c ] ->
      (* A spilling fold charges its resident state while the input is
         still held; an in-memory fold is charged only as its result. *)
      let peak, live, _ = go x c in
      let state = match budget with Some _ -> cap n | None -> 0.0 in
      breaker ((live +. state) ++ n) peak
    | Algebra.Sort { input; _ }, [ c ] ->
      let peak, live, copy = go input c in
      breaker ((live +. copy) ++ n) peak
    | Algebra.Md { base; detail; _ }, [ bt; dt ] ->
      let bpeak, blive, bcopy = go base bt in
      let dpeak, _, _ = go detail dt in
      let held = blive +. bcopy in
      breaker ((held +. dpeak) ++ n) bpeak
    | Algebra.Join { cond; left; right; _ }, [ lt; rt ] when budget <> None ->
      (* Spill.join: both inputs are set up, then collected — capped
         when the condition has a key to partition on, the right one
         whole otherwise. *)
      let lpeak, llive, _ = go left lt in
      let rpeak, rlive, _ = go right rt in
      let resident =
        if join_partitionable cond then cap (rows lt) +. cap (rows rt) else rows rt
      in
      breaker ((llive +. rpeak) ++ (llive +. rlive +. resident) ++ n) lpeak
    | ( ( Algebra.Product (left, right)
        | Algebra.Join { left; right; _ }
        | Algebra.Diff_all (left, right) ),
        [ lt; rt ] ) ->
      let rpeak, rlive, rcopy = go right rt in
      let build = rlive +. rcopy in
      let lpeak, llive, _ = go left lt in
      note build t;
      (rpeak ++ (build +. lpeak), build +. llive, n)
    | Algebra.Union_all (l, r), [ lt; rt ] ->
      let lpeak, llive, _ = go l lt in
      let rpeak, rlive, _ = go r rt in
      (lpeak ++ (llive +. rpeak), llive +. rlive, n)
    | _ -> invalid_arg "Cost.height: interval tree does not match the plan"
  in
  let peak, live, copy = go alg tree in
  let argmax_rows, argmax_op, argmax_path = !best in
  {
    bound = peak ++ (live +. copy);
    spill_bound = !spilled;
    argmax_op;
    argmax_path;
    argmax_rows;
    tree;
  }

(* The interval tree with every node's interval narrowed to its point
   estimate, for [height] to read estimates where it reads bounds. *)
let rec at_points (t : Interval.tree) (p : point) =
  {
    t with
    Interval.ival = { Interval.lo = p.point; hi = p.point };
    children = List.map2 at_points t.Interval.children p.inputs;
  }

let point_tree stats ~config alg tree = at_points tree (snd (estimate_points stats ~config alg))

let spill_budget config = Option.map float_of_int config.Eval.spill_budget_rows

let memory_height stats ~config alg =
  (height ~budget:None alg (point_tree stats ~config alg (intervals stats alg))).bound

let memory_height_certified stats ~config alg =
  height ~budget:(spill_budget config) alg (intervals stats alg)

let memory_heights stats ~config alg =
  let tree = intervals stats alg and budget = spill_budget config in
  ((height ~budget alg (point_tree stats ~config alg tree)).bound, height ~budget alg tree)
