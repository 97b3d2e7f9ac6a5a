open Subql_relational
open Nested_ast

type mode = Plain | Smart

type stats = {
  mutable subquery_invocations : int;
  mutable inner_rows_examined : int;
}

let fresh_stats () = { subquery_invocations = 0; inner_rows_examined = 0 }

(* The oracle works on whole relations: stream one through an operator
   and collect the result. *)
let whole op rel = Chunk.Source.to_relation (op (Chunk.Source.of_relation rel))

let rec eval_base catalog = function
  | Btable t -> Catalog.find catalog t
  | Bselect (p, b) -> whole (Ops.select p) (eval_base catalog b)
  | Bproject { cols; distinct; input } ->
    let projected =
      whole (Ops.project_cols (List.map (fun c -> (None, c)) cols)) (eval_base catalog input)
    in
    if distinct then Ops.group_by ~aggs:[] (Chunk.Source.of_relation projected) else projected
  | Bproduct (a, b) ->
    whole (Ops.product ~build:(eval_base catalog b)) (eval_base catalog a)
  | Balias (a, b) -> Relation.rename a (eval_base catalog b)

let rec pred_depth = function
  | Ptrue | Atom _ -> 0
  | Pand (a, b) | Por (a, b) -> max (pred_depth a) (pred_depth b)
  | Pnot a -> pred_depth a
  | Sub s -> 1 + pred_depth s.s_where

(* Iteration plan over a subquery's source for a given outer context:
   [iterate stop_early on_row] visits the rows matching the (residual)
   inner predicate; [on_row] returns [true] to keep going, [false] to
   terminate early. *)
type iteration = { iterate : (Tuple.t -> bool) -> unit }

let bump stats field =
  match stats with
  | None -> ()
  | Some s -> (
    match field with
    | `Invocation -> s.subquery_invocations <- s.subquery_invocations + 1
    | `Row -> s.inner_rows_examined <- s.inner_rows_examined + 1)

(* Split the top-level conjunction of a predicate into atoms and the
   rest.  Used by Smart mode to identify hoistable and indexable
   conjuncts; anything under an Or stays opaque. *)
let rec top_conjuncts = function
  | Pand (a, b) -> top_conjuncts a @ top_conjuncts b
  | Ptrue -> []
  | p -> [ p ]

let rec compile_pred ~mode ~stats ~catalog (frames : Schema.t array) (ctx : Tuple.t array)
    (p : pred) : unit -> Bool3.t =
  match p with
  | Ptrue -> fun () -> Bool3.True
  | Atom e ->
    Expr.typecheck_bool frames e;
    let f = Expr.compile_frames frames e in
    fun () -> Expr.to_bool3 (f ctx)
  | Pand (a, b) ->
    let fa = compile_pred ~mode ~stats ~catalog frames ctx a in
    let fb = compile_pred ~mode ~stats ~catalog frames ctx b in
    fun () ->
      (match fa () with
      | Bool3.False -> Bool3.False
      | va -> Bool3.and_ va (fb ()))
  | Por (a, b) ->
    let fa = compile_pred ~mode ~stats ~catalog frames ctx a in
    let fb = compile_pred ~mode ~stats ~catalog frames ctx b in
    fun () ->
      (match fa () with
      | Bool3.True -> Bool3.True
      | va -> Bool3.or_ va (fb ()))
  | Pnot a ->
    let fa = compile_pred ~mode ~stats ~catalog frames ctx a in
    fun () -> Bool3.not_ (fa ())
  | Sub s -> compile_sub ~mode ~stats ~catalog frames ctx s

and compile_sub ~mode ~stats ~catalog frames ctx s =
  let d = Array.length frames in
  let source = Relation.rename s.s_alias (eval_base catalog s.source) in
  let sschema = Relation.schema source in
  let frames' = Array.append frames [| sschema |] in
  let iteration = compile_iteration ~mode ~stats ~catalog ~frames ~frames' ~ctx ~d ~source s in
  let early = match mode with Smart -> true | Plain -> false in
  match s.kind with
  | Exists | Not_exists ->
    let negate = s.kind = Not_exists in
    fun () ->
      bump stats `Invocation;
      let found = ref false in
      iteration.iterate (fun _row ->
          found := true;
          not early);
      Bool3.of_bool (if negate then not !found else !found)
  | Quant (lhs, op, q, col) ->
    Expr.typecheck_bool frames' (Expr.Cmp (op, lhs, Expr.attr ~rel:s.s_alias col));
    let lhs_f = Expr.compile_frames frames lhs in
    let col_i = Schema.find sschema ~rel:s.s_alias col in
    (match q with
    | Qsome ->
      fun () ->
        bump stats `Invocation;
        let lhs_v = lhs_f ctx in
        let found = ref false in
        iteration.iterate (fun row ->
            if Expr.is_true (Expr.apply_cmp op lhs_v row.(col_i)) then begin
              found := true;
              not early
            end
            else true);
        Bool3.of_bool !found
    | Qall ->
      fun () ->
        bump stats `Invocation;
        let lhs_v = lhs_f ctx in
        let violated = ref false in
        iteration.iterate (fun row ->
            if not (Expr.is_true (Expr.apply_cmp op lhs_v row.(col_i))) then begin
              violated := true;
              not early
            end
            else true);
        Bool3.of_bool (not !violated))
  | Cmp_scalar (lhs, op, col) ->
    Expr.typecheck_bool frames' (Expr.Cmp (op, lhs, Expr.attr ~rel:s.s_alias col));
    let lhs_f = Expr.compile_frames frames lhs in
    let col_i = Schema.find sschema ~rel:s.s_alias col in
    fun () ->
      bump stats `Invocation;
      let lhs_v = lhs_f ctx in
      let count = ref 0 in
      iteration.iterate (fun row ->
          if Expr.is_true (Expr.apply_cmp op lhs_v row.(col_i)) then incr count;
          (* Once two rows match the count can never be 1 again. *)
          not (early && !count >= 2));
      Bool3.of_bool (!count = 1)
  | Cmp_agg (lhs, op, func) ->
    let spec = { Aggregate.func; name = "agg" } in
    ignore (Aggregate.output_ty frames' spec);
    let lhs_f = Expr.compile_frames frames lhs in
    let compiled = [| Aggregate.compile frames' spec |] in
    let out = [| Value.Null |] in
    fun () ->
      bump stats `Invocation;
      let st = Aggregate.states compiled ~slots:1 in
      iteration.iterate (fun row ->
          ctx.(d) <- row;
          Aggregate.step st 0 ctx;
          true);
      Aggregate.write st 0 out 0;
      Expr.to_bool3 (Expr.apply_cmp op (lhs_f ctx) out.(0))
  | In_ _ | Not_in _ ->
    invalid_arg "Naive_eval: IN/NOT IN must be desugared (run Normalize first)"

(* Build the row iteration for a subquery: which inner rows to visit for
   the current outer context, applying the residual inner predicate. *)
and compile_iteration ~mode ~stats ~catalog ~frames ~frames' ~ctx ~d ~source s =
  match mode with
  | Plain ->
    let inner = compile_pred ~mode ~stats ~catalog frames' ctx s.s_where in
    let rows = Relation.rows source in
    {
      iterate =
        (fun on_row ->
          let n = Array.length rows in
          let continue = ref true in
          let i = ref 0 in
          while !continue && !i < n do
            let row = rows.(!i) in
            bump stats `Row;
            ctx.(d) <- row;
            if Bool3.to_bool (inner ()) then continue := on_row row;
            incr i
          done);
    }
  | Smart ->
    let sschema = Relation.schema source in
    (* 1. Hoist uncorrelated atoms: filter the source once. *)
    let conjs = top_conjuncts s.s_where in
    let hoistable, rest =
      List.partition
        (function Atom e -> Expr.refs_resolvable [| sschema |] e | _ -> false)
        conjs
    in
    let source =
      match hoistable with
      | [] -> source
      | atoms ->
        let es = List.map (function Atom e -> e | _ -> assert false) atoms in
        whole (Ops.select (Expr.conjoin es)) source
    in
    let rows = Relation.rows source in
    (* 2. Extract equi-correlation conjuncts: outer expression = local
       column.  They drive a hash index over the (filtered) source. *)
    let classify_equi = function
      | Atom (Expr.Cmp (Expr.Eq, a, b)) ->
        let local_col e =
          match e with
          | Expr.Attr (rel, name) -> Schema.find_opt sschema ?rel name
          | _ -> None
        in
        let outer_only e =
          Expr.refs_resolvable frames e && not (Expr.refs_resolvable [| sschema |] e)
        in
        (match local_col b, outer_only a with
        | Some col, true -> Some (a, col)
        | _ -> (
          match local_col a, outer_only b with
          | Some col, true -> Some (b, col)
          | _ -> None))
      | _ -> None
    in
    let equi, residual_preds =
      List.fold_left
        (fun (equi, res) conj ->
          match classify_equi conj with
          | Some pair -> (pair :: equi, res)
          | None -> (conj, res) |> fun (c, res) -> (equi, c :: res))
        ([], []) rest
    in
    let equi = List.rev equi and residual_preds = List.rev residual_preds in
    let residual =
      match residual_preds with
      | [] -> None
      | ps -> Some (compile_pred ~mode ~stats ~catalog frames' ctx (conjoin_preds ps))
    in
    let visit on_row row continue =
      bump stats `Row;
      ctx.(d) <- row;
      match residual with
      | None -> continue := on_row row
      | Some inner -> if Bool3.to_bool (inner ()) then continue := on_row row
    in
    (match equi with
    | [] ->
      {
        iterate =
          (fun on_row ->
            let n = Array.length rows in
            let continue = ref true in
            let i = ref 0 in
            while !continue && !i < n do
              visit on_row rows.(!i) continue;
              incr i
            done);
      }
    | _ ->
      let outer_fs = Array.of_list (List.map (fun (e, _) -> Expr.compile_frames frames e) equi) in
      let cols = Array.of_list (List.map snd equi) in
      let index = Index.build_rows rows cols in
      let key_cols = Array.init (Array.length cols) Fun.id in
      {
        iterate =
          (fun on_row ->
            let key = Array.map (fun f -> f ctx) outer_fs in
            let continue = ref true in
            Index.probe_row_iter index key key_cols (fun ri ->
                if !continue then visit on_row rows.(ri) continue));
      })

(* The SQL tail over the qualifying rows, with the whole-relation
   operators: projection (or GROUP BY / HAVING), DISTINCT, ORDER BY,
   LIMIT. *)
let apply_tail q rel =
  let rel =
    match q.q_select with
    | Select_all -> rel
    | Select_cols cols -> whole (Ops.project_cols cols) rel
    | Select_exprs exprs -> whole (Ops.project exprs) rel
    | Select_grouped g ->
      let grouped = Ops.group_by ~keys:g.keys ~aggs:g.aggs (Chunk.Source.of_relation rel) in
      let kept =
        match g.having with Some h -> whole (Ops.select h) grouped | None -> grouped
      in
      whole (Ops.project g.out) kept
  in
  let rel = if q.q_distinct then Ops.group_by ~aggs:[] (Chunk.Source.of_relation rel) else rel in
  Ops.sort ~by:q.q_order_by ?limit:q.q_limit (Chunk.Source.of_relation rel)

let rename_base alias rel = if alias = "" then rel else Relation.rename alias rel

let eval ?(mode = Smart) ?stats catalog q =
  let where = Normalize.pred q.q_where in
  let base_rel = rename_base q.q_alias (eval_base catalog q.q_base) in
  let bschema = Relation.schema base_rel in
  let ctx = Array.make (pred_depth where + 1) Tuple.empty in
  let p = compile_pred ~mode ~stats ~catalog [| bschema |] ctx where in
  let kept =
    Relation.filter
      (fun row ->
        ctx.(0) <- row;
        Bool3.to_bool (p ()))
      base_rel
  in
  apply_tail q kept
