(* Query fuzzer: random nested queries over random databases, checked
   across every engine.  This goes beyond the fixed zoo: subquery kinds,
   nesting depth, predicate structure, correlation targets (including
   non-neighboring references) and comparison operators are all drawn at
   random. *)

open Subql_relational
open Subql_nested
module N = Nested_ast
module G = QCheck2.Gen

let ( let* ) = G.bind

let attr = Expr.attr

(* Tables available to the fuzzer and their integer columns. *)
let inner_tables = [ ("I", [ "k"; "y" ]); ("J", [ "k"; "y" ]) ]

type scope_entry = { alias : string; cols : string list }

let gen_cmp = G.oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

(* A scalar expression over the scope: mostly local references, sometimes
   an enclosing alias (possibly non-neighboring), sometimes a constant. *)
let gen_scalar (scope : scope_entry list) : Expr.t G.t =
  let ref_of entry = G.map (fun col -> attr ~rel:entry.alias col) (G.oneofl entry.cols) in
  let rev = List.rev scope in
  let local = List.hd rev in
  let outers = List.tl rev in
  G.frequency
    ((6, ref_of local)
    :: (2, G.map (fun i -> Expr.int i) (G.int_range (-3) 6))
    :: List.map (fun entry -> (2, ref_of entry)) outers)

let gen_atom scope =
  let* op = gen_cmp in
  let* a = gen_scalar scope in
  let* b = gen_scalar scope in
  G.return (N.atom (Expr.cmp op a b))

(* [gen_pred ~depth ~path scope] builds a predicate whose subqueries may
   nest down to [depth]; [path] keeps generated aliases unique. *)
let rec gen_pred ~depth ~path (scope : scope_entry list) : N.pred G.t =
  let atom = gen_atom scope in
  if depth = 0 then atom
  else
    G.frequency
      [
        (3, atom);
        (4, gen_sub ~depth ~path scope);
        ( 2,
          let* a = gen_pred ~depth:(depth - 1) ~path:(path ^ "a") scope in
          let* b = gen_pred ~depth:(depth - 1) ~path:(path ^ "b") scope in
          let* which = G.bool in
          G.return (if which then N.pand a b else N.por a b) );
        ( 1,
          let* p = gen_pred ~depth:(depth - 1) ~path:(path ^ "n") scope in
          G.return (N.pnot p) );
      ]

and gen_sub ~depth ~path scope : N.pred G.t =
  let* table, cols = G.oneofl inner_tables in
  let alias = Printf.sprintf "s%s" path in
  let child_scope = scope @ [ { alias; cols } ] in
  let* where =
    if depth <= 1 then gen_atom child_scope
    else gen_pred ~depth:(depth - 1) ~path:(path ^ "w") child_scope
  in
  (* Bias towards a correlated conjunct so subqueries are rarely
     vacuous. *)
  let* correlate = G.frequencyl [ (4, true); (1, false) ] in
  let* where =
    if not correlate then G.return where
    else
      let* outer_entry = G.oneofl scope in
      let* outer_col = G.oneofl outer_entry.cols in
      let* local_col = G.oneofl cols in
      G.return
        (N.pand
           (N.atom
              (Expr.eq (attr ~rel:alias local_col) (attr ~rel:outer_entry.alias outer_col)))
           where)
  in
  let* lhs = gen_scalar scope in
  let* col = G.oneofl cols in
  let source = N.table table in
  let* kind =
    G.frequencyl
      [
        (3, `Exists);
        (2, `Not_exists);
        (2, `Some_);
        (2, `All);
        (1, `In);
        (1, `Not_in);
        (1, `Scalar);
        (2, `Agg);
      ]
  in
  match kind with
  | `Exists -> G.return (N.exists ~where source alias)
  | `Not_exists -> G.return (N.not_exists ~where source alias)
  | `Some_ ->
    let* op = gen_cmp in
    G.return (N.some_ lhs op ~where source alias ~col)
  | `All ->
    let* op = gen_cmp in
    G.return (N.all_ lhs op ~where source alias ~col)
  | `In -> G.return (N.in_ lhs ~where source alias ~col)
  | `Not_in -> G.return (N.not_in lhs ~where source alias ~col)
  | `Scalar ->
    let* op = gen_cmp in
    G.return (N.scalar_cmp lhs op ~where source alias ~col)
  | `Agg ->
    let* op = gen_cmp in
    let* func =
      G.oneofl
        [
          Aggregate.Count_star;
          Aggregate.Count (attr ~rel:alias col);
          Aggregate.Sum (attr ~rel:alias col);
          Aggregate.Min (attr ~rel:alias col);
          Aggregate.Max (attr ~rel:alias col);
          Aggregate.Avg (attr ~rel:alias col);
        ]
    in
    G.return (N.agg_cmp lhs op func ~where source alias)

(* Distinct elements of [l], first occurrence kept. *)
let dedup l = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

(* An optional SQL tail over the outer scope: a select list (columns,
   or GROUP BY / HAVING with aggregates named as the parser names them),
   DISTINCT, ORDER BY over output columns, LIMIT.  A LIMIT comes only
   with an ORDER BY over every output column: ties are then identical
   rows, so the limited answer is the same multiset on every engine. *)
let gen_tail scope (q : N.query) : N.query G.t =
  let cols = List.concat_map (fun e -> List.map (fun c -> (Some e.alias, c)) e.cols) scope in
  let* shape = G.frequencyl [ (3, `Untailed); (1, `Star); (2, `Cols); (2, `Grouped) ] in
  let* select, outputs =
    match shape with
    | `Untailed | `Star -> G.return (N.Select_all, cols)
    | `Cols ->
      let* picked = G.map dedup (G.list_size (G.int_range 1 3) (G.oneofl cols)) in
      G.return (N.Select_cols picked, picked)
    | `Grouped ->
      (* Keys with distinct bare names: grouped outputs are unqualified. *)
      let rec distinct_names = function
        | [] -> []
        | (r, n) :: rest -> (r, n) :: distinct_names (List.filter (fun (_, m) -> m <> n) rest)
      in
      let* keys = G.map distinct_names (G.list_size (G.int_range 0 2) (G.oneofl cols)) in
      let gen_func =
        let* r, c = G.oneofl cols in
        let arg = attr ?rel:r c in
        G.oneofl
          [
            Aggregate.Count_star;
            Aggregate.Count arg;
            Aggregate.Sum arg;
            Aggregate.Min arg;
            Aggregate.Max arg;
            Aggregate.Avg arg;
          ]
      in
      let* funcs = G.list_size (G.int_range 1 2) gen_func in
      let aggs =
        List.mapi (fun i func -> { Aggregate.func; name = Printf.sprintf "agg$%d" (i + 1) }) funcs
      in
      let* having =
        G.opt
          (let* op = gen_cmp in
           let* c = G.int_range 0 4 in
           G.return (Expr.cmp op (attr "agg$1") (Expr.int c)))
      in
      let out =
        List.map (fun (r, n) -> (attr ?rel:r n, n)) keys
        @ List.mapi (fun i a -> (attr a.Aggregate.name, Printf.sprintf "a%d" (i + 1))) aggs
      in
      G.return
        (N.Select_grouped { N.keys; aggs; having; out }, List.map (fun (_, n) -> (None, n)) out)
  in
  if shape = `Untailed then G.return q
  else
    let* distinct = G.bool in
    let gen_dir = G.oneofl [ `Asc; `Desc ] in
    let* order_by, limit =
      G.frequency
        [
          (1, G.return ([], None));
          ( 1,
            let* keys = G.map dedup (G.list_size (G.int_range 1 2) (G.oneofl outputs)) in
            let* dirs = G.list_repeat (List.length keys) gen_dir in
            G.return (List.combine keys dirs, None) );
          ( 2,
            let* keys = G.shuffle_l outputs in
            let* dirs = G.list_repeat (List.length keys) gen_dir in
            let* limit = G.opt (G.int_range 0 5) in
            G.return (List.combine keys dirs, limit) );
        ]
    in
    G.return
      { q with N.q_select = select; q_distinct = distinct; q_order_by = order_by; q_limit = limit }

let gen_query_with ~tail : N.query G.t =
  let* depth = G.int_range 1 3 in
  let* multi_from = G.frequencyl [ (3, false); (1, true) ] in
  let base, alias, scope =
    if multi_from then
      ( N.Bproduct (N.Balias ("o1", N.table "O"), N.Balias ("o2", N.table "I")),
        "",
        [ { alias = "o1"; cols = [ "k"; "x" ] }; { alias = "o2"; cols = [ "k"; "y" ] } ] )
    else (N.table "O", "o", [ { alias = "o"; cols = [ "k"; "x" ] } ])
  in
  let* where = gen_pred ~depth ~path:"0" scope in
  let q = N.query ~base ~alias where in
  if tail then gen_tail scope q else G.return q

let gen_query = gen_query_with ~tail:false

let gen_case = G.pair gen_query Query_zoo.db_gen

let gen_tailed_case = G.pair (gen_query_with ~tail:true) Query_zoo.db_gen

(* Two answers to [query] agree row for row when its ORDER BY covers
   every output column, as multisets otherwise. *)
let same_answer (query : N.query) a b =
  let total =
    query.N.q_order_by <> []
    && List.length query.N.q_order_by = Schema.arity (Relation.schema a)
  in
  if total then Helpers.equal_as_list a b else Relation.equal_as_multiset a b

(* The agreement property across every engine.  The naive evaluator is
   the executable specification. *)
let engines_agree (query, db) =
  let catalog = Query_zoo.mk_catalog db in
  let reference = Naive_eval.eval ~mode:Naive_eval.Plain catalog query in
  let check name result =
    if same_answer query reference result then true
    else begin
      Format.eprintf "@.fuzz disagreement (%s) on:@.%a@." name N.pp_query query;
      false
    end
  in
  check "naive-smart" (Naive_eval.eval ~mode:Naive_eval.Smart catalog query)
  && check "gmdj" (Subql.Eval.eval catalog (Subql.Transform.to_algebra query))
  && check "gmdj-scan"
       (Subql.Eval.eval ~config:Subql.Eval.unindexed_config catalog
          (Subql.Transform.to_algebra query))
  && check "gmdj-opt"
       (Subql.Eval.eval catalog (Subql.Optimize.optimize (Subql.Transform.to_algebra query)))
  && check "gmdj-exec"
       ((* Streamed in small anonymous chunks: [Chunk.Source.map] drops the
           whole-relation origin, so every operator takes its genuinely
           chunked path instead of the zero-copy shortcut. *)
        let sources table =
          Catalog.find_opt catalog table
          |> Option.map (fun rel ->
                 Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:3 rel))
        in
        fst
          (Subql.Eval.eval_exec ~sources catalog
             (Subql.Optimize.optimize (Subql.Transform.to_algebra query))))
  && check "unnest-joins"
       (Subql.Eval.eval catalog (Subql.Unnest.via_joins catalog query))
  && (match Subql.Unnest.via_semijoins catalog query with
     | plan -> check "unnest-semijoins" (Subql.Eval.eval catalog plan)
     | exception Subql.Unnest.Not_applicable _ -> true)
  && check "planner" (Subql.Planner.run catalog query)

(* Parallel execution and spilling are pure execution modes: for any
   random query, database, degree of parallelism (1–4) and spill budget
   (including forced 1-row budgets that push everything through temp
   heap files), the answer is multiset-equal to the serial in-memory
   evaluation. *)
let gen_exec_mode =
  let* domains = G.int_range 1 4 in
  let* budget = G.oneofl [ None; Some 1; Some 3; Some 16; Some 256 ] in
  G.return (domains, budget)

let gen_parallel_case = G.triple (gen_query_with ~tail:true) Query_zoo.db_gen gen_exec_mode

let parallel_spill_agree (query, db, (domains, spill_budget_rows)) =
  let catalog = Query_zoo.mk_catalog db in
  let config = { Subql.Eval.default_config with Subql.Eval.domains; spill_budget_rows } in
  let check name plan =
    let reference = Subql.Eval.eval catalog plan in
    if same_answer query reference (Subql.Eval.eval ~config catalog plan) then
      true
    else begin
      Format.eprintf
        "@.parallel/spill disagreement (%s, %d domains, budget %s) on:@.%a@." name
        domains
        (match spill_budget_rows with Some b -> string_of_int b | None -> "none")
        N.pp_query query;
      false
    end
  in
  check "gmdj-opt" (Subql.Optimize.optimize (Subql.Transform.to_algebra query))
  && check "unnest-joins" (Subql.Unnest.via_joins catalog query)

(* Render-parse round trip: the SQL renderer must produce text the
   parser accepts, with identical semantics. *)
let roundtrip (query, db) =
  match Subql_sql.Render.query_to_sql query with
  | exception Subql_sql.Render.Unrepresentable _ -> true
  | sql -> (
    match Subql_sql.Parser.parse sql with
    | exception Subql_sql.Parser.Parse_error (msg, off) ->
      Format.eprintf "@.roundtrip parse error at %d: %s@.SQL: %s@." off msg sql;
      false
    | stmt ->
      let catalog = Query_zoo.mk_catalog db in
      let a = Naive_eval.eval catalog query in
      let b = Naive_eval.eval catalog stmt.Subql_sql.Parser.query in
      if same_answer query a b then true
      else begin
        Format.eprintf "@.roundtrip semantic drift on:@.%s@." sql;
        false
      end)

(* --- Fingerprint invariance properties ------------------------------ *)

(* Rewrite every fuzzer-generated subquery alias ([s<path>]) to a fresh
   name, consistently across binders and references.  The result is the
   same query up to alpha-renaming, so its fingerprint must not move. *)
let rename_alias a = if String.length a > 0 && a.[0] = 's' then "t" ^ a else a

let rename_expr e =
  Expr.map_attrs (fun (q, n) -> Expr.Attr (Option.map rename_alias q, n)) e

let rec rename_pred = function
  | N.Ptrue -> N.Ptrue
  | N.Atom e -> N.Atom (rename_expr e)
  | N.Pand (a, b) -> N.Pand (rename_pred a, rename_pred b)
  | N.Por (a, b) -> N.Por (rename_pred a, rename_pred b)
  | N.Pnot p -> N.Pnot (rename_pred p)
  | N.Sub s ->
    let kind =
      match s.N.kind with
      | N.Exists -> N.Exists
      | N.Not_exists -> N.Not_exists
      | N.Cmp_scalar (lhs, op, col) -> N.Cmp_scalar (rename_expr lhs, op, col)
      | N.Cmp_agg (lhs, op, func) ->
        let func =
          match func with
          | Aggregate.Count_star -> Aggregate.Count_star
          | Aggregate.Count e -> Aggregate.Count (rename_expr e)
          | Aggregate.Sum e -> Aggregate.Sum (rename_expr e)
          | Aggregate.Min e -> Aggregate.Min (rename_expr e)
          | Aggregate.Max e -> Aggregate.Max (rename_expr e)
          | Aggregate.Avg e -> Aggregate.Avg (rename_expr e)
          | Aggregate.First e -> Aggregate.First (rename_expr e)
        in
        N.Cmp_agg (rename_expr lhs, op, func)
      | N.Quant (lhs, op, q, col) -> N.Quant (rename_expr lhs, op, q, col)
      | N.In_ (lhs, col) -> N.In_ (rename_expr lhs, col)
      | N.Not_in (lhs, col) -> N.Not_in (rename_expr lhs, col)
    in
    N.Sub
      {
        kind;
        source = s.N.source;
        s_alias = rename_alias s.N.s_alias;
        s_where = rename_pred s.N.s_where;
      }

let rename_query (q : N.query) = { q with N.q_where = rename_pred q.N.q_where }

let fp_alpha_invariant (query, _db) =
  let a = Subql_mqo.Fingerprint.of_query query
  and b = Subql_mqo.Fingerprint.of_query (rename_query query) in
  if String.equal a b then true
  else begin
    Format.eprintf "@.fingerprint moved under alpha-renaming:@.%a@." N.pp_query query;
    false
  end

(* Commute conjunctions and disjunctions of the outer WHERE clause.
   Only subquery-free subtrees outside any subquery are swapped:
   reordering a subquery (or the conjuncts inside one) permutes the
   translation's generated aggregate names and its correlated-column
   threading order, both of which are schema-affecting and deliberately
   not normalized by fingerprinting. *)
let rec sub_free = function
  | N.Ptrue | N.Atom _ -> true
  | N.Pand (a, b) | N.Por (a, b) -> sub_free a && sub_free b
  | N.Pnot p -> sub_free p
  | N.Sub _ -> false

let rec commute_expr = function
  | Expr.And (a, b) -> Expr.And (commute_expr b, commute_expr a)
  | Expr.Or (a, b) -> Expr.Or (commute_expr b, commute_expr a)
  | e -> e

let rec commute_pred = function
  | N.Ptrue -> N.Ptrue
  | N.Atom e -> N.Atom (commute_expr e)
  | N.Pand (a, b) when sub_free a && sub_free b ->
    N.Pand (commute_pred b, commute_pred a)
  | N.Pand (a, b) -> N.Pand (commute_pred a, commute_pred b)
  | N.Por (a, b) when sub_free a && sub_free b ->
    N.Por (commute_pred b, commute_pred a)
  | N.Por (a, b) -> N.Por (commute_pred a, commute_pred b)
  | N.Pnot p -> N.Pnot (commute_pred p)
  | N.Sub _ as s -> s

let fp_commute_invariant (query, _db) =
  let commuted = { query with N.q_where = commute_pred query.N.q_where } in
  let a = Subql_mqo.Fingerprint.of_query query
  and b = Subql_mqo.Fingerprint.of_query commuted in
  if String.equal a b then true
  else begin
    Format.eprintf "@.fingerprint moved under commutation:@.%a@." N.pp_query query;
    false
  end

(* --- Analyzer invariance under optimization ------------------------- *)

(* Whatever subset of rewrites fires, the analyzer's verdict must not
   degrade: an error-free translation stays error-free, the schema is
   unchanged, and per-column nullability only narrows (Nullability.leq
   pointwise).  The database varies too, so the instance-derived base
   nullability the dataflow starts from is itself fuzzed. *)
let gen_flags =
  let* coalesce = QCheck2.Gen.bool in
  let* pushdown = QCheck2.Gen.bool in
  let* completion = QCheck2.Gen.bool in
  G.return (Subql.Optimize.only ~coalesce ~pushdown ~completion ())

let gen_analysis_case = G.triple gen_query Query_zoo.db_gen gen_flags

let analyzer_verdict_invariant (query, db, flags) =
  let catalog = Query_zoo.mk_catalog db in
  let env = Subql_analysis.Typing.env_of_catalog catalog in
  let raw = Subql.Transform.to_algebra query in
  let optimized = Subql.Optimize.optimize ~flags raw in
  let v_raw = Subql_analysis.Typing.infer env raw in
  let v_opt = Subql_analysis.Typing.infer env optimized in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "@.analyzer verdict drift (%s) on:@.%a@." msg N.pp_query query;
        false)
      fmt
  in
  match (v_raw, v_opt) with
  | { Subql_analysis.Typing.schema = Some sa; nulls = Some na; diags = da },
    { Subql_analysis.Typing.schema = Some sb; nulls = Some nb; diags = db } ->
    if Diag.has_errors da then fail "raw plan has errors"
    else if Diag.has_errors db then fail "optimized plan has errors"
    else if not (Schema.equal_names sa sb) then fail "schema drift"
    else if
      not
        (Array.for_all2 (fun after before -> Subql_analysis.Nullability.leq after before) nb na)
    then fail "nullability widened"
    else true
  | _ -> fail "inference failed fatally"

(* --- Certified interval containment ----------------------------------- *)

module C = Subql.Cost

(* Soundness of the interval abstract interpretation: the per-operator
   output cardinality the instrumented evaluator measures lies inside
   the certified [lo, hi] at every node of the plan — in every execution
   mode (serial, worker domains, forced 1-row spill budgets, chunked
   streaming) and again after random appends grow the detail tables
   (with the statistics refreshed from the grown catalog). *)
let rec contained (iv : C.Interval.tree) (ex : Subql_obs.Explain.node) =
  C.Interval.contains iv.C.Interval.ival
    (float_of_int ex.Subql_obs.Explain.rows_out)
  && List.length iv.C.Interval.children = List.length ex.Subql_obs.Explain.children
  && List.for_all2 contained iv.C.Interval.children ex.Subql_obs.Explain.children

let gen_containment_case =
  let row2 = G.list_repeat 2 Helpers.Gen.value_with_nulls in
  let* query = gen_query in
  let* db = Query_zoo.db_gen in
  let* domains = G.int_range 1 4 in
  let* budget = G.oneofl [ None; Some 1; Some 16 ] in
  let* batches =
    G.list_size (G.int_range 0 2) (G.pair G.bool (G.list_size (G.int_range 0 6) row2))
  in
  G.return (query, db, (domains, budget), batches)

let certified_contains_observed (query, db, (domains, spill_budget_rows), batches) =
  let catalog = Query_zoo.mk_catalog db in
  let plan = Subql.Optimize.optimize (Subql.Transform.to_algebra query) in
  let config =
    { Subql.Eval.default_config with Subql.Eval.domains; spill_budget_rows }
  in
  let check_once () =
    let stats = C.Stats.of_catalog catalog in
    let tree = C.intervals stats plan in
    let _, ex = Subql.Eval.eval_analyzed ~config catalog plan in
    (if not (contained tree ex) then begin
       Format.eprintf "@.interval containment violated on:@.%a@." N.pp_query query;
       raise Exit
     end);
    (* chunked streaming reaches different operator paths; the root
       cardinality must still obey the root interval *)
    let sources table =
      Catalog.find_opt catalog table
      |> Option.map (fun rel ->
             Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:3 rel))
    in
    let rel = fst (Subql.Eval.eval_exec ~sources catalog plan) in
    if
      not
        (C.Interval.contains tree.C.Interval.ival
           (float_of_int (Relation.cardinality rel)))
    then begin
      Format.eprintf "@.chunked root cardinality escaped interval on:@.%a@."
        N.pp_query query;
      raise Exit
    end
  in
  match
    check_once ();
    List.iter
      (fun (to_i, batch) ->
        let table = if to_i then "I" else "J" in
        let rel = Catalog.find catalog table in
        let all = ref [] in
        Relation.iter (fun t -> all := t :: !all) rel;
        let grown =
          Array.append
            (Array.of_list (List.rev !all))
            (Array.of_list (List.map Array.of_list batch))
        in
        Catalog.add catalog table
          (Relation.create ~check:false (Relation.schema rel) grown);
        check_once ())
      batches
  with
  | () -> true
  | exception Exit -> false

(* --- Incremental GMDJ maintenance under appends ---------------------- *)

module Gmdj = Subql_gmdj.Gmdj

let base_schema = Schema.of_list [ Schema.attr ~rel:"B" "k" Value.Tint ]

let detail_schema =
  Schema.of_list [ Schema.attr ~rel:"R" "k" Value.Tint; Schema.attr ~rel:"R" "y" Value.Tint ]

let corr_br = Expr.eq (attr ~rel:"B" "k") (attr ~rel:"R" "k")

(* Block shapes spanning the aggregate kinds (MIN/MAX have no inverse, so
   insert-maintenance must recompute their extremes lazily or track them
   exactly), NULL-sensitive predicates, and multi-block coalescing. *)
let maintain_block_sets =
  [
    [ Gmdj.block [ Aggregate.count_star "cnt" ] corr_br ];
    [
      Gmdj.block
        [ Aggregate.count_star "cnt"; Aggregate.sum (attr ~rel:"R" "y") "s" ]
        corr_br;
      Gmdj.block
        [ Aggregate.min_ (attr ~rel:"R" "y") "mn"; Aggregate.max_ (attr ~rel:"R" "y") "mx" ]
        (Expr.and_ corr_br (Expr.Is_not_null (attr ~rel:"R" "y")));
    ];
    [
      Gmdj.block
        [ Aggregate.avg (attr ~rel:"R" "y") "a" ]
        (Expr.cmp Expr.Le (attr ~rel:"B" "k") (attr ~rel:"R" "k"));
    ];
  ]

(* Completions (Section 4.2) over the same detail: a base tuple is
   killed by a detail row at or above its key with a large [y], and
   requires one with a small [y] — so a tuple can fire first and be
   killed by a later append. *)
let at_or_above_with f = Expr.and_ (Expr.cmp Expr.Le (attr ~rel:"B" "k") (attr ~rel:"R" "k")) f

let kill_pred = at_or_above_with (Expr.cmp Expr.Gt (attr ~rel:"R" "y") (Expr.int 80))

let require_pred = at_or_above_with (Expr.cmp Expr.Lt (attr ~rel:"R" "y") (Expr.int 30))

(* [shape]: 0 kill only, 1 require only, 2 both. *)
let maintain_completion (shape, maintain_aggregates) =
  {
    Gmdj.kill_when = (if shape = 1 then [] else [ kill_pred ]);
    require_fired = (if shape = 0 then [] else [ require_pred ]);
    maintain_aggregates;
  }

let gen_maintain_case =
  let row2 = G.list_repeat 2 Helpers.Gen.value_with_nulls in
  let* brows = G.list_size (G.int_range 0 8) (G.list_repeat 1 Helpers.Gen.value_with_nulls) in
  let* drows = G.list_size (G.int_range 0 12) row2 in
  let* batches =
    G.list_size (G.int_range 1 5) (G.pair G.bool (G.list_size (G.int_range 0 8) row2))
  in
  let* bi = G.int_range 0 (List.length maintain_block_sets - 1) in
  let* completion = G.opt (G.pair (G.int_range 0 2) G.bool) in
  G.return (brows, drows, batches, bi, completion)

(* After every append — folded either as a relation or streamed in small
   chunks — the maintained view, plain or completed, must equal
   re-evaluating the GMDJ from scratch over the accumulated detail. *)
let maintain_matches_recompute (brows, drows, batches, bi, completion) =
  let blocks = List.nth maintain_block_sets bi in
  let completion = Option.map maintain_completion completion in
  let mk schema rows = Relation.of_list schema (List.map Array.of_list rows) in
  let base = mk base_schema brows in
  let state =
    Gmdj.Maintain.create ?completion ~base ~detail:(mk detail_schema drows) blocks
  in
  let all = ref drows in
  List.for_all
    (fun (via_chunks, batch) ->
      let delta = mk detail_schema batch in
      (if via_chunks then
         ignore
           (Gmdj.Maintain.insert_source state (Chunk.Source.of_relation ~chunk_rows:3 delta))
       else Gmdj.Maintain.insert_detail state delta);
      all := !all @ batch;
      let fresh = Helpers.gmdj ?completion ~base ~detail:(mk detail_schema !all) blocks in
      if Relation.equal_as_multiset fresh (Gmdj.Maintain.result state) then true
      else begin
        Format.eprintf "@.maintained view drifted (blocks %d, completed %b, %d appends)@." bi
          (Option.is_some completion) (List.length batches);
        false
      end)
    batches

let gen_append_case =
  let row2 = G.list_repeat 2 Helpers.Gen.value_with_nulls in
  let* query = gen_query in
  let* db = Query_zoo.db_gen in
  let* batches =
    G.list_size (G.int_range 1 4)
      (G.triple G.bool
         (G.opt ~ratio:0.3 (G.int_range 0 4))
         (G.list_size (G.int_range 0 8) row2))
  in
  G.return (query, db, batches)

(* Query-level closure: register a random query for maintenance, seed
   the cache, append random batches to the detail tables through
   [Ingest.append], and require the cache to serve an entry matching the
   naive oracle on the grown catalog after every append: one left stale
   fails as surely as one that drifted.  Before a non-empty append the
   table is sometimes replaced out of band by its first [keep] rows, a
   registration the fold state never saw.  Which route maintenance takes
   (delta fold, accumulator rebuild, or plain recompute for
   unmaintainable plans — nested or several GMDJs, detail tables that
   also feed the base) is its own business; the answer may not drift.
   The fold is priced free, so every append the planner may fold, it
   does.  Maintenance keeps the very plan the batch layer admitted,
   completion included, so a delta folded into its verdicts must match
   the oracle too. *)
let maintained_cache_matches_oracle (query, db, batches) =
  let catalog = Query_zoo.mk_catalog db in
  let cache = Subql_mqo.Result_cache.create ~min_cost:0. () in
  let ing = Subql_ingest.Ingest.create ~delta_row_cost:0. ~catalog ~cache () in
  ignore (Subql_ingest.Ingest.register_query ing query);
  let fp = Subql_mqo.Batch.fingerprint (Subql_mqo.Batch.prepare query) in
  ignore (Subql_mqo.Batch.run ~cache catalog [ query ]);
  List.for_all
    (fun (to_i, keep, batch) ->
      let table = if to_i then "I" else "J" in
      (match keep with
      | Some keep when batch <> [] ->
        let rel = Catalog.find catalog table in
        let rows = Relation.rows rel in
        Catalog.add catalog table
          (Relation.create (Relation.schema rel)
             (Array.sub rows 0 (min keep (Array.length rows))))
      | _ -> ());
      ignore
        (Subql_ingest.Ingest.append ing ~table (Array.of_list (List.map Array.of_list batch)));
      let oracle = Naive_eval.eval catalog query in
      match Subql_mqo.Result_cache.lookup cache ~catalog fp with
      | None ->
        Format.eprintf "@.maintained entry vanished or went stale on:@.%a@." N.pp_query
          query;
        false
      | Some served ->
        if Relation.equal_as_multiset oracle served then true
        else begin
          Format.eprintf "@.maintained cache entry drifted from oracle on:@.%a@."
            N.pp_query query;
          false
        end)
    batches

(* The zoo's queries are pairwise semantically different with one
   exception: "negated-some" (NOT (x ≤ SOME S)) and "all-gt-correlated"
   (x > ALL S) are the same query in two syntaxes — and the translation
   maps them to the same canonical plan, so their fingerprints coincide.
   Every other pair must stay distinct. *)
let zoo_fingerprints_distinct () =
  let same_query = [ ("negated-some", "all-gt-correlated") ] in
  let fps =
    List.map
      (fun (name, q) -> (name, Subql_mqo.Fingerprint.of_query q))
      Subql_workload.Zoo.queries
  in
  List.iteri
    (fun i (na, fa) ->
      List.iteri
        (fun j (nb, fb) ->
          if i < j then
            let expect_equal =
              List.mem (na, nb) same_query || List.mem (nb, na) same_query
            in
            if expect_equal then begin
              if not (String.equal fa fb) then
                Alcotest.failf "%s and %s should share a fingerprint" na nb
            end
            else if String.equal fa fb then
              Alcotest.failf "%s and %s collide" na nb)
        fps)
    fps

let () =
  Alcotest.run "fuzz"
    [
      ( "random-queries",
        [
          Helpers.qtest ~count:400 "all engines agree" gen_tailed_case engines_agree;
          Helpers.qtest ~count:150 "parallel/spill modes agree with serial"
            gen_parallel_case parallel_spill_agree;
          Helpers.qtest ~count:400 "sql render/parse round trip" gen_tailed_case roundtrip;
        ] );
      ( "maintenance",
        [
          Helpers.qtest ~count:300 "maintained GMDJ = recompute after appends"
            gen_maintain_case maintain_matches_recompute;
          Helpers.qtest ~count:200 "repaired cache entry = naive oracle"
            gen_append_case maintained_cache_matches_oracle;
        ] );
      ( "analysis",
        [
          Helpers.qtest ~count:300 "analyzer verdict invariant under optimize"
            gen_analysis_case analyzer_verdict_invariant;
          Helpers.qtest ~count:150 "observed rows contained in certified intervals"
            gen_containment_case certified_contains_observed;
        ] );
      ( "fingerprints",
        [
          Helpers.qtest ~count:300 "invariant under alpha-renaming" gen_case
            fp_alpha_invariant;
          Helpers.qtest ~count:300 "invariant under commutation" gen_case
            fp_commute_invariant;
          Alcotest.test_case "zoo queries stay distinct" `Quick
            zoo_fingerprints_distinct;
        ] );
    ]
