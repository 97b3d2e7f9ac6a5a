open Subql_relational
open Subql_gmdj

type config = {
  join_strategy : Ops.join_strategy;
  gmdj_strategy : Gmdj.strategy;
  domains : int;
  spill_budget_rows : int option;
}

let default_config =
  { join_strategy = `Hash; gmdj_strategy = `Hash; domains = 1; spill_budget_rows = None }

let unindexed_config = { default_config with join_strategy = `Nested_loop; gmdj_strategy = `Scan }

let schema catalog alg =
  Algebra.schema_of ~lookup:(fun name -> Relation.schema (Catalog.find catalog name)) alg

type source_provider = string -> Chunk.Source.t option

type exec_report = { chunks : int; peak_materialized_rows : int }

let node_label alg =
  let exprs es = String.concat ", " (List.map Expr.to_string es) in
  match alg with
  | Algebra.Table name -> "Table " ^ name
  | Algebra.Rename (a, _) -> "Rename " ^ a
  | Algebra.Select (e, _) -> "Select " ^ Expr.to_string e
  | Algebra.Project (ps, _) -> Printf.sprintf "Project [%s]" (exprs (List.map fst ps))
  | Algebra.Project_cols _ -> "Project-cols"
  | Algebra.Project_rel (aliases, _) -> "ProjectRel " ^ String.concat "," aliases
  | Algebra.Add_rownum (n, _) -> "AddRownum " ^ n
  | Algebra.Product _ -> "Product"
  | Algebra.Join { kind; cond; _ } ->
    let k =
      match kind with
      | Algebra.Inner -> "Join"
      | Algebra.Left_outer -> "LeftOuterJoin"
      | Algebra.Semi -> "SemiJoin"
      | Algebra.Anti -> "AntiJoin"
    in
    k ^ " " ^ Expr.to_string cond
  | Algebra.Group_by { keys; _ } -> Algebra.group_by_label keys
  | Algebra.Md { blocks; completion = None; _ } ->
    Printf.sprintf "MD (%d blocks)" (List.length blocks)
  | Algebra.Md { blocks; completion = Some c; _ } ->
    Printf.sprintf "MD-completed (%d blocks%s)" (List.length blocks)
      (if c.Gmdj.maintain_aggregates then "" else ", aggregate-free")
  | Algebra.Union_all _ -> "UnionAll"
  | Algebra.Diff_all _ -> "DiffAll"
  | Algebra.Sort { by; limit; _ } -> Algebra.sort_label by limit

(* ------------------------------------------------------------------ *)
(* The shared executor skeleton                                         *)
(* ------------------------------------------------------------------ *)

(* Every public entry point is a thin wrapper over one skeleton: a
   single per-node [dispatch] (the only place operator semantics are
   chosen) driven either lazily ([run_stream] — operators exchange
   chunk streams, and only pipeline breakers materialize) or eagerly
   ([run_eager] — every node is materialized so per-operator hooks can
   observe cardinalities, timings and buffer-pool deltas).  Both
   drivers run [dispatch] over {!streamed} values; the eager one simply
   feeds it whole-relation sources, whose {!Chunk.Source.origin}
   shortcut keeps that path copy-free. *)

(* Memory accounting: rows the executor itself holds materialized (an
   operator's collected output, or an input buffered for a blocking
   operator).  Catalog relations, caller-provided overrides and storage
   pages are not counted — they exist regardless of how we execute. *)
type acct = {
  mutable live_rows : int;
  mutable peak_rows : int;
  mutable chunks : int;
}

let acct_create () = { live_rows = 0; peak_rows = 0; chunks = 0 }

let acct_alloc a n =
  a.live_rows <- a.live_rows + n;
  if a.live_rows > a.peak_rows then a.peak_rows <- a.live_rows

let acct_release a n = a.live_rows <- a.live_rows - n

(* Instrumentation hooks.  [on_node_start] fires when a node begins its
   own work (its inputs, under the eager driver, are already complete —
   so deltas snapshotted there are attributable to the node alone);
   [on_node_done] folds the node's result and its children's
   annotations into this node's annotation. *)
type 'ann hooks = {
  on_node_start : Algebra.t -> unit;
  on_node_done : Algebra.t -> Relation.t -> Gmdj.stats option -> 'ann list -> 'ann;
}

type ctx = {
  config : config;
  catalog : Catalog.t;
  sources : source_provider;
  override : Algebra.t -> Relation.t option;
  acct : acct;
  required : (Algebra.t * bool array) list option Lazy.t;
      (** per [Table] leaf, the columns the plan reads
          ({!required_columns}); forced only by a source that can narrow *)
}

(* A node's output: a chunk stream plus a thunk releasing whatever the
   subtree still holds materialized.  The consumer fires [release] once
   it no longer needs the rows (releases are idempotent). *)
type streamed = { src : Chunk.Source.t; release : unit -> unit }

let no_release () = ()

let once f =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      f ()
    end

let tap ctx src = Chunk.Source.tap (fun _ -> ctx.acct.chunks <- ctx.acct.chunks + 1) src

(* Collect a stream into a relation, accounting the copy — unless the
   stream is an untouched whole-relation source, in which case the rows
   are whoever produced them's responsibility (already accounted if an
   operator emitted them, free if they came from the catalog). *)
let materialize ctx s =
  match Chunk.Source.origin s.src with
  | Some r ->
    Chunk.Source.close s.src;
    (r, s.release)
  | None ->
    let r = Chunk.Source.to_relation s.src in
    let n = Relation.cardinality r in
    acct_alloc ctx.acct n;
    ( r,
      once (fun () ->
          acct_release ctx.acct n;
          s.release ()) )

(* An operator's freshly materialized output, entering the accounting
   until the consumer releases it. *)
let emit ctx r =
  let n = Relation.cardinality r in
  acct_alloc ctx.acct n;
  {
    src = tap ctx (Chunk.Source.of_relation r);
    release = once (fun () -> acct_release ctx.acct n);
  }

(* A table's schema as its scan will deliver it, before any narrowing. *)
let table_schema ~sources catalog name =
  match sources name with
  | Some s ->
    let sc = Chunk.Source.schema s in
    Chunk.Source.close s;
    sc
  | None -> Relation.schema (Catalog.find catalog name)

(* ------------------------------------------------------------------ *)
(* Required columns                                                     *)
(* ------------------------------------------------------------------ *)

(* Which columns of each [Table] leaf the plan reads, so that a storage
   scan can decode only those ({!Chunk.Source.narrow}).  A top-down walk
   in column positions: an operator asks its children for what its
   parent needs plus every column its own expressions reference — θs,
   aggregate arguments, completion predicates, join conditions, sort
   and group keys — resolved exactly as the executor resolves them
   (innermost frame first).  Operators whose semantics are positional
   or whole-row (Union_all, Diff_all, a GROUP BY on every column) need
   every input column, and any resolution failure gives up on
   pruning altogether ([None]).  A physical [Table] node reached twice
   gets the union of both needs.  Consumers resolve columns by name
   against the narrowed schema they receive, so a wrong answer here
   fails as an unknown attribute, never as wrong rows. *)
exception Unprunable

let required_columns ~lookup root =
  let schema alg =
    match Algebra.schema_diag ~lookup alg with Ok s -> s | Error _ -> raise Unprunable
  in
  let all s = Array.make (Schema.arity s) true in
  let none s = Array.make (Schema.arity s) false in
  let mark frames needs e =
    List.iter
      (fun r ->
        match Expr.resolve frames r with
        | Some (f, p) -> needs.(f).(p) <- true
        | None | (exception Schema.Ambiguous_attribute _) -> raise Unprunable)
      (Expr.attrs e)
  in
  let mark_col s need (rel, name) = mark [| s |] [| need |] (Expr.attr ?rel name) in
  let mark_aggs frames needs aggs =
    List.iter
      (fun spec -> Option.iter (mark frames needs) (Aggregate.arg spec.Aggregate.func))
      aggs
  in
  let leaves = ref [] in
  let rec need alg req =
    match alg with
    | Algebra.Table _ -> (
      match List.assq_opt alg !leaves with
      | Some have -> Array.iteri (fun i b -> if b then have.(i) <- true) req
      | None -> leaves := (alg, Array.copy req) :: !leaves)
    | Algebra.Rename (_, x) -> need x req
    | Algebra.Select (e, x) ->
      let r = Array.copy req in
      mark [| schema x |] [| r |] e;
      need x r
    | Algebra.Project (ps, x) ->
      let s = schema x in
      let r = none s in
      List.iter (fun (e, _) -> mark [| s |] [| r |] e) ps;
      need x r
    | Algebra.Project_cols { cols; input } ->
      let s = schema input in
      let r = none s in
      List.iter (mark_col s r) cols;
      need input r
    | Algebra.Union_all (l, r) | Algebra.Diff_all (l, r) ->
      need l (all (schema l));
      need r (all (schema r))
    | Algebra.Project_rel (aliases, x) ->
      let s = schema x in
      let r = none s in
      let j = ref 0 in
      Array.iteri
        (fun i a ->
          if List.mem a.Schema.rel aliases then begin
            r.(i) <- req.(!j);
            incr j
          end)
        s;
      need x r
    | Algebra.Add_rownum (_, x) -> need x (Array.sub req 0 (Array.length req - 1))
    | Algebra.Product (l, r) ->
      let n = Schema.arity (schema l) in
      need l (Array.sub req 0 n);
      need r (Array.sub req n (Array.length req - n))
    | Algebra.Join { kind; cond; left; right } ->
      let ls = schema left and rs = schema right in
      let n = Schema.arity ls in
      let lr = Array.sub req 0 n in
      let rr =
        match kind with
        | Algebra.Inner | Algebra.Left_outer -> Array.sub req n (Schema.arity rs)
        | Algebra.Semi | Algebra.Anti -> none rs
      in
      mark [| ls; rs |] [| lr; rr |] cond;
      need left lr;
      need right rr
    | Algebra.Group_by { keys; aggs; input } ->
      let s = schema input in
      let r =
        match keys with
        | None -> all s
        | Some keys ->
          let r = none s in
          List.iter (mark_col s r) keys;
          r
      in
      mark_aggs [| s |] [| r |] aggs;
      need input r
    | Algebra.Md { base; detail; blocks; completion } ->
      let preds =
        match completion with
        | Some c -> c.Gmdj.kill_when @ c.Gmdj.require_fired
        | None -> []
      in
      need_md base detail blocks preds req
    | Algebra.Sort { by; input; _ } ->
      let r = Array.copy req in
      List.iter (fun (c, _) -> mark_col (schema input) r c) by;
      need input r
  and need_md base detail blocks preds req =
    let bs = schema base and ds = schema detail in
    let br = Array.sub req 0 (Schema.arity bs) and dr = none ds in
    let frames = [| bs; ds |] and needs = [| br; dr |] in
    List.iter
      (fun (b : Gmdj.block) ->
        mark frames needs b.Gmdj.theta;
        mark_aggs frames needs b.Gmdj.aggs;
        (* Aggregate columns are named apart from the base's names
           ([Gmdj.output_schema]): keep every base column that could
           take part in that, so the output names do not change. *)
        List.iter
          (fun (spec : Aggregate.spec) ->
            let n = spec.Aggregate.name in
            Array.iteri
              (fun i a ->
                let an = a.Schema.name in
                if an = n || String.starts_with ~prefix:(n ^ "_") an then br.(i) <- true)
              bs)
          b.Gmdj.aggs)
      blocks;
    List.iter (mark frames needs) preds;
    need base br;
    need detail dr
  in
  match need root (all (schema root)) with
  | () -> Some !leaves
  | exception Unprunable -> None

(* The stored positions a [Table] leaf's scan must decode. *)
let table_columns ctx alg arity =
  match Lazy.force ctx.required with
  | Some leaves -> (
    match List.assq_opt alg leaves with
    | Some need ->
      Array.of_list (List.filter (fun i -> need.(i)) (List.init arity Fun.id))
    | None -> Array.init arity Fun.id)
  | None -> Array.init arity Fun.id

(* Override results must fit where the node's output goes.  The lookup
   failing (unknown table, un-inferable subtree) falls back to the old
   caller's-contract behaviour. *)
let validate_override ctx alg r =
  let lookup = table_schema ~sources:ctx.sources ctx.catalog in
  match (try Algebra.schema_diag ~lookup alg with _ -> Error (Diag.error ~code:"EVL000" "")) with
  | Error _ -> ()
  | Ok expected ->
    let got = Relation.schema r in
    if not (Schema.equal expected got) then
      raise
        (Diag.Fail
           (Diag.error ~code:"EVL001" ~subject:(node_label alg)
              (Format.asprintf
                 "override result schema %a does not match the node's inferred schema %a"
                 Schema.pp got Schema.pp expected)))

(* ------------------------------------------------------------------ *)
(* Pipeline-breaker execution modes                                     *)
(* ------------------------------------------------------------------ *)

(* A spilling breaker bounds its resident state at the configured budget
   and pushes the overflow through temp heap files; its resident
   high-water enters the accounting for the operator's lifetime, so
   [peak_materialized_rows] reports what was actually held rather than
   what a fully in-memory breaker would have needed. *)
let spill_outcome ctx (o : Subql_storage.Spill.outcome) =
  acct_alloc ctx.acct o.Subql_storage.Spill.resident_peak_rows;
  acct_release ctx.acct o.Subql_storage.Spill.resident_peak_rows;
  o.Subql_storage.Spill.result

(* GROUP BY — and DISTINCT, its zero-aggregate case on every column —
   under the configured execution mode: spilling when a budget is set
   (resident hash state freezes at the budget, overflow goes through
   temp heap files), exchange-parallel when [domains > 1] (rows are
   hash-partitioned on the group key, so the per-domain states are
   key-disjoint and their results concatenate), serial streaming
   otherwise.  The global aggregate ([~keys:[]]) always folds serially:
   its one group would otherwise come back once per worker, identity
   rows from the empty ones included. *)
let run_group_by ctx ?keys ~aggs src =
  match ctx.config.spill_budget_rows with
  | Some budget -> spill_outcome ctx (Subql_storage.Spill.group_by ~budget ?keys ~aggs src)
  | None ->
    if ctx.config.domains > 1 && keys <> Some [] then begin
      let schema = Chunk.Source.schema src in
      let key_idxs, out_schema = Ops.group_schema ?keys ~aggs schema in
      let rows =
        Chunk.Exchange.fold ~domains:ctx.config.domains
          ~partition:(fun row -> Index.key_hash row key_idxs)
          ~init:(fun _ -> Ops.Group_acc.create ?keys ~aggs schema)
          ~fold:(fun acc c ->
            Ops.Group_acc.fold_chunk acc ~capacity:max_int ~overflow:ignore c;
            acc)
          ~finish:(fun acc -> Relation.rows (Ops.Group_acc.result acc))
          src
      in
      Relation.create ~check:false out_schema (Array.concat rows)
    end
    else Ops.group_by ?keys ~aggs src

(* A breaker's result: fold the child's stream, release what the child
   held, and emit the folded relation. *)
let fold_child ctx (c : streamed) fold =
  let out = fold c.src in
  c.release ();
  emit ctx out

(* GMDJ over the child streams: the base side is materialized (every
   detail row probes it), the detail side is folded in one pass through
   [Gmdj.eval] — inline at one domain, over the exchange at more. *)
let run_md ctx ?gmdj_stats ?completion ~child ~base:b ~detail:d blocks =
  let base, bfree = materialize ctx (child b) in
  let cd = child d in
  let out =
    Gmdj.eval ~strategy:ctx.config.gmdj_strategy ?stats:gmdj_stats ?completion
      ~domains:ctx.config.domains ~base cd.src blocks
  in
  cd.release ();
  bfree ();
  emit ctx out

(* A build/probe operator: the right child is materialized as the build
   side, then the left child streams through [op] as the probe side.
   Both inputs are accounted exactly as long as the output stream: they
   are released when that stream closes (drained or closed early), not
   when the consumer releases, since the output rows no longer need
   them. *)
let run_probe ctx ~child ~left ~right op =
  let build, bfree = materialize ctx (child right) in
  let cl = child left in
  let out = op build cl.src in
  let release =
    once (fun () ->
        bfree ();
        cl.release ())
  in
  let src =
    Chunk.Source.create ~schema:(Chunk.Source.schema out)
      ~close:(fun () ->
        Chunk.Source.close out;
        release ())
      (fun () -> Chunk.Source.next out)
  in
  { src = tap ctx src; release }

(* The one per-node dispatch.  [child] yields each operand's streamed
   value.  Fully pipelined operators pass the stream through; build/probe
   operators hold their right input and stream their left; breakers
   fold their input (Group_by — bounded state, no input copy) or
   materialize what they must revisit (Sort, the GMDJ base). *)
let dispatch ctx ?gmdj_stats ~(child : Algebra.t -> streamed) alg =
  let pipe x op =
    let c = child x in
    { src = tap ctx (op c.src); release = c.release }
  in
  match alg with
  | Algebra.Table name -> (
    match ctx.sources name with
    | Some src ->
      let arity = Schema.arity (Chunk.Source.schema src) in
      let src = Chunk.Source.narrow src (lazy (table_columns ctx alg arity)) in
      { src = tap ctx src; release = no_release }
    | None ->
      {
        src = tap ctx (Chunk.Source.of_relation (Catalog.find ctx.catalog name));
        release = no_release;
      })
  | Algebra.Rename (alias, x) -> (
    let c = child x in
    match Chunk.Source.origin c.src with
    | Some r ->
      (* Whole-relation input: rename the header only, keeping the
         origin shortcut (and the rows) intact. *)
      Chunk.Source.close c.src;
      {
        src = tap ctx (Chunk.Source.of_relation (Relation.rename alias r));
        release = c.release;
      }
    | None -> { src = tap ctx (Ops.rename alias c.src); release = c.release })
  | Algebra.Select (e, x) -> pipe x (Ops.select e)
  | Algebra.Project (ps, x) -> pipe x (Ops.project ps)
  | Algebra.Project_cols { cols; input } -> pipe input (Ops.project_cols cols)
  | Algebra.Project_rel (aliases, x) -> pipe x (Ops.project_rel aliases)
  | Algebra.Add_rownum (name, x) -> pipe x (Ops.add_rownum name)
  | Algebra.Product (left, right) ->
    run_probe ctx ~child ~left ~right (fun build probe -> Ops.product ~build probe)
  | Algebra.Join { kind; cond; left; right } -> (
    let strategy = ctx.config.join_strategy in
    match ctx.config.spill_budget_rows with
    | Some budget ->
      (* Grace hash join straight off the child streams: neither side is
         materialized here — Spill collects up to the budget and
         hash-partitions the rest to temp heap files. *)
      let cl = child left in
      let cr = child right in
      let out =
        spill_outcome ctx
          (Subql_storage.Spill.join ~budget ~strategy ~kind ~cond ~left:cl.src ~right:cr.src ())
      in
      cl.release ();
      cr.release ();
      emit ctx out
    | None ->
      run_probe ctx ~child ~left ~right (fun build probe ->
          Ops.join ~strategy ~kind cond ~build probe))
  | Algebra.Group_by { keys; aggs; input } ->
    fold_child ctx (child input) (run_group_by ctx ?keys ~aggs)
  | Algebra.Md { blocks; completion; base; detail } ->
    run_md ctx ?gmdj_stats ?completion ~child ~base ~detail blocks
  | Algebra.Union_all (l, r) ->
    let cl = child l in
    let cr = child r in
    {
      src = tap ctx (Ops.union_all cl.src cr.src);
      release =
        once (fun () ->
            cl.release ();
            cr.release ());
    }
  | Algebra.Diff_all (left, right) ->
    run_probe ctx ~child ~left ~right (fun build probe -> Ops.diff_all ~build probe)
  | Algebra.Sort { by; limit; input } ->
    (* The sort revisits its whole input: materialize it (accounted, or
       borrowed through the origin shortcut) and sort that copy. *)
    let r, free = materialize ctx (child input) in
    let out = Ops.sort ~by ?limit (Chunk.Source.of_relation r) in
    free ();
    emit ctx out

(* Lazy driver: the plan becomes a tree of chunk streams; work happens
   as the root is drained. *)
let rec run_stream ctx ?gmdj_stats alg =
  match ctx.override alg with
  | Some r ->
    validate_override ctx alg r;
    { src = tap ctx (Chunk.Source.of_relation r); release = no_release }
  | None -> dispatch ctx ?gmdj_stats ~child:(fun sub -> run_stream ctx ?gmdj_stats sub) alg

(* Eager driver: children are fully evaluated (and annotated) before
   the node runs, so hooks observe exact per-node deltas.  The node
   itself still goes through [dispatch], fed whole-relation sources. *)
let rec run_eager ctx hooks alg =
  match ctx.override alg with
  | Some r ->
    validate_override ctx alg r;
    hooks.on_node_start alg;
    (r, no_release, hooks.on_node_done alg r None [])
  | None ->
    let kid_results = List.map (fun k -> run_eager ctx hooks k) (Algebra.children alg) in
    let gmdj_stats =
      match alg with Algebra.Md _ -> Some (Gmdj.fresh_stats ()) | _ -> None
    in
    (* [dispatch] asks for its operands in its own order (a build side
       before its probe side), so hand each result out by subplan. *)
    let pending =
      ref (List.map2 (fun k (r, free, _) -> (k, r, free)) (Algebra.children alg) kid_results)
    in
    let child sub =
      let rec take = function
        | [] -> invalid_arg "Eval.run_eager: not an operand of the node"
        | (k, r, free) :: rest when k == sub ->
          ({ src = Chunk.Source.of_relation r; release = free }, rest)
        | x :: rest ->
          let s, rest = take rest in
          (s, x :: rest)
      in
      let s, rest = take !pending in
      pending := rest;
      s
    in
    hooks.on_node_start alg;
    let result, free =
      Subql_obs.Trace.with_ (node_label alg) (fun () ->
          let s = dispatch ctx ?gmdj_stats ~child alg in
          let r, free = materialize ctx s in
          Subql_obs.Trace.add_attr "rows" (string_of_int (Relation.cardinality r));
          (r, free))
    in
    let ann =
      hooks.on_node_done alg result gmdj_stats (List.map (fun (_, _, a) -> a) kid_results)
    in
    (result, free, ann)

let publish_run ctx =
  let open Subql_obs in
  Metrics.(incr ~by:ctx.acct.chunks (counter default "eval.chunks"));
  Metrics.(
    set (gauge default "eval.peak_materialized_rows") (float_of_int ctx.acct.peak_rows));
  Metrics.(set (gauge default "exec.domains") (float_of_int ctx.config.domains))

let no_sources _ = None

let no_override _ = None

let make_ctx ?(sources = no_sources) ?(override = no_override) ~config catalog plan =
  let required = lazy (required_columns ~lookup:(table_schema ~sources catalog) plan) in
  { config; catalog; sources; override; acct = acct_create (); required }

(* ------------------------------------------------------------------ *)
(* Public entry points — thin wrappers over the two drivers            *)
(* ------------------------------------------------------------------ *)

let run_to_relation ctx ?gmdj_stats alg =
  let s = run_stream ctx ?gmdj_stats alg in
  let r, free = materialize ctx s in
  free ();
  publish_run ctx;
  r

let eval ?(config = default_config) ?gmdj_stats ?override catalog alg =
  run_to_relation (make_ctx ?override ~config catalog alg) ?gmdj_stats alg

let eval_exec ?(config = default_config) ?gmdj_stats ?sources catalog alg =
  let ctx = make_ctx ?sources ~config catalog alg in
  let r = run_to_relation ctx ?gmdj_stats alg in
  (r, { chunks = ctx.acct.chunks; peak_materialized_rows = ctx.acct.peak_rows })

(* ------------------------------------------------------------------ *)
(* Instrumented evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* EXPLAIN ANALYZE: every operator runs inside a trace span and yields a
   {!Subql_obs.Explain.node} carrying what actually happened.  Buffer-
   pool activity is attributed per operator by delta over the registry's
   "storage.buffer_pool.*" counters — children are evaluated before the
   snapshot, so a node only owns its own page traffic. *)

let gmdj_attrs (s : Gmdj.stats) =
  let base =
    [
      ("detail-scans", string_of_int s.Gmdj.detail_passes);
      ("detail-rows", string_of_int s.Gmdj.detail_scanned);
      ("theta-evals", string_of_int s.Gmdj.theta_evals);
    ]
  in
  let blocks =
    match s.Gmdj.block_updates with
    | [||] -> []
    | updates ->
      [
        ( "block-updates",
          String.concat "/" (Array.to_list (Array.map string_of_int updates)) );
      ]
  in
  base @ blocks @ if s.Gmdj.early_exit then [ ("early-exit", "true") ] else []

let eval_analyzed ?(config = default_config) ?(registry = Subql_obs.Metrics.default)
    catalog alg =
  let module M = Subql_obs.Metrics in
  let ops = M.counter registry "eval.operators" in
  let op_seconds = M.histogram registry "eval.operator_seconds" in
  let rows_out_total = M.counter registry "eval.rows_out" in
  let pool_hits () = M.counter_value_by_name registry "storage.buffer_pool.hits" in
  let pool_reads () = M.counter_value_by_name registry "storage.buffer_pool.page_reads" in
  let stack = ref [] in
  let hooks =
    {
      on_node_start =
        (fun _ -> stack := (Subql_obs.Clock.now (), pool_hits (), pool_reads ()) :: !stack);
      on_node_done =
        (fun alg result gmdj_stats kid_nodes ->
          let t0, hits0, reads0 =
            match !stack with
            | [] -> invalid_arg "Eval.eval_analyzed: unbalanced hooks"
            | x :: rest ->
              stack := rest;
              x
          in
          let elapsed_s = Subql_obs.Clock.now () -. t0 in
          let rows_out = Relation.cardinality result in
          M.incr ops;
          M.observe op_seconds elapsed_s;
          M.incr ~by:rows_out rows_out_total;
          {
            Subql_obs.Explain.label = node_label alg;
            rows_in =
              List.fold_left (fun acc n -> acc + n.Subql_obs.Explain.rows_out) 0 kid_nodes;
            rows_out;
            calls = 1;
            elapsed_s;
            pool_hits = pool_hits () - hits0;
            pool_reads = pool_reads () - reads0;
            attrs = (match gmdj_stats with Some s -> gmdj_attrs s | None -> []);
            children = kid_nodes;
          });
    }
  in
  let ctx = make_ctx ~config catalog alg in
  let result, free, node = run_eager ctx hooks alg in
  free ();
  publish_run ctx;
  (result, node)
