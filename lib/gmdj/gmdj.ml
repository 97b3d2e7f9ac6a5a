open Subql_relational

type block = { aggs : Aggregate.spec list; theta : Expr.t }

type strategy = [ `Scan | `Hash ]

type stats = {
  mutable detail_scanned : int;
  mutable theta_evals : int;
  mutable early_exit : bool;
  mutable detail_passes : int;
  mutable block_updates : int array;
}

let fresh_stats () =
  {
    detail_scanned = 0;
    theta_evals = 0;
    early_exit = false;
    detail_passes = 0;
    block_updates = [||];
  }

let ensure_block_slots s n =
  let have = Array.length s.block_updates in
  if have < n then s.block_updates <- Array.append s.block_updates (Array.make (n - have) 0)

let strategy_name = function `Scan -> "scan" | `Hash -> "hash"

(* Registry publication: the engine-wide counters under "gmdj.*" in
   {!Subql_obs.Metrics.default}.  Only coordinator-side code calls this
   — exchange workers accumulate into local stats records which are
   merged before publication (the registry is single-domain). *)
let publish ~owned ~passes0 ~rows0 ~thetas0 =
  let open Subql_obs in
  let c name = Metrics.counter Metrics.default ("gmdj." ^ name) in
  Metrics.incr (c "evals");
  Metrics.incr ~by:(owned.detail_passes - passes0) (c "detail_passes");
  Metrics.incr ~by:(owned.detail_scanned - rows0) (c "detail_rows_scanned");
  Metrics.incr ~by:(owned.theta_evals - thetas0) (c "theta_evals")

(* Run [f] over an owned stats record (the caller's, or a private one so
   pass/row counting is always on), publishing the deltas. *)
let with_owned_stats ?attrs ~span stats f =
  let owned = match stats with Some s -> s | None -> fresh_stats () in
  let passes0 = owned.detail_passes
  and rows0 = owned.detail_scanned
  and thetas0 = owned.theta_evals in
  let result = Subql_obs.Trace.with_ ?attrs span (fun () -> f owned) in
  publish ~owned ~passes0 ~rows0 ~thetas0;
  result

let block aggs theta = { aggs; theta }

let pp_block ppf b =
  Format.fprintf ppf "[%a | %a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Aggregate.pp_spec)
    b.aggs Expr.pp b.theta

type completion = {
  kill_when : Expr.t list;
  require_fired : Expr.t list;
  maintain_aggregates : bool;
}

let pp_completion ppf c =
  let pp_list = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Expr.pp in
  Format.fprintf ppf "{kill: %a; require: %a; aggregates %s}" pp_list c.kill_when pp_list
    c.require_fired
    (if c.maintain_aggregates then "maintained" else "skipped")

let output_schema ~base ~detail blocks =
  let frames = [| base; detail |] in
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun s spec ->
          let name = Schema.fresh_name s spec.Aggregate.name in
          Schema.concat s [| Schema.attr name (Aggregate.output_ty frames spec) |])
        acc b.aggs)
    base blocks

(* ------------------------------------------------------------------ *)
(* θ-plans                                                              *)
(* ------------------------------------------------------------------ *)

(* A compiled plan for one θ-like condition over (base, detail):

   - [prefilter] holds the conjuncts that mention only detail attributes
     (the invariants of Rao & Ross): they are tested once per detail row
     instead of once per (base, detail) pair;
   - [probe] either iterates hash-bucket candidates (equi-conditions
     extracted, residual tested per candidate) or tests the remaining
     condition against every candidate the caller supplies. *)
type plan = {
  prefilter : (Tuple.t -> bool) option;
  probe : probe;
}

and probe =
  | Probe_hash of {
      key_of_detail : Tuple.t -> Tuple.t;
      index : Index.t;
      test : Tuple.t -> Tuple.t -> bool;
    }
  | Probe_all of { test : Tuple.t -> Tuple.t -> bool }

let make_pair_test ~stats ~bs ~ds expr =
  match expr with
  | None -> fun _ _ -> true
  | Some e ->
    let f = Expr.compile_frames [| bs; ds |] e in
    let ctx = [| Tuple.empty; Tuple.empty |] in
    let test b r =
      ctx.(0) <- b;
      ctx.(1) <- r;
      Expr.is_true (f ctx)
    in
    (match stats with
    | None -> test
    | Some s ->
      fun b r ->
        s.theta_evals <- s.theta_evals + 1;
        test b r)

let make_plan ~strategy ~stats ~bs ~ds ~base_rows theta =
  Expr.typecheck_bool [| bs; ds |] theta;
  let detail_only, correlated =
    List.partition (Expr.refs_resolvable [| ds |]) (Expr.conjuncts theta)
  in
  let prefilter =
    match detail_only with
    | [] -> None
    | conjs ->
      let f = Expr.compile ds (Expr.conjoin conjs) in
      Some
        (match stats with
        | None -> fun r -> Expr.is_true (f r)
        | Some s ->
          fun r ->
            s.theta_evals <- s.theta_evals + 1;
            Expr.is_true (f r))
  in
  let correlated_expr =
    match correlated with [] -> None | conjs -> Some (Expr.conjoin conjs)
  in
  let probe =
    match strategy, correlated_expr with
    | `Scan, _ | `Hash, None ->
      Probe_all { test = make_pair_test ~stats ~bs ~ds correlated_expr }
    | `Hash, Some expr -> (
      let pairs, residual = Expr.split_equi ~left:bs ~right:ds expr in
      match pairs with
      | [] -> Probe_all { test = make_pair_test ~stats ~bs ~ds correlated_expr }
      | _ ->
        let bcols = Array.of_list (List.map fst pairs) in
        let dcols = Array.of_list (List.map snd pairs) in
        let index = Index.build_rows base_rows bcols in
        Probe_hash
          {
            key_of_detail = (fun drow -> Array.map (fun c -> drow.(c)) dcols);
            index;
            test = make_pair_test ~stats ~bs ~ds residual;
          })
  in
  { prefilter; probe }

let prefilter_passes plan drow =
  match plan.prefilter with None -> true | Some f -> f drow

(* ------------------------------------------------------------------ *)
(* Accumulators                                                         *)
(* ------------------------------------------------------------------ *)

(* Accumulator matrix: accs.(bi).(block).(agg). *)
let make_accs ~bs ~ds ~n_base blocks =
  let frames = [| bs; ds |] in
  let compiled =
    Array.of_list
      (List.map (fun b -> Array.of_list (List.map (Aggregate.compile frames) b.aggs)) blocks)
  in
  Array.init n_base (fun _ -> Array.map (Array.map Aggregate.make) compiled)

let emit_row base_row accs_row =
  let agg_values =
    Array.concat (Array.to_list (Array.map (Array.map Aggregate.value) accs_row))
  in
  Tuple.concat base_row agg_values

(* ------------------------------------------------------------------ *)
(* The definition                                                       *)
(* ------------------------------------------------------------------ *)

let reference ~base ~detail blocks =
  let bs = Relation.schema base and ds = Relation.schema detail in
  let out_schema = output_schema ~base:bs ~detail:ds blocks in
  let frames = [| bs; ds |] in
  let blocks = Array.of_list blocks in
  Array.iter (fun b -> Expr.typecheck_bool frames b.theta) blocks;
  let thetas = Array.map (fun b -> Expr.compile_frames frames b.theta) blocks in
  let compiled =
    Array.map (fun b -> Array.of_list (List.map (Aggregate.compile frames) b.aggs)) blocks
  in
  let ctx = [| Tuple.empty; Tuple.empty |] in
  let rows =
    Array.map
      (fun brow ->
        let accs_row = Array.map (Array.map Aggregate.make) compiled in
        (* One full detail pass per base tuple and block. *)
        Array.iteri
          (fun i theta ->
            Relation.iter
              (fun drow ->
                ctx.(0) <- brow;
                ctx.(1) <- drow;
                if Expr.is_true (theta ctx) then
                  Array.iter (fun acc -> Aggregate.step acc ctx) accs_row.(i))
              detail)
          thetas;
        emit_row brow accs_row)
      (Relation.rows base)
  in
  Relation.create ~check:false out_schema rows

(* ------------------------------------------------------------------ *)
(* The fold state                                                       *)
(* ------------------------------------------------------------------ *)

exception Scan_done

(* One in-flight evaluation on one domain: compiled θ-plans, the
   per-base-tuple accumulator matrix and, for a completion
   (Section 4.2), the kill/require verdicts.  Detail rows arrive as
   chunks ([feed]); every domain of an exchange owns one state (compiled
   closures and hash indexes carry per-evaluation mutable buffers) and
   the states combine with [merge].  [stats] is the state's own record
   for row/θ/block counts; detail passes and registry publication
   belong to the coordinator. *)
type state = {
  base_rows : Tuple.t array;
  out_schema : Schema.t;
  block_plans : plan array;  (** empty when aggregates are not maintained *)
  accs : Aggregate.acc array array array;
  stats : stats;
  verdicts : verdicts option;
}

(* [saturated] means no further detail rows can change the answer — the
   feeder stops pulling (Thms 4.1–4.2's early scan exit, an early
   storage exit for disk-resident details). *)
and verdicts = {
  kill_plans : plan array;
  fired_plans : plan array;
  alive : bool array;
  fired : bool array array;
  unfired : int array;
  settled : bool array;
  mutable n_settled : int;
  positive_settles : bool;
  early_exit_allowed : bool;
  mutable active : int array;
  mutable settled_at_compact : int;
  ctx : Tuple.t array;
  mutable saturated : bool;
}

let start ~strategy ~theta ?completion ~base ~detail_schema blocks =
  let stats = fresh_stats () in
  ensure_block_slots stats (List.length blocks);
  let bs = Relation.schema base and ds = detail_schema in
  let base_rows = Relation.rows base in
  let n_base = Array.length base_rows in
  let mk =
    make_plan ~strategy ~stats:(if theta then Some stats else None) ~bs ~ds ~base_rows
  in
  let maintain_aggregates =
    match completion with None -> true | Some c -> c.maintain_aggregates
  in
  let verdicts =
    Option.map
      (fun c ->
        let fired_plans = Array.of_list (List.map mk c.require_fired) in
        let n_fired_preds = Array.length fired_plans in
        {
          kill_plans = Array.of_list (List.map mk c.kill_when);
          fired_plans;
          alive = Array.make n_base true;
          fired = Array.make_matrix (max n_fired_preds 1) n_base false;
          unfired = Array.make n_base n_fired_preds;
          (* A base tuple is settled — removable from the scan — once it
             is killed (Thm 4.2), or, when there are no kill predicates
             and the aggregates are not needed, once every require-fired
             predicate has fired for it (Thm 4.1). *)
          positive_settles = c.kill_when = [] && not c.maintain_aggregates;
          settled = Array.make n_base false;
          n_settled = 0;
          (* Early termination is sound only when settled tuples account
             for the whole base: killed ones produce no output and
             positively-settled ones need no further updates. *)
          early_exit_allowed = not c.maintain_aggregates;
          active = Array.init n_base (fun i -> i);
          settled_at_compact = 0;
          ctx = [| Tuple.empty; Tuple.empty |];
          saturated = false;
        })
      completion
  in
  {
    base_rows;
    out_schema = output_schema ~base:bs ~detail:ds blocks;
    block_plans =
      (if maintain_aggregates then Array.of_list (List.map (fun b -> mk b.theta) blocks)
       else [||]);
    accs = make_accs ~bs ~ds ~n_base blocks;
    stats;
    verdicts;
  }

(* Plain accumulation of the rows [lo, hi) of [detail_rows]; [apply] is
   {!Aggregate.step} for evaluation and insertions, and
   {!Aggregate.step_back} for deletion maintenance. *)
let accumulate ~apply st detail_rows lo hi =
  let n_base = Array.length st.base_rows in
  let stats = st.stats in
  let ctx = [| Tuple.empty; Tuple.empty |] in
  let update block_i drow bi =
    ctx.(0) <- st.base_rows.(bi);
    ctx.(1) <- drow;
    stats.block_updates.(block_i) <- stats.block_updates.(block_i) + 1;
    Array.iter (fun acc -> apply acc ctx) st.accs.(bi).(block_i)
  in
  for ri = lo to hi - 1 do
    let drow = detail_rows.(ri) in
    stats.detail_scanned <- stats.detail_scanned + 1;
    Array.iteri
      (fun block_i plan ->
        if prefilter_passes plan drow then
          match plan.probe with
          | Probe_hash { key_of_detail; index; test } ->
            Index.probe_iter index (key_of_detail drow) (fun bi ->
                if test st.base_rows.(bi) drow then update block_i drow bi)
          | Probe_all { test } ->
            for bi = 0 to n_base - 1 do
              if test st.base_rows.(bi) drow then update block_i drow bi
            done)
      st.block_plans
  done

let settle st v bi =
  if not v.settled.(bi) then begin
    v.settled.(bi) <- true;
    v.n_settled <- v.n_settled + 1;
    if v.early_exit_allowed && v.n_settled >= Array.length st.base_rows then raise Scan_done
  end

(* The scan probes of Probe_all plans iterate an explicit active list;
   it is compacted whenever at least a quarter of it has settled, so a
   mostly-decided base stops costing per-pair work (the paper's
   "transferring the completed tuples to disk"). *)
let compact v =
  if
    Array.length v.active > 64 && 4 * (v.n_settled - v.settled_at_compact) > Array.length v.active
  then begin
    v.active <- Array.of_seq (Seq.filter (fun bi -> not v.settled.(bi)) (Array.to_seq v.active));
    v.settled_at_compact <- v.n_settled
  end

let iterate_candidates st v plan drow f =
  match plan.probe with
  | Probe_hash { key_of_detail; index; test } ->
    Index.probe_iter index (key_of_detail drow) (fun bi ->
        if (not v.settled.(bi)) && test st.base_rows.(bi) drow then f bi)
  | Probe_all { test } ->
    let a = v.active in
    for i = 0 to Array.length a - 1 do
      let bi = a.(i) in
      if (not v.settled.(bi)) && test st.base_rows.(bi) drow then f bi
    done

let feed_verdict_row st v drow =
  st.stats.detail_scanned <- st.stats.detail_scanned + 1;
  Array.iter
    (fun plan ->
      if prefilter_passes plan drow then
        iterate_candidates st v plan drow (fun bi ->
            if v.alive.(bi) then begin
              v.alive.(bi) <- false;
              settle st v bi
            end))
    v.kill_plans;
  Array.iteri
    (fun pi plan ->
      if prefilter_passes plan drow then
        iterate_candidates st v plan drow (fun bi ->
            if v.alive.(bi) && not v.fired.(pi).(bi) then begin
              v.fired.(pi).(bi) <- true;
              v.unfired.(bi) <- v.unfired.(bi) - 1;
              if v.positive_settles && v.unfired.(bi) = 0 then settle st v bi
            end))
    v.fired_plans;
  Array.iteri
    (fun block_i plan ->
      if prefilter_passes plan drow then
        iterate_candidates st v plan drow (fun bi ->
            if v.alive.(bi) then begin
              v.ctx.(0) <- st.base_rows.(bi);
              v.ctx.(1) <- drow;
              st.stats.block_updates.(block_i) <- st.stats.block_updates.(block_i) + 1;
              Array.iter (fun acc -> Aggregate.step acc v.ctx) st.accs.(bi).(block_i)
            end))
    st.block_plans;
  compact v

let feed ?(apply = Aggregate.step) st chunk =
  match st.verdicts with
  | None ->
    let lo = Chunk.offset chunk in
    accumulate ~apply st (Chunk.buffer chunk) lo (lo + Chunk.length chunk)
  | Some v ->
    if not v.saturated then begin
      try Chunk.iter (feed_verdict_row st v) chunk
      with Scan_done ->
        v.saturated <- true;
        st.stats.early_exit <- true
    end

let saturated st = match st.verdicts with Some v -> v.saturated | None -> false

(* Fold state [b] (another domain's share of the detail) into [a]: every
   SQL aggregate state merges ({!Aggregate.merge}), and kill/fire
   verdicts are monotone under more detail rows, so alive ANDs and fired
   ORs.  A domain may have kept stepping aggregates for a base tuple
   another domain killed — harmless, the merged [alive] excludes that
   tuple from the output. *)
let merge ~into:a b =
  Array.iteri
    (fun bi per_block ->
      Array.iteri
        (fun block_i per_agg ->
          Array.iteri
            (fun agg_i acc -> Aggregate.merge ~into:acc b.accs.(bi).(block_i).(agg_i))
            per_agg)
        per_block)
    a.accs;
  match (a.verdicts, b.verdicts) with
  | Some va, Some vb ->
    let n_preds = Array.length va.fired_plans in
    Array.iteri
      (fun bi _ ->
        va.alive.(bi) <- va.alive.(bi) && vb.alive.(bi);
        let unfired = ref n_preds in
        for pi = 0 to n_preds - 1 do
          va.fired.(pi).(bi) <- va.fired.(pi).(bi) || vb.fired.(pi).(bi);
          if va.fired.(pi).(bi) then decr unfired
        done;
        va.unfired.(bi) <- !unfired)
      a.base_rows
  | _ -> ()

(* The result in base order: every base row, or — for a completion —
   the surviving ones, extended with the aggregate columns. *)
let finish st =
  let rows =
    match st.verdicts with
    | None -> Array.mapi (fun bi brow -> emit_row brow st.accs.(bi)) st.base_rows
    | Some v ->
      let out = Vec.create ~dummy:Tuple.empty () in
      Array.iteri
        (fun bi brow ->
          if v.alive.(bi) && v.unfired.(bi) = 0 then Vec.push out (emit_row brow st.accs.(bi)))
        st.base_rows;
      Vec.to_array out
  in
  Relation.create ~check:false st.out_schema rows

(* ------------------------------------------------------------------ *)
(* The evaluator                                                        *)
(* ------------------------------------------------------------------ *)

let count_early_exit (owned : stats) =
  owned.early_exit <- true;
  Subql_obs.Metrics.(incr (counter default "gmdj.early_exits"))

(* A completion whose answer needs no detail row: an empty base, or
   nothing can kill, nothing must fire and no aggregate is kept. *)
let decided_without_detail ~n_base = function
  | None -> false
  | Some c ->
    n_base = 0 || (c.kill_when = [] && c.require_fired = [] && not c.maintain_aggregates)

(* An untouched whole-relation detail is re-sliced so that every domain
   gets work even on small inputs; the domain count is capped at its
   cardinality.  (At one domain the source's own slicing stands.) *)
let spread ~domains detail =
  match Chunk.Source.origin detail with
  | Some r when domains > 1 ->
    Chunk.Source.close detail;
    let n = Relation.cardinality r in
    let domains = max 1 (min domains n) in
    let chunk_rows = max 1 (min Chunk.default_rows ((n + domains - 1) / domains)) in
    (domains, Chunk.Source.of_relation ~chunk_rows r)
  | _ -> (domains, detail)

let eval ?(strategy = `Hash) ?stats ?completion ~domains ~base detail blocks =
  if domains <= 0 then invalid_arg "Gmdj.eval: domains must be positive";
  let span, completion_attrs =
    match completion with
    | None -> ("gmdj.eval", [])
    | Some c ->
      ( "gmdj.eval_completed",
        [
          ("kill_preds", string_of_int (List.length c.kill_when));
          ("require_preds", string_of_int (List.length c.require_fired));
        ] )
  in
  with_owned_stats
    ~attrs:
      ([
         ("strategy", strategy_name strategy);
         ("blocks", string_of_int (List.length blocks));
         ("base_rows", string_of_int (Relation.cardinality base));
         ("domains", string_of_int domains);
       ]
      @ completion_attrs)
    ~span stats
  @@ fun owned ->
  let detail_schema = Chunk.Source.schema detail in
  let start () =
    start ~strategy ~theta:(Option.is_some stats) ?completion ~base ~detail_schema blocks
  in
  ensure_block_slots owned (List.length blocks);
  let n_base = Relation.cardinality base in
  if decided_without_detail ~n_base completion then begin
    (* Decided on the coordinator: no pass, no storage read. *)
    Chunk.Source.close detail;
    if n_base > 0 then count_early_exit owned;
    finish (start ())
  end
  else begin
    let domains, detail = spread ~domains detail in
    (* The exchange touches every detail row at most once across all
       domains, so it counts as one logical pass of the detail. *)
    owned.detail_passes <- owned.detail_passes + 1;
    let states =
      Chunk.Exchange.fold ~domains ~stop:saturated
        ~init:(fun _ -> start ())
        ~fold:(fun st chunk ->
          feed st chunk;
          st)
        ~finish:Fun.id detail
    in
    let merged = List.hd states in
    List.iteri
      (fun i st ->
        if i > 0 then merge ~into:merged st;
        owned.detail_scanned <- owned.detail_scanned + st.stats.detail_scanned;
        owned.theta_evals <- owned.theta_evals + st.stats.theta_evals;
        Array.iteri
          (fun block_i n -> owned.block_updates.(block_i) <- owned.block_updates.(block_i) + n)
          st.stats.block_updates)
      states;
    if List.exists (fun st -> st.stats.early_exit) states then count_early_exit owned;
    finish merged
  end

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance                                         *)
(* ------------------------------------------------------------------ *)

module Maintain = struct
  (* Process-wide delta generation: every fold/retract of detail rows
     bumps it, so fingerprint-keyed result caches (Subql_mqo) can treat
     any maintained-view mutation as an invalidation epoch.  Maintained
     views change the effective detail content without going through the
     catalog, so the catalog's own generation cannot see them. *)
  let generation_counter = ref 0

  let generation () = !generation_counter

  (* The view is one live fold state: its [stats] are the lifetime
     counts over the materialization and every delta since. *)
  type t = { st : state; detail_schema : Schema.t; has_minmax : bool }

  let has_minmax_agg blocks =
    List.exists
      (fun b ->
        List.exists
          (fun s ->
            match s.Aggregate.func with
            | Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _ -> true
            | Aggregate.Count_star | Aggregate.Count _ | Aggregate.Sum _ | Aggregate.Avg _
              ->
              false)
          b.aggs)
      blocks

  let create ?(strategy = `Hash) ~base ~detail blocks =
    let detail_schema = Relation.schema detail in
    let st = start ~strategy ~theta:false ~base ~detail_schema blocks in
    feed st (Chunk.whole detail);
    { st; detail_schema; has_minmax = has_minmax_agg blocks }

  let check_delta t schema =
    if not (Schema.equal_names schema t.detail_schema) then
      invalid_arg "Gmdj.Maintain: delta schema does not match the detail schema"

  let insert_chunk t chunk =
    check_delta t (Chunk.schema chunk);
    incr generation_counter;
    feed t.st chunk

  let insert_detail t delta = insert_chunk t (Chunk.whole delta)

  let insert_source t source =
    Chunk.Source.fold
      (fun rows chunk ->
        insert_chunk t chunk;
        rows + Chunk.length chunk)
      0 source

  let stats t = t.st.stats

  let delete_detail t delta =
    check_delta t (Relation.schema delta);
    if t.has_minmax then
      invalid_arg "Gmdj.Maintain: MIN/MAX views cannot be maintained under deletions";
    incr generation_counter;
    feed ~apply:Aggregate.step_back t.st (Chunk.whole delta)

  let result t = finish t.st
end
