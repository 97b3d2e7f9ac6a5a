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

(* The detail row being folded and where it sits in its chunk's buffer,
   read by every plan's match callback, so that probing a row allocates
   no closure.  [mode] says whether the detail rows are folded in, taken
   back out, or only checked for an exact retraction, which clears
   [exact] when one would not be. *)
type mode = Insert | Retract | Check_retract

type cursor = {
  mutable buf : Tuple.t array;
  mutable ri : int;
  mutable drow : Tuple.t;
  mutable mode : mode;
  mutable exact : bool;
}

(* A compiled plan for one θ-like condition over (base, detail):

   - [prefilter] holds the conjuncts that mention only detail attributes
     (the invariants of Rao & Ross): they are tested once per detail row
     instead of once per (base, detail) pair;
   - [probe] either looks the detail row up in a hash index on the base
     tuples (the [=]/[<=>] keys extracted: [Probe_key] when they are the
     whole condition, the residual tested per candidate otherwise) or
     tests the remaining condition against every candidate base tuple;
   - [hit] records a match with the cursor's detail row: base tuple
     [bi], or, for [Probe_key], the key's group in the index. *)
type plan = {
  prefilter : (Tuple.t -> bool) option;
  probe : probe;
  hit : int -> unit;
}

and probe =
  | Probe_key of { index : Index.t; dcols : int array }
  | Probe_hash of {
      index : Index.t;
      dcols : int array;
      candidate : int -> unit;  (** skip check, residual test, then [hit] *)
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

(* [settled] marks base tuples a completion no longer needs to probe;
   [keyed] allows a [Probe_key] plan. *)
let make_plan ~strategy ~stats ~bs ~ds ~base_rows ~cur ~settled ~keyed theta hit =
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
  let probe_all () = Probe_all { test = make_pair_test ~stats ~bs ~ds correlated_expr } in
  let probe =
    match strategy, correlated_expr with
    | `Scan, _ | `Hash, None -> probe_all ()
    | `Hash, Some expr -> (
      match Expr.split_equi ~left:bs ~right:ds expr with
      | [], _ -> probe_all ()
      | keys, residual -> (
        let bcols, dcols, null_safe = Expr.key_columns keys in
        let index = Index.build_rows ~null_safe base_rows bcols in
        match residual, settled with
        | None, None when keyed -> Probe_key { index; dcols }
        | _ ->
          let test = make_pair_test ~stats ~bs ~ds residual in
          let candidate =
            match settled with
            | None -> fun bi -> if test base_rows.(bi) cur.drow then hit bi
            | Some settled ->
              fun bi -> if (not settled.(bi)) && test base_rows.(bi) cur.drow then hit bi
          in
          Probe_hash { index; dcols; candidate }))
  in
  { prefilter; probe; hit }

let prefilter_passes plan drow =
  match plan.prefilter with None -> true | Some f -> f drow

(* ------------------------------------------------------------------ *)
(* Aggregate state                                                      *)
(* ------------------------------------------------------------------ *)

let compile_block ~bs ~ds b = Array.of_list (List.map (Aggregate.compile [| bs; ds |]) b.aggs)

(* Base row [bi] extended with every block's slot for it, in one
   allocation; with no stores (aggregates skipped) the aggregate columns
   stay NULL.  [slot_of] maps a base tuple to its slot in [st]. *)
let emit_row ~width stores bi (base_row : Tuple.t) : Tuple.t =
  let out = Array.make width Value.Null in
  Array.blit base_row 0 out 0 (Array.length base_row);
  let write off (st, slot_of) =
    Aggregate.write st (slot_of bi) out off;
    off + Aggregate.width st
  in
  ignore (Array.fold_left write (Array.length base_row) stores);
  out

(* ------------------------------------------------------------------ *)
(* The definition                                                       *)
(* ------------------------------------------------------------------ *)

let reference ~base ~detail blocks =
  let bs = Relation.schema base and ds = Relation.schema detail in
  let out_schema = output_schema ~base:bs ~detail:ds blocks in
  let frames = [| bs; ds |] in
  List.iter (fun b -> Expr.typecheck_bool frames b.theta) blocks;
  let thetas = Array.of_list (List.map (fun b -> Expr.compile_frames frames b.theta) blocks) in
  let n_base = Relation.cardinality base in
  let accs =
    Array.of_list
      (List.map (fun b -> Aggregate.states (compile_block ~bs ~ds b) ~slots:n_base) blocks)
  in
  let stores = Array.map (fun st -> (st, Fun.id)) accs in
  let ctx = [| Tuple.empty; Tuple.empty |] in
  let width = Schema.arity out_schema in
  let rows =
    Array.mapi
      (fun bi brow ->
        (* One full detail pass per base tuple and block. *)
        Array.iteri
          (fun i theta ->
            Relation.iter
              (fun drow ->
                ctx.(0) <- brow;
                ctx.(1) <- drow;
                if Expr.is_true (theta ctx) then Aggregate.step accs.(i) bi ctx)
              detail)
          thetas;
        emit_row ~width stores bi brow)
      (Relation.rows base)
  in
  Relation.create ~check:false out_schema rows

(* ------------------------------------------------------------------ *)
(* The fold state                                                       *)
(* ------------------------------------------------------------------ *)

exception Scan_done

(* One block's aggregates.  Its plan's matches collect as (detail row,
   slot) pairs that [flush] folds in once per chunk.  A slot is a base
   tuple or — when θ is only keys, the aggregates read only the detail
   and no completion checks [alive] — a θ-key group of the base, so a
   detail row costs one probe and one update.  [slot_of bi] is base
   tuple [bi]'s slot. *)
type block_fold = { plan : plan; states : Aggregate.states; slot_of : int -> int; flush : unit -> unit }

(* One in-flight evaluation on one domain: compiled θ-plans, one
   aggregate store per block and, for a completion (Section 4.2), the
   kill/require verdicts.  Detail rows arrive as chunks ([feed]); every
   domain of an exchange owns one state (compiled closures, the cursor
   and hash indexes are per-evaluation) and the states combine with
   [merge].  [stats] is the state's own record for row/θ/block counts;
   detail passes and registry publication belong to the coordinator. *)
type state = {
  base_rows : Tuple.t array;
  out_schema : Schema.t;
  cur : cursor;
  kill_plans : plan array;
  fired_plans : plan array;
  blocks : block_fold array;  (** empty when aggregates are not maintained *)
  stats : stats;
  verdicts : verdicts option;
}

(* [saturated] means no further detail rows can change the answer — the
   feeder stops pulling (Thms 4.1–4.2's early scan exit, an early
   storage exit for disk-resident details). *)
and verdicts = {
  alive : bool array;
  fired : bool array array;
  unfired : int array;
  settled : bool array;
  mutable n_settled : int;
  positive_settles : bool;
  early_exit_allowed : bool;
  mutable active : int array;
  mutable settled_at_compact : int;
  mutable saturated : bool;
}

let settle v bi =
  if not v.settled.(bi) then begin
    v.settled.(bi) <- true;
    v.n_settled <- v.n_settled + 1;
    if v.early_exit_allowed && v.n_settled >= Array.length v.settled then raise Scan_done
  end

(* [block_updates] counts matched (detail row, base tuple) pairs: a
   match adds its slot's number of base tuples. *)
let block_fold ~mk ~stats ~cur ~verdicts ~bs ~ds ~base_rows block_i b =
  let args = List.filter_map (fun s -> Aggregate.arg s.Aggregate.func) b.aggs in
  let detail_only = List.for_all (Expr.refs_resolvable [| ds |]) args in
  let pairs = Aggregate.pairs () in
  (* Both depend on the plan; set before any row is probed. *)
  let weight = ref (fun _ -> 1) and flush = ref ignore in
  let push slot =
    stats.block_updates.(block_i) <- stats.block_updates.(block_i) + !weight slot;
    if Aggregate.add_pair pairs cur.ri slot then !flush ()
  in
  let hit = match verdicts with None -> push | Some v -> fun bi -> if v.alive.(bi) then push bi in
  let plan = mk ~keyed:(detail_only && Option.is_none verdicts) b.theta hit in
  let slots, outer, slot_of =
    match plan.probe with
    | Probe_key { index; _ } ->
      (* One slot per group, and a last one that stays at the identity
         for the base tuples no key matches. *)
      let groups = Index.cardinality index in
      let slot_of bi = match Index.group_of index bi with -1 -> groups | g -> g in
      let sizes = Array.make (groups + 1) 0 in
      Array.iteri (fun bi _ -> sizes.(slot_of bi) <- sizes.(slot_of bi) + 1) base_rows;
      (weight := fun g -> sizes.(g));
      (groups + 1, [||], slot_of)
    | Probe_hash _ | Probe_all _ -> (Array.length base_rows, base_rows, Fun.id)
  in
  let states = Aggregate.states (compile_block ~bs ~ds b) ~slots in
  (flush :=
     fun () ->
       match cur.mode with
       | Insert -> Aggregate.fold_pairs ~retract:false states ~outer cur.buf pairs
       | Retract -> Aggregate.fold_pairs ~retract:true states ~outer cur.buf pairs
       | Check_retract ->
         if not (Aggregate.exact_retraction states ~outer cur.buf pairs) then cur.exact <- false);
  { plan; states; slot_of; flush = !flush }

let start ~strategy ~theta ?completion ~base ~detail_schema blocks =
  let stats = fresh_stats () in
  ensure_block_slots stats (List.length blocks);
  let bs = Relation.schema base and ds = detail_schema in
  let base_rows = Relation.rows base in
  let n_base = Array.length base_rows in
  let cur = { buf = [||]; ri = 0; drow = Tuple.empty; mode = Insert; exact = true } in
  let maintain_aggregates =
    match completion with None -> true | Some c -> c.maintain_aggregates
  in
  let verdicts =
    Option.map
      (fun c ->
        let n_fired_preds = List.length c.require_fired in
        {
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
          saturated = false;
        })
      completion
  in
  let mk =
    make_plan ~strategy ~stats:(if theta then Some stats else None) ~bs ~ds ~base_rows ~cur
      ~settled:(Option.map (fun v -> v.settled) verdicts)
  in
  let kill_plans, fired_plans =
    match completion, verdicts with
    | Some c, Some v ->
      let kill bi =
        if v.alive.(bi) then begin
          v.alive.(bi) <- false;
          settle v bi
        end
      in
      let fire pi bi =
        if v.alive.(bi) && not v.fired.(pi).(bi) then begin
          v.fired.(pi).(bi) <- true;
          v.unfired.(bi) <- v.unfired.(bi) - 1;
          if v.positive_settles && v.unfired.(bi) = 0 then settle v bi
        end
      in
      ( Array.of_list (List.map (fun theta -> mk ~keyed:false theta kill) c.kill_when),
        Array.of_list (List.mapi (fun pi theta -> mk ~keyed:false theta (fire pi)) c.require_fired)
      )
    | _ -> ([||], [||])
  in
  {
    base_rows;
    out_schema = output_schema ~base:bs ~detail:ds blocks;
    cur;
    kill_plans;
    fired_plans;
    blocks =
      (if maintain_aggregates then
         Array.of_list
           (List.mapi (block_fold ~mk ~stats ~cur ~verdicts ~bs ~ds ~base_rows) blocks)
       else [||]);
    stats;
    verdicts;
  }

(* Offer the cursor's detail row [drow] to one plan: every base tuple
   that satisfies its condition (and, in a completion, is not settled)
   — or the one key group it matches — gets a [hit]. *)
let probe_plan st plan drow =
  if prefilter_passes plan drow then
    match plan.probe with
    | Probe_key { index; dcols } ->
      let g = Index.find index drow dcols in
      if g >= 0 then plan.hit g
    | Probe_hash { index; dcols; candidate } -> Index.probe_row_iter index drow dcols candidate
    | Probe_all { test } -> (
      let base_rows = st.base_rows in
      match st.verdicts with
      | None ->
        for bi = 0 to Array.length base_rows - 1 do
          if test base_rows.(bi) drow then plan.hit bi
        done
      | Some v ->
        let a = v.active in
        for i = 0 to Array.length a - 1 do
          let bi = a.(i) in
          if (not v.settled.(bi)) && test base_rows.(bi) drow then plan.hit bi
        done)

let probe_plans st plans drow =
  for p = 0 to Array.length plans - 1 do
    probe_plan st plans.(p) drow
  done

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

(* Phase 1 over the rows [lo, hi) of [buf]: verdicts are decided row by
   row, and every block plan's matches collect in its pairs. *)
let probe_rows st buf lo hi =
  let cur = st.cur in
  cur.buf <- buf;
  for ri = lo to hi - 1 do
    let drow = buf.(ri) in
    st.stats.detail_scanned <- st.stats.detail_scanned + 1;
    cur.ri <- ri;
    cur.drow <- drow;
    probe_plans st st.kill_plans drow;
    probe_plans st st.fired_plans drow;
    for b = 0 to Array.length st.blocks - 1 do
      probe_plan st st.blocks.(b).plan drow
    done;
    Option.iter compact st.verdicts
  done

(* Fold one chunk: phase 1, then phase 2 — every block steps its
   aggregates over the chunk's matches. *)
let feed ~mode st chunk =
  st.cur.mode <- mode;
  let lo = Chunk.offset chunk in
  let hi = lo + Chunk.length chunk in
  (match st.verdicts with
  | None -> probe_rows st (Chunk.buffer chunk) lo hi
  | Some v ->
    if not v.saturated then begin
      try probe_rows st (Chunk.buffer chunk) lo hi
      with Scan_done ->
        v.saturated <- true;
        st.stats.early_exit <- true
    end);
  Array.iter (fun b -> b.flush ()) st.blocks

let saturated st = match st.verdicts with Some v -> v.saturated | None -> false

(* Fold state [b] (another domain's share of the detail) into [a]: the
   aggregate stores merge block by block, slot by slot
   ({!Aggregate.merge}), and kill/fire verdicts are monotone under more
   detail rows, so alive ANDs and fired ORs.  A domain may have kept
   stepping aggregates for a base tuple another domain killed —
   harmless, the merged [alive] excludes that tuple from the output. *)
let merge ~into:a b =
  Array.iteri (fun i theirs -> Aggregate.merge ~into:a.blocks.(i).states theirs.states) b.blocks;
  match (a.verdicts, b.verdicts) with
  | Some va, Some vb ->
    let n_preds = Array.length a.fired_plans in
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
  let stores = Array.map (fun b -> (b.states, b.slot_of)) st.blocks in
  let emit = emit_row ~width:(Schema.arity st.out_schema) stores in
  let rows =
    match st.verdicts with
    | None -> Array.mapi emit st.base_rows
    | Some v ->
      let out = Vec.create ~dummy:Tuple.empty () in
      Array.iteri
        (fun bi brow -> if v.alive.(bi) && v.unfired.(bi) = 0 then Vec.push out (emit bi brow))
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

(* An order-sensitive merge (FIRST) is right only when [merge ~into]
   sees the earlier rows first, and the exchange routes chunks round-robin,
   so a block list with such an aggregate folds at one domain. *)
let order_sensitive blocks =
  List.exists
    (fun b -> List.exists (fun s -> Aggregate.order_sensitive s.Aggregate.func) b.aggs)
    blocks

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
  let domains = if order_sensitive blocks then 1 else domains in
  let domains, detail = spread ~domains detail in
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
    (* The exchange touches every detail row at most once across all
       domains, so it counts as one logical pass of the detail. *)
    owned.detail_passes <- owned.detail_passes + 1;
    let states =
      Chunk.Exchange.fold ~domains ~stop:saturated
        ~init:(fun _ -> start ())
        ~fold:(fun st chunk ->
          feed ~mode:Insert st chunk;
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
  type t = { st : state; detail_schema : Schema.t; irretractable : Aggregate.spec option }

  (* A completion's verdicts are monotone under appends — a killed tuple
     stays killed, a fired predicate stays fired, and once saturated no
     row can change the answer — so inserts fold into the completed
     state exactly as {!eval} would over the whole detail. *)
  let create ?(strategy = `Hash) ?completion ~base ~detail blocks =
    let detail_schema = Relation.schema detail in
    let st = start ~strategy ~theta:false ?completion ~base ~detail_schema blocks in
    feed ~mode:Insert st (Chunk.whole detail);
    let retractable s = Aggregate.retractable s.Aggregate.func in
    let irretractable =
      List.find_opt (fun s -> not (retractable s)) (List.concat_map (fun b -> b.aggs) blocks)
    in
    { st; detail_schema; irretractable }

  let check_delta t schema =
    if not (Schema.equal_names schema t.detail_schema) then
      invalid_arg "Gmdj.Maintain: delta schema does not match the detail schema"

  let insert_chunk t chunk =
    check_delta t (Chunk.schema chunk);
    incr generation_counter;
    feed ~mode:Insert t.st chunk

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
    if Option.is_some t.st.verdicts then
      invalid_arg
        "Gmdj.Maintain: a completed view cannot be maintained under deletions (a retract \
         could revive a killed tuple)";
    Option.iter
      (fun s ->
        invalid_arg
          ("Gmdj.Maintain: a view with " ^ Aggregate.func_to_string s.Aggregate.func
         ^ " cannot be maintained under deletions"))
      t.irretractable;
    (* A dry run first: the delta's matches are probed and checked, and
       only the statistics move — put back before the real pass. *)
    let stats = t.st.stats in
    let scanned = stats.detail_scanned and updates = Array.copy stats.block_updates in
    t.st.cur.exact <- true;
    feed ~mode:Check_retract t.st (Chunk.whole delta);
    stats.detail_scanned <- scanned;
    stats.block_updates <- updates;
    if not t.st.cur.exact then
      invalid_arg
        "Gmdj.Maintain: this deletion would retract from a SUM or AVG whose sum may have rounded \
         (a float, or an int too large for an exact float sum); recompute the view instead";
    incr generation_counter;
    feed ~mode:Retract t.st (Chunk.whole delta)

  let result t = finish t.st
end
