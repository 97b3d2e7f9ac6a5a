open Subql_relational
open Subql_gmdj
open Subql

type member = { index : int; plan : Algebra.t }

type group = { combined : Algebra.t; members : member list }

type batch = { groups : group list; solo : (int * Algebra.t) list }

let shareable_plan query =
  Optimize.optimize
    ~flags:(Optimize.only ~coalesce:true ~pushdown:true ())
    (Transform.to_algebra query)

(* The rootmost GMDJ of a plan, in evaluation-independent DFS order.
   Returned physically, so the rewrite below can locate it with [==]. *)
let rec find_md alg =
  match alg with
  | Algebra.Md { completion = None; _ } -> Some alg
  | _ ->
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find_md c)
      None (Algebra.children alg)

let names_unique names =
  let sorted = List.sort String.compare names in
  let rec ok = function
    | a :: (b :: _ as rest) -> a <> b && ok rest
    | [ _ ] | [] -> true
  in
  ok sorted

(* Rename unqualified references to a member's aggregate columns.  The
   translation references GMDJ aggregates as [Attr (None, name)] (they
   exist in no source relation), so only unqualified attributes are
   candidates. *)
let rw_expr map e =
  Expr.map_attrs
    (fun (q, n) ->
      match q with
      | None -> (
        match Hashtbl.find_opt map n with
        | Some n' -> Expr.attr n'
        | None -> Expr.attr n)
      | Some rel -> Expr.attr ~rel n)
    e

let rw_col map (q, n) =
  match q with
  | None -> (
    match Hashtbl.find_opt map n with Some n' -> (None, n') | None -> (None, n))
  | Some _ -> (q, n)

let rw_spec map s = { s with Aggregate.func = Aggregate.map_arg (rw_expr map) s.Aggregate.func }

let rw_block map b =
  {
    Gmdj.theta = rw_expr map b.Gmdj.theta;
    aggs = List.map (rw_spec map) b.Gmdj.aggs;
  }

(* Rewrite the expressions carried by one node (no recursion into
   children — the traversal below handles that). *)
let rw_node map alg =
  let rw = rw_expr map in
  match alg with
  | Algebra.Select (e, x) -> Algebra.Select (rw e, x)
  | Algebra.Project (ps, x) ->
    Algebra.Project (List.map (fun (e, n) -> (rw e, n)) ps, x)
  | Algebra.Project_cols c ->
    Algebra.Project_cols { c with cols = List.map (rw_col map) c.cols }
  | Algebra.Join j -> Algebra.Join { j with cond = rw j.cond }
  | Algebra.Group_by g ->
    Algebra.Group_by
      {
        g with
        keys = Option.map (List.map (rw_col map)) g.keys;
        aggs = List.map (rw_spec map) g.aggs;
      }
  | Algebra.Sort srt ->
    Algebra.Sort { srt with by = List.map (fun (c, dir) -> (rw_col map c, dir)) srt.by }
  | Algebra.Md m ->
    Algebra.Md
      {
        m with
        blocks = List.map (rw_block map) m.blocks;
        completion =
          Option.map
            (fun c ->
              {
                c with
                Gmdj.kill_when = List.map rw c.Gmdj.kill_when;
                require_fired = List.map rw c.Gmdj.require_fired;
              })
            m.completion;
      }
  | Algebra.Table _ | Algebra.Rename _ | Algebra.Project_rel _
  | Algebra.Add_rownum _ | Algebra.Product _ | Algebra.Union_all _
  | Algebra.Diff_all _ ->
    alg

(* Replace the (physically identified) member GMDJ with the combined
   one and rename the member's aggregate references everywhere above
   it.  [rw_node] leaves children untouched, so physical identity of
   [target] survives until the substitution reaches it. *)
let rec rewrite_above ~target ~combined map alg =
  if alg == target then combined
  else Algebra.map_children (rewrite_above ~target ~combined map) (rw_node map alg)

type cand = {
  index : int;
  shareable : Algebra.t;
  solo_plan : Algebra.t;
  md : Algebra.t;
  base : Algebra.t;
  detail : Algebra.t;
  blocks : Gmdj.block list;
}

let agg_names blocks =
  List.concat_map (fun b -> List.map (fun s -> s.Aggregate.name) b.Gmdj.aggs) blocks

let candidate (index, shareable, solo_plan) =
  match find_md shareable with
  | Some (Algebra.Md { base; detail; blocks; _ } as md)
    when Algebra.detail_alias detail <> None && names_unique (agg_names blocks) ->
    Ok { index; shareable; solo_plan; md; base; detail; blocks }
  | _ -> Error (index, solo_plan)

(* Bucket candidates by (base, detail occurrence): exactly the Prop. 4.1
   applicability test, with alias differences absorbed by requalification. *)
let bucket cands =
  let rec insert groups c =
    match groups with
    | [] -> [ [ c ] ]
    | (h :: _ as g) :: rest ->
      if
        Algebra.equal h.base c.base
        && Algebra.same_occurrence_modulo_alias h.detail c.detail
      then (g @ [ c ]) :: rest
      else g :: insert rest c
    | [] :: rest -> insert rest c
  in
  List.fold_left insert [] cands

(* Build one shared group from a bucket.  Members whose rewritten plan
   fails the schema guard fall back to solo; the group is rebuilt
   without them (strictly fewer members each round, so this
   terminates). *)
let rec build_group catalog cands =
  match cands with
  | [] | [ _ ] -> (None, List.map (fun c -> (c.index, c.solo_plan)) cands)
  | first :: _ ->
    let target_alias =
      match Algebra.detail_alias first.detail with
      | Some a -> a
      | None -> assert false (* candidates guarantee an alias *)
    in
    let prepared =
      List.map
        (fun c ->
          let from_alias =
            match Algebra.detail_alias c.detail with
            | Some a -> a
            | None -> assert false
          in
          let requalified =
            Optimize.requalify_blocks ~from_alias ~to_alias:target_alias c.blocks
          in
          let map = Hashtbl.create 8 in
          let renamed =
            List.map
              (fun b ->
                {
                  b with
                  Gmdj.aggs =
                    List.map
                      (fun s ->
                        let name' = Printf.sprintf "q%d~%s" c.index s.Aggregate.name in
                        Hashtbl.replace map s.Aggregate.name name';
                        { s with Aggregate.name = name' })
                      b.Gmdj.aggs;
                })
              requalified
          in
          (c, map, renamed))
        cands
    in
    let combined =
      Algebra.Md
        {
          base = first.base;
          detail = first.detail;
          blocks = List.concat_map (fun (_, _, bs) -> bs) prepared;
          completion = None;
        }
    in
    let checked =
      List.map
        (fun (c, map, _) ->
          let plan = rewrite_above ~target:c.md ~combined map c.shareable in
          (* The merge claims plan ≡ solo_plan: the exact schema must be
             preserved and the static verifier must agree (same inferred
             schema, nullability at most narrowed, no fresh type
             errors) before the member may join the group. *)
          let ok =
            (try Schema.equal (Eval.schema catalog plan) (Eval.schema catalog c.solo_plan)
             with _ -> false)
            && not
                 (Diag.has_errors
                    (Subql_analysis.Verify.check_rewrite
                       (Subql_analysis.Typing.env_of_catalog catalog)
                       ~label:"mqo.share" ~before:c.solo_plan ~after:plan))
          in
          (c, plan, ok))
        prepared
    in
    let good, bad = List.partition (fun (_, _, ok) -> ok) checked in
    if bad = [] then
      ( Some
          {
            combined;
            members = List.map (fun (c, plan, _) -> { index = c.index; plan }) good;
          },
        [] )
    else
      let g, solos = build_group catalog (List.map (fun (c, _, _) -> c) good) in
      (g, List.map (fun (c, _, _) -> (c.index, c.solo_plan)) bad @ solos)

let plan catalog triples =
  let cands, solo =
    List.partition_map
      (fun t -> match candidate t with Ok c -> Left c | Error s -> Right s)
      triples
  in
  List.fold_left
    (fun acc bucket_cands ->
      let g, solos = build_group catalog bucket_cands in
      {
        groups = (match g with Some g -> g :: acc.groups | None -> acc.groups);
        solo = solos @ acc.solo;
      })
    { groups = []; solo } (bucket cands)

let run ?(config = Eval.default_config) ?gmdj_stats
    ?(registry = Subql_obs.Metrics.default) catalog batch =
  let m_shared = Subql_obs.Metrics.counter registry "mqo.shared_scans" in
  let m_naive = Subql_obs.Metrics.counter registry "mqo.naive_scans" in
  let memoized =
    List.map
      (fun g ->
        let memo =
          lazy
            (Subql_obs.Metrics.incr m_shared;
             Subql_obs.Metrics.incr ~by:(List.length g.members) m_naive;
             Eval.eval ~config ?gmdj_stats catalog g.combined)
        in
        (g, memo))
      batch.groups
  in
  let override node =
    List.find_map
      (fun (g, memo) -> if node == g.combined then Some (Lazy.force memo) else None)
      memoized
  in
  let grouped =
    List.concat_map
      (fun (g, _) ->
        List.map
          (fun (m : member) ->
            (m.index, Eval.eval ~config ?gmdj_stats ~override catalog m.plan))
          g.members)
      memoized
  in
  let solo =
    List.map (fun (i, p) -> (i, Eval.eval ~config ?gmdj_stats catalog p)) batch.solo
  in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) (grouped @ solo)
