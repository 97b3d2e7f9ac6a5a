open Subql_relational

type candidate = {
  label : string;
  plan : Algebra.t;
  estimate : Cost.estimate;
}

(* The join-unnesting alternatives, each only where its translation
   applies. *)
let unnestings catalog query =
  let semijoin =
    match Unnest.via_semijoins catalog query with
    | alg -> Some ("semijoin-unnest", alg)
    | exception Unnest.Not_applicable _ -> None
  in
  let outerjoin =
    match Unnest.via_joins catalog query with
    | alg -> Some ("outerjoin-unnest", alg)
    | exception Transform.Unsupported _ -> None
  in
  List.filter_map Fun.id [ semijoin; outerjoin ]

let rank stats ~config catalog query =
  let gmdj = Optimize.optimize (Transform.to_algebra query) in
  ("gmdj", gmdj) :: unnestings catalog query
  |> List.map (fun (label, plan) ->
         { label; plan; estimate = Cost.estimate stats ~config plan })
  |> List.sort (fun a b -> Float.compare a.estimate.Cost.cost b.estimate.Cost.cost)

let candidates ?(config = Eval.default_config) ?stats catalog query =
  let stats = match stats with Some s -> s | None -> Cost.Stats.of_catalog catalog in
  rank stats ~config catalog query

let choose ?(config = Eval.default_config) catalog query =
  let stats = Cost.Stats.of_catalog catalog in
  match rank stats ~config catalog query with
  | best :: _ ->
    (* Report the winner's expected executor footprint next to its cost,
       so memory regressions surface in the same registry as q-errors. *)
    Subql_obs.Metrics.set
      (Subql_obs.Metrics.gauge Subql_obs.Metrics.default "planner.last_memory_height")
      (Cost.memory_height stats ~config best.plan);
    best
  | [] -> assert false (* the GMDJ plan is always present *)

(* --- Estimated-vs-actual feedback ---------------------------------- *)

type feedback = {
  candidate : candidate;
  actual_rows : int;
  q_error : float;
}

let q_error ~estimated ~actual =
  let est = Float.max 1. estimated and act = Float.max 1. (float_of_int actual) in
  Float.max (est /. act) (act /. est)

let record_feedback fb =
  let open Subql_obs in
  let r = Metrics.default in
  Metrics.incr (Metrics.counter r "planner.runs");
  Metrics.incr (Metrics.counter r ("planner.chosen." ^ fb.candidate.label));
  Metrics.set (Metrics.gauge r "planner.last_estimated_rows") fb.candidate.estimate.Cost.rows;
  Metrics.set (Metrics.gauge r "planner.last_actual_rows") (float_of_int fb.actual_rows);
  Metrics.observe
    (Metrics.histogram ~buckets:[ 1.; 1.5; 2.; 4.; 8.; 16.; 64.; 256.; 1024. ] r
       "planner.q_error")
    fb.q_error

let run_with_feedback ?config catalog query =
  let best = choose ?config catalog query in
  let result = Eval.eval ?config catalog best.plan in
  let actual_rows = Relation.cardinality result in
  let fb =
    {
      candidate = best;
      actual_rows;
      q_error = q_error ~estimated:best.estimate.Cost.rows ~actual:actual_rows;
    }
  in
  record_feedback fb;
  (result, fb)

let run ?config catalog query = fst (run_with_feedback ?config catalog query)
