(* The parallel-exchange benchmark: speedup with domains, bounded peak
   memory with spilling.

   Part A runs the zoo's same-detail batch at 1, 2 and 4 domains and
   reports wall-clock speedups.  Speedup is a property of the machine as
   much as of the executor — the JSON records
   [Domain.recommended_domain_count] so the gate in scripts/check.sh can
   skip the speedup check on boxes without 4 cores, where near-linear
   scaling is physically impossible.

   Part B runs a spilling DISTINCT over the detail at |I| = N and
   |I| = 10N with a resident budget far below the distinct count: the
   overflow is hash-partitioned through temp heap files, so peak
   resident rows must stay flat while the spilled volume tracks the
   detail.  Both parts verify against the serial in-memory evaluator.

   Writes BENCH_par.json; scripts/check.sh gates speedup (where cores
   allow) and the 10x-detail memory bound against the committed
   baseline. *)

open Subql_relational
module Zoo = Subql_workload.Zoo
module J = Subql_obs.Json

let plan q = Subql.Optimize.optimize (Subql.Transform.to_algebra q)

let config ?spill domains =
  { Subql.Eval.default_config with Subql.Eval.domains; spill_budget_rows = spill }

let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let (), dt = Subql_obs.Clock.time f in
    best := Float.min !best dt
  done;
  !best

let counter name = Subql_obs.Metrics.counter_value_by_name Subql_obs.Metrics.default name

let run (options : Figures.options) =
  let out = "BENCH_par.json" in
  let cores = Domain.recommended_domain_count () in
  let outer = if options.Figures.full then 500 else 64 in
  let inner = if options.Figures.full then 400_000 else 60_000 in
  let catalog = Zoo.catalog ~outer ~inner ~seed:options.Figures.seed () in
  let batch =
    List.map (fun n -> (n, plan (Zoo.find_query n))) Zoo.same_detail_templates
  in
  (* Part A: the same-detail batch across domains, verified then timed. *)
  let reference = List.map (fun (n, p) -> (n, Subql.Eval.eval catalog p)) batch in
  let verified_parallel =
    List.for_all
      (fun d ->
        List.for_all2
          (fun (_, r) (_, p) ->
            Relation.equal_as_multiset r (Subql.Eval.eval ~config:(config d) catalog p))
          reference batch)
      [ 2; 4 ]
  in
  let measure d =
    time_best ~repeats:3 (fun () ->
        List.iter
          (fun (_, p) -> ignore (Subql.Eval.eval ~config:(config d) catalog p))
          batch)
  in
  let t1 = measure 1 in
  let t2 = measure 2 in
  let t4 = measure 4 in
  let speedup t = if t > 0. then t1 /. t else 1. in
  (* Part B: a spilling DISTINCT over the detail's key column.  The key
     domain is fixed, so the answer (and the resident state: the frozen
     budget plus per-partition accumulators) does not grow with the
     detail — only the spilled volume does. *)
  let key_range = 512 in
  let budget = 64 in
  let spill_inner = if options.Figures.full then 100_000 else 20_000 in
  let spill_run n =
    let catalog = Zoo.catalog ~outer ~inner:n ~key_range ~seed:options.Figures.seed () in
    let key_col =
      let a = List.hd (Schema.to_list (Relation.schema (Catalog.find catalog "I"))) in
      ((if a.Schema.rel = "" then None else Some a.Schema.rel), a.Schema.name)
    in
    let p =
      Subql.Algebra.Group_by
        { keys = Some [ key_col ]; aggs = []; input = Subql.Algebra.Table "I" }
    in
    let rows_before = counter "exec.spilled_rows" in
    let bytes_before = counter "exec.spilled_bytes" in
    let result, report =
      Subql.Eval.eval_exec ~config:(config ~spill:budget 1) catalog p
    in
    let ok = Relation.equal_as_multiset result (Subql.Eval.eval catalog p) in
    ( report.Subql.Eval.peak_materialized_rows,
      counter "exec.spilled_rows" - rows_before,
      counter "exec.spilled_bytes" - bytes_before,
      ok )
  in
  let peak_1x, spilled_rows_1x, _, ok_1x = spill_run spill_inner in
  let peak_10x, spilled_rows_10x, spilled_bytes_10x, ok_10x = spill_run (10 * spill_inner) in
  let verified = verified_parallel && ok_1x && ok_10x in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "par");
        ("scale", J.Str (if options.Figures.full then "full" else "default"));
        ("cores", J.Int cores);
        ("outer_rows", J.Int outer);
        ("inner_rows", J.Int inner);
        ("templates", J.Int (List.length batch));
        ("seconds_1_domain", J.Float t1);
        ("seconds_2_domains", J.Float t2);
        ("seconds_4_domains", J.Float t4);
        ("speedup_2", J.Float (speedup t2));
        ("speedup_4", J.Float (speedup t4));
        ("spill_budget_rows", J.Int budget);
        ("spill_inner_rows", J.Int spill_inner);
        ("peak_rows_1x", J.Int peak_1x);
        ("peak_rows_10x", J.Int peak_10x);
        ("spilled_rows_1x", J.Int spilled_rows_1x);
        ("spilled_rows_10x", J.Int spilled_rows_10x);
        ("spilled_bytes_10x", J.Int spilled_bytes_10x);
        ("verified", J.Bool verified);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.== par: exchange speedup and spill-bounded memory ==@.";
  Format.printf "wrote %s@." out;
  Format.printf "machine: %d recommended domains@." cores;
  Format.printf "same-detail batch (%d templates, |I| = %d):@." (List.length batch) inner;
  Format.printf "  1 domain   %8.3fs@." t1;
  Format.printf "  2 domains  %8.3fs  (%.2fx)@." t2 (speedup t2);
  Format.printf "  4 domains  %8.3fs  (%.2fx)@." t4 (speedup t4);
  Format.printf "spilling DISTINCT (budget %d rows, %d distinct keys):@." budget key_range;
  Format.printf "  |I| = %-8d peak %6d resident rows, %8d rows spilled@." spill_inner
    peak_1x spilled_rows_1x;
  Format.printf "  |I| = %-8d peak %6d resident rows, %8d rows spilled (%d KiB)@."
    (10 * spill_inner) peak_10x spilled_rows_10x
    (spilled_bytes_10x / 1024);
  Format.printf "verified: %b@." verified;
  if not verified then exit 1;
  if spilled_rows_10x = 0 then begin
    Format.printf "FAIL: the 10x-detail run never spilled@.";
    exit 1
  end;
  (* The tentpole claim, enforced: spilling bounds the breaker's resident
     footprint — 10x the detail may not move the peak. *)
  if peak_10x > peak_1x + (peak_1x / 5) then begin
    Format.printf "FAIL: peak resident rows grew with the detail (%d -> %d)@." peak_1x
      peak_10x;
    exit 1
  end;
  if cores >= 4 && speedup t4 < 1.2 then begin
    Format.printf "FAIL: no speedup from 4 domains on a %d-core machine (%.2fx)@." cores
      (speedup t4);
    exit 1
  end
