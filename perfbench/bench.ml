(* The benchmark's entry point (run through run.py, which builds it).

   bench.exe --workload olap-paper|serve-cached|serve-append --seed N
             --seconds S --trace 0|1 [--spans FILE]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics of a separate traced run; the last line of standard output
   is the JSON result.  --seconds fixes the operation counts (olap-paper:
   9 rounds per second; serve-*: episodes of an eighth that many
   virtual seconds of arrivals), so two runs with the same arguments do
   the same work.  Exits 1 on any wrong answer. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME olap-paper, serve-cached or serve-append");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length, as fixed operation counts");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--spans", Arg.Set_string spans_out, "FILE write the traced run's spans (Chrome JSON)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 then (prerr_endline "bench: --seconds must be at least 1"; exit 2);
  let seed = Int64.of_int !seed and traced = !trace = 1 in
  let outcome =
    match !workload with
    | "olap-paper" ->
      let sizes = Perfbench.Olap_paper.sizes ~seconds:!seconds in
      if traced then Perfbench.Olap_paper.traced ~seed sizes else Perfbench.Olap_paper.untraced ~seed sizes
    | ("serve-cached" | "serve-append") as w ->
      let kind = if w = "serve-cached" then Perfbench.Serve.Cached else Perfbench.Serve.Appending in
      let sizes = Perfbench.Serve.sizes kind ~seconds:!seconds in
      if traced then Perfbench.Serve.traced kind ~seed sizes else Perfbench.Serve.untraced kind ~seed sizes
    | other ->
      prerr_endline ("bench: unknown workload " ^ other);
      exit 2
  in
  if traced && !spans_out <> "" then Perfbench.Spans.write_chrome !spans_out (Perfbench.Spans.spans ());
  Perfbench.Report.print ~traced outcome;
  if not outcome.Perfbench.Report.correct then exit 1
