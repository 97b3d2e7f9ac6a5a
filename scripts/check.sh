#!/bin/sh
# Repo health check: full build, test suite, and a CLI smoke test of the
# instrumented evaluation path.  Exits non-zero on any failure.  Report
# gates (analyzer JSON, bench targets vs committed baselines) live in one
# table in scripts/check_bench.py.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all (warnings are errors) =="
# @all also builds targets no test depends on; any compiler output
# (warnings included) fails the check.
build_out=$(dune build @all 2>&1) || {
  echo "$build_out"
  echo "FAIL: dune build @all failed" >&2
  exit 1
}
if [ -n "$build_out" ]; then
  echo "$build_out"
  echo "FAIL: dune build @all produced warnings" >&2
  exit 1
fi

echo
echo "== dune build @default @runtest =="
dune build @default @runtest

echo
echo "== CLI smoke test: EXPLAIN ANALYZE on a TPC-H EXISTS subquery =="
out=$(dune exec bin/olap_cli.exe -- run \
  --workload tpc --scale 0.002 --engine gmdj-opt --explain-analyze --limit 1 \
  "SELECT c.c_custkey FROM Customer c WHERE EXISTS (SELECT * FROM Orders o WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')")
echo "$out"

# The annotated tree must show the coalesced GMDJ doing exactly one
# detail scan.
echo "$out" | grep -q "detail-scans=1" || {
  echo "FAIL: expected detail-scans=1 in the EXPLAIN ANALYZE output" >&2
  exit 1
}
echo "$out" | grep -q "rows-out=" || {
  echo "FAIL: expected rows-out annotations in the EXPLAIN ANALYZE output" >&2
  exit 1
}
# A completed GMDJ is still labelled as one.
echo "$out" | grep -Eq "MD-completed|MD \(" || {
  echo "FAIL: expected an MD-completed or MD node in the EXPLAIN ANALYZE output" >&2
  exit 1
}

echo
echo "== CLI smoke test: the global aggregate over no rows is one row in every mode =="
# GROUP BY over no keys: one row of identities however the empty input
# is folded — across the exchange, under a spill budget, or naively.
empty_q="SELECT COUNT(*) AS n, SUM(f.NumBytes) AS s FROM Flow f WHERE f.NumBytes < 0"
edom=$(dune exec bin/olap_cli.exe -- run --domains 2 "$empty_q")
espill=$(dune exec bin/olap_cli.exe -- run --spill-budget 2 "$empty_q")
enat=$(dune exec bin/olap_cli.exe -- run --engine native "$empty_q")
echo "$enat"
if [ "$edom" != "$enat" ] || [ "$espill" != "$enat" ]; then
  echo "FAIL: the empty global aggregate differs across --domains 2," \
    "--spill-budget 2 and --engine native" >&2
  exit 1
fi
echo "$enat" | grep -q "^1 row" || {
  echo "FAIL: expected exactly one row from the empty global aggregate" >&2
  exit 1
}

echo
echo "== CLI smoke test: GROUP BY with every aggregate kind agrees in every mode =="
# One keyed aggregation folded serially, across the exchange, under a
# spill budget and naively: the sorted rows must be identical.
gb_q="SELECT f.SourceIP, COUNT(*), COUNT(f.DestIP), SUM(f.NumBytes), MIN(f.NumBytes), MAX(f.NumBytes), AVG(f.NumBytes), FIRST(f.Protocol) FROM Flow f GROUP BY f.SourceIP"
gdef=$(dune exec bin/olap_cli.exe -- run --limit 100000 "$gb_q" | sort)
gdom=$(dune exec bin/olap_cli.exe -- run --limit 100000 --domains 2 "$gb_q" | sort)
gspill=$(dune exec bin/olap_cli.exe -- run --limit 100000 --spill-budget 2 "$gb_q" | sort)
gnat=$(dune exec bin/olap_cli.exe -- run --limit 100000 --engine native "$gb_q" | sort)
echo "$gdef" | grep " rows$"
if [ "$gdom" != "$gdef" ] || [ "$gspill" != "$gdef" ] || [ "$gnat" != "$gdef" ]; then
  echo "FAIL: GROUP BY with every aggregate kind differs across run, --domains 2," \
    "--spill-budget 2 and --engine native" >&2
  exit 1
fi
echo "$gdef" | grep -q "^500 rows" || {
  echo "FAIL: expected 500 groups from the GROUP BY smoke query" >&2
  exit 1
}

echo
echo "== CLI smoke test: batch with cross-query sharing and a warm cache =="
batch_sql=$(mktemp /tmp/check_batch_XXXXXX.sql)
trap 'rm -f "$batch_sql"' EXIT
cat > "$batch_sql" <<'SQL'
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress);
SELECT u.UserName FROM User u
WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress
                  AND f.NumBytes > u.Quota);
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)
SQL
bout=$(dune exec bin/olap_cli.exe -- batch "$batch_sql" --repeat 2)
echo "$bout"

# Round 1 must share the three same-detail GMDJs into fewer scans than
# the naive one-scan-per-query baseline; round 2 must be all cache hits.
echo "$bout" | grep -q "detail scans: 1 (naive baseline: 3)" || {
  echo "FAIL: expected the cold batch to share 3 queries into 1 detail scan" >&2
  exit 1
}
echo "$bout" | grep -q "cache: 3 hits, 0 misses" || {
  echo "FAIL: expected the second round to be served entirely from cache" >&2
  exit 1
}

echo
echo "== static analysis: every zoo template must be diagnostic-error-free =="
# analyze exits non-zero if any template yields an error-severity
# diagnostic (including the rewrite verifier's VER00x on each optimized
# plan).
dune exec bin/olap_cli.exe -- analyze --zoo all

echo
echo "== static analysis: --json output stays machine-readable =="
analyze_json=$(mktemp /tmp/check_analyze_XXXXXX.json)
dune exec bin/olap_cli.exe -- analyze --zoo all --json > "$analyze_json"
python3 scripts/check_bench.py analyze "$analyze_json"
rm -f "$analyze_json"

echo
echo "== static analysis: --certify proves finite memory bounds for the zoo =="
# The certificate passes (interval cardinality analysis, parallel-merge
# lawfulness, delta-maintainability effects) must certify every zoo
# template with zero error-severity diagnostics — analyze exits
# non-zero otherwise — and every certified memory bound must be finite.
certify_json=$(mktemp /tmp/check_certify_XXXXXX.json)
dune exec bin/olap_cli.exe -- analyze --certify --zoo all --json > "$certify_json"
python3 scripts/check_bench.py certify "$certify_json"
rm -f "$certify_json"

echo
echo "== bench smoke test: mqo target keeps BENCH_mqo.json well-formed =="
dune exec bench/main.exe -- mqo > /dev/null
python3 scripts/check_bench.py mqo

echo
echo "== bench smoke test: exec target gates streaming-executor regressions =="
# The exec benchmark self-verifies (streamed == in-memory results, peak
# independent of |detail|); on top of that, gate its memory and I/O
# numbers against the committed baseline: >10% worse on peak
# materialized rows or page reads fails the check.  Its GROUP BY vs
# GMDJ row must report equal results, and GROUP BY may take at most
# 1.2x the GMDJ fold over the same rows.
dune exec bench/main.exe -- exec > /dev/null
python3 scripts/check_bench.py exec

echo
echo "== bench smoke test: par target gates parallel-executor regressions =="
# The par benchmark self-verifies (parallel and spilling results ==
# serial in-memory results) and self-gates the 10x-detail memory bound.
# On top of that: the 4-domain speedup must reach 2.5x — skipped, with a
# note, when the machine has fewer than 4 cores (the JSON records the
# core count; wall-clock scaling is physically impossible there) — and
# the spill numbers may not regress against the committed baseline.
dune exec bench/main.exe -- par > /dev/null
python3 scripts/check_bench.py par

echo
echo "== CLI smoke test: run --domains routes through the exchange =="
pout=$(dune exec bin/olap_cli.exe -- run --flows 30000 --users 300 --domains 4 \
  --engine gmdj-opt --metrics --limit 1 \
  "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)")
echo "$pout" | grep -E "exec\.domains|exchange\."
echo "$pout" | grep -Eq "exec.domains +4" || {
  echo "FAIL: expected exec.domains = 4 in --metrics after run --domains 4" >&2
  exit 1
}
echo "$pout" | grep -Eq "exchange.rows +[1-9][0-9]*" || {
  echo "FAIL: expected exchange.rows > 0 — the run never went through the exchange" >&2
  exit 1
}

echo
echo "== CLI smoke test: FIRST in a GMDJ gives the serial answer at --domains 2 =="
# FIRST's merge is order-sensitive; a parallel run must still match the
# naive engine row for row.
first_q="SELECT u.UserName FROM User u WHERE 200000 > (SELECT FIRST(f.NumBytes) FROM Flow f WHERE f.SourceIP = u.IPAddress)"
fpar=$(dune exec bin/olap_cli.exe -- run --domains 2 --limit 100000 "$first_q" | sort)
fnat=$(dune exec bin/olap_cli.exe -- run --engine native --limit 100000 "$first_q" | sort)
if [ "$fpar" != "$fnat" ]; then
  echo "FAIL: FIRST query differs between --domains 2 and --engine native" >&2
  echo "  --domains 2:     $(echo "$fpar" | grep -E '^[0-9]+ rows')" >&2
  echo "  --engine native: $(echo "$fnat" | grep -E '^[0-9]+ rows')" >&2
  exit 1
fi
echo "FIRST query: --domains 2 = --engine native ($(echo "$fnat" | grep -E '^[0-9]+ rows'))"

echo
echo "== CLI smoke test: run --spill-budget pushes breaker state to disk =="
sout=$(dune exec bin/olap_cli.exe -- run --flows 20000 --users 300 --spill-budget 64 \
  --engine unnest --metrics --limit 1 \
  "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)")
echo "$sout" | grep -E "exec\.spill"
echo "$sout" | grep -Eq "exec.spilled_bytes +[1-9][0-9]*" || {
  echo "FAIL: expected exec.spilled_bytes > 0 in --metrics after run --spill-budget" >&2
  exit 1
}

echo
echo "== bench smoke test: serve target gates serving-layer regressions =="
# The serve benchmark self-verifies (warm server answers == solo
# evaluation, steady-state detail scans per query < 1); on top of that,
# gate against the committed baseline: >10% worse on steady-state p99
# (plus 5ms absolute slack for wall-clock jitter in the measured
# evaluation times) or on steady-state detail scans per query fails.
dune exec bench/main.exe -- serve > /dev/null
python3 scripts/check_bench.py serve

echo
echo "== bench smoke test: ingest target gates delta-maintenance regressions =="
# The ingest benchmark self-gates (delta-maintained results == full
# recompute everywhere, every append delta-maintained, wall-clock
# speedup >= 5x at a 1% append ratio); on top of that, gate the
# staleness sweep against the committed baseline: any stale read fails
# outright, and per-cell p99 may not regress >25% (plus 100ms absolute
# slack — the sweep runs the server saturated, where queueing amplifies
# wall-clock jitter in the measured evaluation times).
dune exec bench/main.exe -- ingest > /dev/null
python3 scripts/check_bench.py ingest

echo
echo "== CLI smoke test: serve batches piped statements through one scan =="
serve_sql=$(mktemp /tmp/check_serve_XXXXXX.sql)
cat > "$serve_sql" <<'SQL'
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress);
SELECT u.UserName FROM User u
WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress
                  AND f.NumBytes > u.Quota);
SELECT u.UserName FROM User u
WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress)
SQL
sout=$(dune exec bin/olap_cli.exe -- serve --batch-window 0.05 < "$serve_sql")
rm -f "$serve_sql"
echo "$sout"
echo "$sout" | grep -q "batch of 3: 1 detail scans (naive 3)" || {
  echo "FAIL: expected serve to share 3 piped queries into 1 detail scan" >&2
  exit 1
}
echo "$sout" | grep -q "served 3 queries in 1 batches" || {
  echo "FAIL: expected the serve summary to report 3 queries in 1 batch" >&2
  exit 1
}
# The SQL tail is part of the served plan: a LIMIT answers 3 rows, not
# the 406 qualifying users.  A separate run keeps the batch above at 3.
lout=$(echo "SELECT u.UserName FROM User u WHERE EXISTS (SELECT * FROM Flow f \
  WHERE f.SourceIP = u.IPAddress) ORDER BY u.UserName LIMIT 3;" \
  | dune exec bin/olap_cli.exe -- serve --batch-window 0.05)
echo "$lout"
echo "$lout" | grep -q ": 3 rows" || {
  echo "FAIL: expected serve to answer the LIMIT 3 statement with 3 rows" >&2
  exit 1
}

echo
echo "== CLI smoke test: drive replays deterministic traffic =="
dout=$(dune exec bin/olap_cli.exe -- drive --queries 60 --rate 400 --outer 24 --inner 1000)
echo "$dout"
echo "$dout" | grep -q "latency p50" || {
  echo "FAIL: expected a latency summary line from drive" >&2
  exit 1
}

echo
echo "== CLI smoke test: ingest maintains cached results across appends =="
# Under both staleness policies, with TMPDIR a fresh directory: a temp
# file the run leaves behind there (subql_*) fails the check.
ingest_fail() {
  echo "FAIL: ingest --staleness $staleness: $1" >&2
  exit 1
}
ingest_tmp=$(mktemp -d /tmp/check_ingest_XXXXXX)
trap 'rm -f "$batch_sql"; rm -rf "$ingest_tmp"' EXIT
for staleness in on-write recompute; do
  iout=$(TMPDIR="$ingest_tmp" dune exec bin/olap_cli.exe -- ingest --flows 4000 --users 300 \
    --batches 3 --batch-rows 200 --staleness "$staleness")
  echo "$iout"
  echo "$iout" | grep -q "ingested 600 rows in 3 batches" \
    || ingest_fail "expected the summary to count 3 batches of 200 rows"
  case "$staleness" in
    recompute)
      # No repair: every append invalidates the entry, and every
      # post-append query evaluates again.
      [ "$(echo "$iout" | grep -c "maintenance deferred (recompute)")" = 3 ] \
        || ingest_fail "expected all 3 appends to defer maintenance"
      [ "$(echo "$iout" | grep -c "query: .*(evaluated)")" = 3 ] \
        || ingest_fail "expected all 3 post-append queries to evaluate"
      echo "$iout" | grep -q "cache repaired 0, invalidated 3" \
        || ingest_fail "expected 3 invalidations and no repair"
      ;;
    *)
      # The first append rebuilds the fold state; the next two fold
      # exactly their 200 rows.
      [ "$(echo "$iout" | grep -c "maintain: 0 delta (0 rows folded, 0 scan rows avoided), 1 recompute")" = 1 ] \
        || ingest_fail "expected the first append to recompute"
      [ "$(echo "$iout" | grep -c "maintain: 1 delta (200 rows folded")" = 2 ] \
        || ingest_fail "expected the later appends to fold exactly their rows"
      # Every post-append query must be answered from the repaired entry.
      [ "$(echo "$iout" | grep -c "query: .*cache hit")" = 3 ] \
        || ingest_fail "expected all 3 post-append queries to hit the repaired cache"
      ;;
  esac
  if ls "$ingest_tmp" | grep -q '^subql_'; then
    ingest_fail "left temp files behind: $(ls "$ingest_tmp")"
  fi
done
rm -rf "$ingest_tmp"

echo
echo "== CLI smoke test: drive interleaves ingest with live traffic =="
dout=$(dune exec bin/olap_cli.exe -- drive --queries 60 --rate 200 --outer 24 --inner 1000 \
  --ingest-rate 20 --ingest-batch 100)
echo "$dout"
echo "$dout" | grep -Eq "ingest: [1-9][0-9]* batches" || {
  echo "FAIL: expected interleaved append batches in the drive output" >&2
  exit 1
}
echo "$dout" | grep -q "completed 60" || {
  echo "FAIL: expected all 60 queries to complete under interleaved ingest" >&2
  exit 1
}
echo "$dout" | grep -Eq "repaired [1-9][0-9]*" || {
  echo "FAIL: expected on-write maintenance to repair cached results" >&2
  exit 1
}

echo
echo "== bench smoke test: codec target gates decode-specialization regressions =="
# The codec benchmark self-verifies (both decoders rebuild the
# source relation exactly); on top of that, the schema-specialized
# page decode must beat the reference decoder by the 1.3x acceptance
# floor, the [SourceIP; NumBytes] scan of the column-segmented pages
# must beat the full decode by 2.3x (the row-major layout read ~1.8x),
# and both must stay within 30% of the committed baseline.
dune exec bench/main.exe -- codec > /dev/null
python3 scripts/check_bench.py codec

echo
echo "== CLI smoke test: schema-gen output compiles and round-trips its catalog =="
# Emit typed modules for the netflow catalog into a scratch dune
# directory, compile them with warnings-as-errors, and run a round-trip
# over every generated table: of_tuple/to_tuple must be the identity on
# each stored row.
smoke_dir="scripts/schema_gen_smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
trap 'rm -f "$batch_sql"; rm -rf "$smoke_dir"' EXIT
dune exec bin/olap_cli.exe -- schema-gen --flows 500 --users 50 --out "$smoke_dir/netflow_gen.ml"
cat > "$smoke_dir/dune" <<'DUNE'
(executable
 (name smoke)
 (libraries subql_relational subql_workload subql_typed))
DUNE
cat > "$smoke_dir/smoke.ml" <<'ML'
(* Smoke for freshly emitted [schema-gen] modules: rebuild the catalog
   the modules were generated from and push every stored row through
   the generated of_tuple/to_tuple pair. *)
open Subql_relational

let () =
  let catalog =
    Subql_workload.Netflow.generate
      {
        Subql_workload.Netflow.default_config with
        Subql_workload.Netflow.n_flows = 500;
        n_users = 50;
        seed = 42L;
      }
  in
  let check name schema of_to =
    let rel = Catalog.find catalog name in
    assert (Schema.equal schema (Relation.schema rel));
    Relation.iter (fun t -> assert (Tuple.equal t (of_to t))) rel
  in
  check "Flow" Netflow_gen.Flow.schema (fun t -> Netflow_gen.Flow.(to_tuple (of_tuple t)));
  check "Hours" Netflow_gen.Hours.schema (fun t -> Netflow_gen.Hours.(to_tuple (of_tuple t)));
  check "User" Netflow_gen.User.schema (fun t -> Netflow_gen.User.(to_tuple (of_tuple t)));
  print_endline "schema-gen smoke: 3 generated modules round-trip their catalog"
ML
dune build "$smoke_dir/smoke.exe"
dune exec "$smoke_dir/smoke.exe"
rm -rf "$smoke_dir"

echo
echo "check.sh: OK"
