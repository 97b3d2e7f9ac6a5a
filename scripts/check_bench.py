#!/usr/bin/env python3
"""Gate a bench or analyzer JSON report against floors and its baseline.

Usage: python3 scripts/check_bench.py TARGET [REPORT]

TARGET is one of the keys of GATES.  REPORT defaults to BENCH_<TARGET>.json;
targets with a committed baseline compare against
bench/BENCH_<TARGET>.baseline.json.  Every gate is one row of the table: the
key it reads, the comparison, and what the value is compared with — a
constant, the baseline's value for the same key (scaled, plus absolute
slack), or another key of the same report.  The first failing row prints
its message and exits non-zero; otherwise the target's summary line is
printed.
"""
import json
import sys


def row(key, op, ref=None, msg="", each=None, match=None, when=None, skip=None, where=None):
    """One gate.

    key    dotted path into the report (into each element, with [each]);
    op     comparison: true (is True), has (present), truthy, number,
           ==, !=, <, <=, >=, len>=;
    ref    ("const", v) | ("base", scale, slack) | ("key", path, scale);
           ("base", ...) reads [key] from the baseline;
    each   dotted path of a list: the row applies to every element;
    match  fields identifying an element in the baseline's list
           (elements without a baseline counterpart are skipped);
    when   (key, op, const) precondition; if it fails, [skip] is printed;
    where  predicate on the elements of a list value: only those it holds
           for are compared (e.g. counted by len>=).
    """
    return dict(key=key, op=op, ref=ref, msg=msg, each=each, match=match, when=when, skip=skip,
                where=where)


def const(v):
    return ("const", v)


def base(scale=1.0, slack=0.0):
    return ("base", scale, slack)


def key(path, scale=1.0):
    return ("key", path, scale)


def maintainable(report):
    """An analyzer report whose plan carries no ING (delta-maintainability) code."""
    return not any(d["code"].startswith("ING") for d in report["analysis"])


GATES = {
    "analyze": dict(
        baseline=False,
        rows=[
            row("", "len>=", const(20), "expected a report per zoo template, got {count}"),
            *[
                row(k, "has", msg="analyze --json report missing key %r" % k, each="")
                for k in ("label", "errors", "warnings", "diagnostics")
            ],
            row("errors", "==", const(0), "template {item[label]!r} has error diagnostics",
                each=""),
        ],
        summary=lambda f, b: "analyze --json: %d reports, all error-free" % len(f),
    ),
    "certify": dict(
        baseline=False,
        rows=[
            row("", "len>=", const(20), "expected a certificate per zoo template, got {count}"),
            row("", "len>=", const(18),
                "only {count} templates are delta-maintainable on their served plan (no ING "
                "code), expected every single-GMDJ template: at least 18", where=maintainable),
            row("certified_errors", "==", const(0), "template {item[label]!r} fails certification",
                each=""),
            row("certificate", "truthy", msg="template {item[label]!r} has no certificate",
                each=""),
            row("certificate.bound", "number",
                msg="template {item[label]!r} certified bound is not finite ({value!r})",
                each=""),
        ],
        summary=lambda f, b: (
            "analyze --certify: %d templates, all certified with finite bounds (max %.0f rows), "
            "%d delta-maintainable"
            % (len(f), max(c["certificate"]["bound"] for c in f),
               len([c for c in f if maintainable(c)]))
        ),
    ),
    "mqo": dict(
        baseline=False,
        rows=[
            *[
                row(k, "has", msg="BENCH_mqo.json missing key %r" % k)
                for k in ("benchmark", "solo", "cold", "warm", "verified")
            ],
            row("verified", "true", msg="BENCH_mqo.json reports verified != true"),
            row("cold.detail_scans", "<", key("solo.detail_scans"),
                "shared batch did not reduce detail scans"),
        ],
        summary=lambda f, b: "BENCH_mqo.json: well-formed, verified, scans %d -> %d"
        % (f["solo"]["detail_scans"], f["cold"]["detail_scans"]),
    ),
    "exec": dict(
        baseline=True,
        rows=[
            row("verified", "true", msg="BENCH_exec.json reports verified != true"),
            *[
                row(k, "<=", base(1.1), "%s regressed >10%%: {base} -> {value}" % k)
                for k in ("peak_rows", "peak_rows_2x", "chained_page_reads",
                          "coalesced_page_reads")
            ],
            row("theta_evals", "<=", key("detail_rows"),
                "{item[template]}: {value} θ-evals for {limit:.0f} detail rows — a [<=>] key "
                "fell back to per-pair tests", each="theta_counts"),
            row("detail_rows", "<=", key("inner_rows"),
                "{item[template]} at O {item[outer_rows]}: {value} detail rows for {limit:.0f} "
                "rows of I and J — the inner GMDJ ran over the push-down product, not its "
                "distinct keys", each="theta_counts"),
            row("peak_rows", "<=", base(1.1),
                "{item[template]} at O {item[outer_rows]}: peak regressed >10%: {base} -> "
                "{value} rows", each="theta_counts", match=("template", "outer_rows")),
            row("group_by_vs_gmdj.verified", "true",
                msg="GROUP BY and the GMDJ fold over the same Flow rows disagree"),
            row("group_by_vs_gmdj.ratio", "number",
                msg="BENCH_exec.json has no GROUP BY vs GMDJ timing (group_by_vs_gmdj.ratio)"),
            row("group_by_vs_gmdj.ratio", "<=", const(1.2),
                "GROUP BY took {value:.2f}x the GMDJ fold over the same rows (limit 1.2x)"),
            row("keyed_probes.verified", "true",
                msg="the Fig. 3 fold over the Flow heap file disagrees with the in-memory fold"),
            row("keyed_probes.key_probes", "<=", key("keyed_probes.bound"),
                "the Fig. 3 fold made {value} key probes, over the {limit:.0f} distinct codes + "
                "pages of its Flow heap file: it looked up rows, not codes"),
            row("keyed_probes.rows_materialized", "==", const(0),
                "the Fig. 3 fold built {value} rows from its Flow chunks' column vectors: it "
                "read rows, not the codes and the int vector"),
        ],
        summary=lambda f, b: (
            "BENCH_exec.json: verified, peak %d rows (2x detail: %d), page reads %d chained / "
            "%d coalesced, θ-evals <= detail rows <= |I| + |J| on %d template runs, "
            "GROUP BY %.1f ms = %.2fx the GMDJ fold, Fig. 3 fold %d key probes <= %d, "
            "%d rows built"
            % (f["peak_rows"], f["peak_rows_2x"], f["chained_page_reads"],
               f["coalesced_page_reads"], len(f["theta_counts"]),
               f["group_by_vs_gmdj"]["group_by_ms"], f["group_by_vs_gmdj"]["ratio"],
               f["keyed_probes"]["key_probes"], f["keyed_probes"]["bound"],
               f["keyed_probes"]["rows_materialized"])
        ),
    ),
    "par": dict(
        baseline=True,
        rows=[
            row("verified", "true", msg="BENCH_par.json reports verified != true"),
            row("speedup_4", ">=", const(2.5),
                "4-domain speedup {value:.2f}x < 2.5x on a {doc[cores]}-core machine",
                when=("cores", ">=", 4),
                skip="speedup gate skipped: only {doc[cores]} core(s) recommended, "
                "measured {doc[speedup_4]:.2f}x at 4 domains"),
            row("spilled_rows_10x", "!=", const(0), "the 10x-detail run never spilled"),
            row("peak_rows_10x", "<=", key("peak_rows_1x", 1.2),
                "spilling peak grew with the detail: {doc[peak_rows_1x]} -> {value} rows"),
            row("peak_rows_10x", "<=", base(1.1),
                "10x-detail peak regressed >10% vs baseline: {base} -> {value} rows"),
        ],
        summary=lambda f, b: (
            ("speedup: %.2fx at 4 domains (%d cores)\n" % (f["speedup_4"], f["cores"])
             if f["cores"] >= 4 else "")
            + "BENCH_par.json: verified, 10x-detail peak %d rows (1x: %d), %d rows spilled"
            % (f["peak_rows_10x"], f["peak_rows_1x"], f["spilled_rows_10x"])
        ),
    ),
    "serve": dict(
        baseline=True,
        rows=[
            row("verified", "true", msg="BENCH_serve.json reports verified != true"),
            row("steady_scans_per_query_max", "<", const(1.0),
                "steady-state detail scans per query >= 1 ({value:.3f})"),
            row("steady.scans_per_query", "<=", base(1.0, 0.05),
                "steady scans/query regressed at rate {item[rate]:.0f}: {base:.3f} -> {value:.3f}",
                each="rates", match=("rate",)),
            row("steady.p99_ms", "<=", base(1.1, 5.0),
                "steady p99 regressed >10% at rate {item[rate]:.0f}: {base:.1f}ms -> "
                "{value:.1f}ms (limit {limit:.1f}ms)",
                each="rates", match=("rate",)),
        ],
        summary=lambda f, b: "BENCH_serve.json: verified, steady scans/query %.3f, steady p99 %s"
        % (f["steady_scans_per_query_max"],
           ", ".join("%.1fms@%.0f/s" % (r["steady"]["p99_ms"], r["rate"]) for r in f["rates"])),
    ),
    "ingest": dict(
        baseline=True,
        rows=[
            row("verified", "true", msg="BENCH_ingest.json reports verified != true"),
            row("headline.all_delta", "true", msg="headline appends fell back to recompute"),
            row("headline.speedup", ">=", const(5.0),
                "delta maintenance speedup {value:.1f}x < 5x at append ratio "
                "{doc[headline][append_ratio]:.0%}"),
            row("fresh", "true",
                msg="stale read under policy {item[policy]} at ingest multiplier "
                "{item[ingest_multiplier]}",
                each="staleness.cells"),
            row("p99_ms", "<=", base(1.25, 100.0),
                "p99 regressed under {item[policy]} x{item[ingest_multiplier]}: {base:.1f}ms -> "
                "{value:.1f}ms (limit {limit:.1f}ms)",
                each="staleness.cells", match=("policy", "ingest_multiplier")),
        ],
        summary=lambda f, b: (
            "BENCH_ingest.json: verified, delta speedup %.1fx wall / %.1fx rows, "
            "%d staleness cells all fresh"
            % (f["headline"]["speedup"], f["headline"]["rows_speedup"],
               len(f["staleness"]["cells"]))
        ),
    ),
    "codec": dict(
        baseline=True,
        rows=[
            row("verified", "true", msg="BENCH_codec.json reports verified != true"),
            row("speedup", ">=", const(1.3),
                "specialized decode speedup {value:.2f}x < 1.3x floor"),
            row("speedup", ">=", base(0.7),
                "speedup regressed >30% vs baseline: {base:.2f}x -> {value:.2f}x"),
            row("pruned_speedup", "number",
                msg="BENCH_codec.json has no column-pruned scan row (pruned_speedup)"),
            row("pruned_speedup", ">=", const(2.3),
                "column-pruned Flow scan {value:.2f}x < 2.3x the full decode"),
            row("pruned_speedup", ">=", base(0.7),
                "pruned speedup regressed >30% vs baseline: {base:.2f}x -> {value:.2f}x"),
        ],
        summary=lambda f, b: "BENCH_codec.json: verified, specialized decode %.2fx vs generic "
        "(baseline %.2fx), [SourceIP; NumBytes] scan %.2fx vs full (baseline %.2fx)"
        % (f["speedup"], b["speedup"], f["pruned_speedup"], b["pruned_speedup"]),
    ),
}

MISSING = object()


def get(doc, path):
    for seg in path.split(".") if path else []:
        if not isinstance(doc, dict) or seg not in doc:
            return MISSING
        doc = doc[seg]
    return doc


def compare(op, value, ref):
    if op == "true":
        return value is True
    if op == "has":
        return value is not MISSING
    if op == "truthy":
        return value is not MISSING and bool(value)
    if op == "number":
        return isinstance(value, (int, float))
    if op == "len>=":
        return len(value) >= ref
    return {
        "==": lambda: value == ref,
        "!=": lambda: value != ref,
        "<": lambda: value < ref,
        "<=": lambda: value <= ref,
        ">=": lambda: value >= ref,
    }[op]()


def fail(message):
    sys.exit("FAIL: " + message)


def check_row(r, fresh, baseline, item, base_item):
    value = get(item, r["key"])
    if r["where"]:
        value = [x for x in value if r["where"](x)]
    base_value = limit = None
    kind = r["ref"][0] if r["ref"] else None
    if kind == "const":
        limit = r["ref"][1]
    elif kind == "base":
        _, scale, slack = r["ref"]
        base_value = get(base_item, r["key"])
        limit = base_value * scale + slack
    elif kind == "key":
        _, path, scale = r["ref"]
        ref_value = get(item, path)
        if ref_value is MISSING:
            fail("%s: report has no %r to compare %r with" % (r["each"] or "report", path, r["key"]))
        limit = ref_value * scale
    if not compare(r["op"], value, limit):
        count = len(value) if isinstance(value, (list, dict)) else None
        fail(
            r["msg"].format(
                value=value, count=count, base=base_value, limit=limit, item=item, doc=fresh
            )
        )


def run(target, report):
    gate = GATES[target]
    with open(report) as f:
        fresh = json.load(f)
    baseline = None
    if gate["baseline"]:
        with open("bench/BENCH_%s.baseline.json" % target) as f:
            baseline = json.load(f)
    for r in gate["rows"]:
        if r["when"]:
            k, op, v = r["when"]
            if not compare(op, get(fresh, k), v):
                print(r["skip"].format(doc=fresh))
                continue
        if r["each"] is None:
            check_row(r, fresh, baseline, fresh, baseline)
            continue
        base_items = get(baseline, r["each"]) if baseline is not None else []
        for item in get(fresh, r["each"]):
            base_item = None
            if r["match"]:
                ident = tuple(item[m] for m in r["match"])
                base_item = next(
                    (b for b in base_items if tuple(b[m] for m in r["match"]) == ident), None
                )
                if base_item is None:
                    continue
            check_row(r, fresh, baseline, item, base_item)
    print(gate["summary"](fresh, baseline))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in GATES:
        sys.exit("usage: check_bench.py {%s} [REPORT]" % ",".join(GATES))
    target = sys.argv[1]
    run(target, sys.argv[2] if len(sys.argv) == 3 else "BENCH_%s.json" % target)
