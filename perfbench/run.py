#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload olap-paper|serve-cached|serve-append \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/bench.exe with dune (the first run compiles the libraries),
runs it with the given arguments, and relays its output; the last line
is the JSON result.  Temporary heap files go to .perfbench_tmp/ in the
checkout and are removed afterwards; a traced run (--trace 1) writes its
spans as Chrome trace JSON to .perfbench_out/.  The result's metric
names are checked against BENCHMARK.json.  Exit status: 0 on success,
1 on a wrong answer or a malformed result, 2 when the checkout cannot
be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("olap-paper", "serve-cached", "serve-append")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no OCaml source tree (dune-project, lib/) next to perfbench/")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    # Build output goes to stderr so the result stays the last line of stdout.
    done = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def check_result(line, trace):
    """The result must hold exactly the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != names:
            return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(names))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    exe = build()
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        command += ["--spans", os.path.join(out, "spans-%s-%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, code=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("bench exited with status %d" % done.returncode, code=1)
    problem = check_result(lines[-1] if lines else "", args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(problem, code=1)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
