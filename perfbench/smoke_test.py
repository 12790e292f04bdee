#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few minutes on 4 cores).

    python3 perfbench/smoke_test.py

Checks, on the short mode of every workload, that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, non-zero, and validates (error_rate 0), with the host steal
    and elapsed_s on the JSON context line before the result;
  * a traced run prints every per-layer metric with its unit and writes a
    Chrome trace-event file that parses;
  * a run checked against a deliberately wrong oracle counts its waves as
    failed and exits non-zero;
and, on one workload, that a hanging repetition is killed by the timeout and
a throwing one is counted as failed, and that the command fails without
printing a result where only BENCHMARK.json and perfbench/ exist.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (build_dir, WORKLOADS, MIN_REPS)

failures = []


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, *extra, env=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--short"] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result, p.stdout


def context_line(out):
    """The ungated context object printed just before the result line."""
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-2])["context"]
    except (IndexError, ValueError, KeyError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs")

    for w in run.WORKLOADS:
        code, res, out = bench(w, "--trace", "0")
        ok = code == 0 and res is not None and res["correct"] \
            and res["failed"] == 0 and res["attempted"] > 0
        check(ok, "%s: untraced run validates" % w)
        if res:
            got = res["metrics"]
            check(set(got) == set(e2e) and all(
                got[n]["unit"] == u and got[n]["value"] > 0
                for n, u in e2e.items()),
                "%s: every end-to-end metric, with unit, non-zero" % w)
        ctx = context_line(out)
        check(ctx is not None and ctx["workload"] == w
              and 0.0 <= ctx["host.steal_frac"] <= 1.0
              and len(ctx["host.steal_frac_per_rep"]) >= run.MIN_REPS
              and ctx["elapsed_s"] > 0,
              "%s: host steal and elapsed_s printed as JSON before the result"
              % w)

        code, res, out = bench(w, "--trace", "1")
        check(code == 0 and res is not None and res["correct"],
              "%s: traced run validates" % w)
        if res:
            got = res["metrics"]
            check(set(got) == set(layers) and all(
                got[n]["unit"] == u for n, u in layers.items()),
                "%s: every per-layer metric, with unit" % w)
        trace = os.path.join(run.build_dir(), "traces",
                             "%s-seed7.trace.json" % w)
        try:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            check(any(e["name"] == "rep" for e in events),
                  "%s: Chrome trace written" % w)
        except (OSError, ValueError, KeyError):
            check(False, "%s: Chrome trace written" % w)
        check("tracing overhead" in out, "%s: tracing overhead printed" % w)

        code, res, _ = bench(w, "--trace", "0", "--wrong-oracle")
        check(code != 0 and res is not None and not res["correct"]
              and res["failed"] > 0,
              "%s: wrong oracle counts in error_rate" % w)

    code, res, _ = bench("dispatch_waves", "--trace", "0", "--inject", "hang")
    check(code != 0 and res is not None and res["failed"] == res["attempted"]
          and res["attempted"] > 0, "a hanging repetition times out as failed")
    code, res, _ = bench("halo3d_ft", "--trace", "0", "--inject", "throw")
    check(code != 0 and res is not None and res["failed"] > 0,
          "a throwing repetition counts as failed")

    bare = os.path.join(run.build_dir(), "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, res, _ = bench("dispatch_waves", "--trace", "0", env=env, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
    check(code != 0 and res is None,
          "without the sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
