#!/usr/bin/env python3
"""OMPC end-to-end + per-layer benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ompc_bench from source (once per checkout, in
$CARGO_TARGET_DIR or .bench_build), then runs repetitions of one workload
(or of each in turn with --workload all), each in its own process under a
30 s wall-clock timeout, until S seconds have passed and at least 3 have
run. Every repetition is checked against the workload's serial oracle; a
repetition that fails validation, throws, crashes or times out counts all
its waves as failed. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before it, each workload's block ends with one ungated context line,

    {"context": {"workload": ..., "host.steal_frac": ...,
                 "host.steal_frac_per_rep": [...], "elapsed_s": ..., ...}}

so a comparison of two runs can tell a noisy host from a slower program.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A traced run alternates untraced and
traced repetitions: the per-layer metrics come from the traced ones, the
difference between the two halves is the tracing overhead, and the spans are
written as one Chrome trace-event file under <build dir>/traces/.

Exit status: 0 when every repetition validated, 1 when any failed, 2 when
the benchmark could not be built or run at all (no result is printed then).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("taskbench_fft", "dispatch_waves", "halo3d_ft", "tenant_mix")
MIN_REPS = 3
# Three hanging repetitions end by 90 s (120 s after the FFT reference
# rows), so a run stays within 180 s.
REP_TIMEOUT_S = 30.0
# OMPC / Charm++ on Task Bench FFT, mean over node counts (paper Fig. 5).
PAPER_FFT_SPEEDUP = 1.61


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (first time) and builds ompc_bench; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "ompc_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "ompc_bench")


def run_rep(binary, args):
    """Runs one repetition; returns (result dict | None, planned waves)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
        why = "exit code %d" % proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        why = "timed out after %.0f s" % REP_TIMEOUT_S
    planned, result = 0, None
    for line in out.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "planned_waves" in obj:
            planned = obj["planned_waves"]
        else:
            result = obj
    if result is None:
        log("repetition failed (%s): %s" % (why, err.strip()[-400:]))
    elif not result["ok"]:
        log("repetition failed validation: " + result["error"])
    return result, planned


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def median(values):
    return percentile(values, 50)


def end_to_end(reps):
    """End-to-end metrics over successful repetitions. Host CPU steal only
    ever adds time, so the timed region is taken at its 10th percentile
    over the repetitions; set-up and memory are medians."""
    return {
        "makespan_s": percentile([r["makespan_s"] for r in reps], 10),
        "tasks_per_s": percentile([r["tasks"] / r["makespan_s"]
                                   for r in reps], 90),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(traced, plain):
    """Layer metrics: medians over the traced repetitions; wave latency
    percentiles over the untraced ones when there are any."""
    names = sorted({k for r in traced for k in r["layers"]})
    out = {n: median([r["layers"][n] for r in traced if n in r["layers"]])
           for n in names}
    waves = [w for r in (plain or traced) for w in r["wave_ms"]]
    out["runtime.wave_p50_ms"] = percentile(waves, 50)
    out["runtime.wave_p90_ms"] = percentile(waves, 90)
    out["runtime.wave_p99_ms"] = percentile(waves, 99)
    return out


def host_steal_counters():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_frac(before, after):
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


def merge_traces(paths, dest):
    events = []
    for p in paths:
        try:
            with open(p) as f:
                events.extend(json.load(f)["traceEvents"])
            os.remove(p)
        except (OSError, ValueError, KeyError):
            pass
    with open(dest, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def reference_rows(binary, a):
    """Sequential and Charm++-like runs of the FFT shape, or None."""
    cmd = [binary, "--reference", "--seed", str(a.seed)]
    if a.short:
        cmd.append("--short")
    try:
        ref = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("reference rows timed out")
        return None
    lines = ref.stdout.strip().splitlines()
    if ref.returncode != 0 or not lines:
        log("reference rows failed: " + ref.stderr.strip()[-400:])
        return None
    return json.loads(lines[-1])


def run_workload(a, workload, binary, e2e_units, layer_units):
    """Runs one workload for a.seconds, prints its block and returns
    (correct, attempted, failed, metrics)."""
    common = ["--workload", workload, "--seed", str(a.seed)]
    if a.short:
        common.append("--short")
    if a.wrong_oracle:
        common.append("--wrong-oracle")
    if a.inject:
        common += ["--inject", a.inject]

    reference = None
    if workload == "taskbench_fft":
        reference = reference_rows(binary, a)

    trace_dir = os.path.join(build_dir(), "traces")
    if a.trace:
        os.makedirs(trace_dir, exist_ok=True)
    run_start = host_steal_counters()
    plain, traced, trace_files, rep_steal = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    rep = 0
    while time.monotonic() - start < a.seconds or rep < MIN_REPS:
        traced_rep = bool(a.trace) and rep % 2 == 1
        args = common + ["--rep", str(rep),
                         "--trace", "1" if traced_rep else "0"]
        if traced_rep:
            path = os.path.join(trace_dir, "%s-seed%d-rep%d.json"
                                % (workload, a.seed, rep))
            args += ["--trace-out", path]
            trace_files.append(path)
        rep_start = host_steal_counters()
        result, planned = run_rep(binary, args)
        rep_steal.append(steal_frac(rep_start, host_steal_counters()))
        if result is None:
            attempted += planned or 1
            failed += planned or 1
        else:
            attempted += result["attempted"]
            failed += result["failed"]
            if result["ok"]:
                (traced if traced_rep else plain).append(result)
        rep += 1
    steal = steal_frac(run_start, host_steal_counters())

    trace_path = None
    if trace_files:
        trace_path = os.path.join(trace_dir, "%s-seed%d.trace.json"
                                  % (workload, a.seed))
        merge_traces(trace_files, trace_path)

    ok_reps = plain + traced
    correct = failed == 0 and bool(ok_reps) and (not a.trace or bool(traced))
    print("workload %s  seed %d  repetitions %d (%d traced)  waves %d  "
          "failed %d  error_rate %.4f"
          % (workload, a.seed, rep, len(traced), attempted, failed,
             failed / max(attempted, 1)))
    metrics = {}
    if ok_reps:
        e2e = end_to_end(plain or traced)
        for name, unit in e2e_units.items():
            print("  %-40s %14.6g %s" % (name, e2e[name], unit))
        cpu_us = median([r["layers"]["process.cpu_us_per_task"]
                         for r in ok_reps])
        elapsed = median([r["elapsed_s"] for r in plain or traced])
        print("  context: host.steal_frac %.4f  process.cpu_us_per_task %.2f"
              "  elapsed_s %.6g" % (steal, cpu_us, elapsed))
        if reference and reference["ok"]:
            charm = reference["charm_s"]
            print("  reference (same FFT shape, no jitter): sequential %.4f s,"
                  " Charm++-like %.4f s; OMPC / Charm++ speedup %.2fx"
                  " (paper Fig. 5 FFT: %.2fx)"
                  % (reference["sequential_s"], charm,
                     charm / elapsed, PAPER_FFT_SPEEDUP))
        if a.trace and traced and plain:
            on = end_to_end(traced)
            print("  tracing overhead (traced - untraced median):")
            for name, unit in e2e_units.items():
                print("    %-38s %+14.6g %s"
                      % (name, on[name] - e2e[name], unit))
        if a.trace and traced:
            layers = per_layer(traced, plain)
            for name, unit in layer_units.items():
                print("  %-40s %14.6g %s"
                      % (name, layers.get(name, 0.0), unit))
            print("  span self time per repetition (ms):")
            for name in sorted(traced[0]["spans"]):
                tot = median([r["spans"].get(name, {}).get("total_ms", 0.0)
                              for r in traced])
                slf = median([r["spans"].get(name, {}).get("self_ms", 0.0)
                              for r in traced])
                print("    %-12s total %12.3f  self %12.3f" % (name, tot, slf))
            if trace_path:
                print("  chrome trace: " + os.path.relpath(trace_path, ROOT))
            metrics = {n: {"value": layers.get(n, 0.0), "unit": u}
                       for n, u in layer_units.items()}
        elif not a.trace:
            metrics = {n: {"value": e2e[n], "unit": u}
                       for n, u in e2e_units.items()}
    context = {"workload": workload, "host.steal_frac": steal,
               "host.steal_frac_per_rep": rep_steal}
    if ok_reps:
        context["process.cpu_us_per_task"] = cpu_us
        context["elapsed_s"] = elapsed
    print(json.dumps({"context": context}))
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small inputs (smoke test)")
    ap.add_argument("--wrong-oracle", action="store_true",
                    help="check against a deliberately wrong oracle")
    ap.add_argument("--inject", choices=("hang", "throw"),
                    help="make every repetition hang or throw")
    a = ap.parse_args()

    try:
        e2e_units, layer_units = load_spec()
        binary = build()
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        log("cannot set up the benchmark: %s" % e)
        return 2

    every = a.workload == "all"
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS if every else (a.workload,):
        ok, att, fail, met = run_workload(a, w, binary, e2e_units,
                                          layer_units)
        correct = correct and ok
        attempted += att
        failed += fail
        # With "all", metrics are keyed workload/metric.
        metrics.update({(w + "/" if every else "") + n: v
                        for n, v in met.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
