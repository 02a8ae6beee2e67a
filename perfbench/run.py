"""acckit benchmark: closed-loop workloads driven through acckit's public
entry points, with a correctness gate on every operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-concat --seed 1 \
        --seconds 20 --trace 0

The workloads, metrics and bounds are listed in ``BENCHMARK.json`` at the
root; the workloads themselves are in ``workloads.py``.  With ``--trace 0``
the run measures the end-to-end metrics untraced.  With ``--trace 1`` it
wraps acckit's public functions (``spans.py``), traces the set-up and one
pass, reports the per-layer metrics, alternates untraced and traced passes
of the same inputs to report the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last line of standard output is the result
object; the line before it records the environment and the figures behind
the metrics.  acckit is imported from the checkout's ``src/`` only; without
it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import time

# setup_s runs from here, before any other import, to the first timed call.
T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is timed in the run itself and in this many fresh processes more;
# setup_s is the median of all of them.  One sample a run spread by up to
# 0.43 of its median over ten seeds on a 2-vCPU host; the median of five
# stayed within 0.22.  The children repeat the run's own set-up, whose
# checks the run has already gated, so they are not counted as operations.
SETUP_CHILDREN = 4


def parse_args(argv, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and exit (used internally)")
    return p.parse_args(argv)


def load_acckit():
    if not (SRC / "acckit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no acckit sources under {SRC}; run "
                         "from the root of an acckit checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("ACCKIT_FIXTURES", None)
    import acckit
    if Path(acckit.__file__).resolve().parent != (SRC / "acckit").resolve():
        raise SystemExit(f"perfbench: imported acckit from {acckit.__file__},"
                         f" not from {SRC}")


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "seed": seed}


def setup_in_child(args) -> float:
    """Set-up seconds of a fresh `--setup-only` process; raises if the
    process fails, so the run ends without a result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, gate, seconds):
    """Closed loop: passes back to back until another pass would overrun."""
    from workloads import NullTracer
    passes, took, start = [], [], time.perf_counter()
    while True:
        gc.collect()
        t = time.perf_counter()
        passes.append(wl.run_pass(len(passes), gate, NullTracer()))
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return passes


def end_to_end(args, wl, gate, setup_s):
    passes = run_passes(wl, gate, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_in_child(args)
                          for _ in range(SETUP_CHILDREN)]
    op_s = [dt for ops in passes for label, dt in ops
            if not (wl.heavy_apart and label == wl.heavy)]
    heavy = [dt for ops in passes for label, dt in ops if label == wl.heavy]
    pass_s = [sum(dt for _, dt in ops) for ops in passes]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_s),
        "heavy_op_s": statistics.median(heavy),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p99_ms": statistics.quantiles(op_s, n=100,
                                          method="inclusive")[98] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": (gate.attempted - gate.failed) / gate.attempted,
    }
    detail = {"passes": len(passes), "op_samples": len(op_s),
              "heavy_op": wl.heavy, "heavy_op_samples": len(heavy),
              "pass_s_samples": pass_s, "setup_s_samples": setups,
              "fail_ratio": gate.failed / gate.attempted,
              # the workload's own names for its generic metrics
              **{alias: values[m] for alias, m in wl.aliases.items()}}
    return values, detail


def per_layer(args, wl, gate, tracer, spec):
    """Alternate an untraced and a traced pass over the same inputs; the
    per-layer figures come from the traced set-up and the first traced pass
    only, so their counts depend on the seed alone."""
    from spans import Tracer
    from workloads import NullTracer
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        untraced.append(sum(dt for _, dt in
                            wl.run_pass(0, gate, NullTracer())))
        gc.collect()
        rec = tracer if not traced else Tracer()
        with rec.installed():
            traced.append(sum(dt for _, dt in wl.run_pass(0, gate, rec)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > args.seconds:
            break
    totals = tracer.totals()
    values = {"bench.trace_overhead_s":
              statistics.median(traced) - statistics.median(untraced)}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        agg = totals.get(span, {"s": 0.0, "self_s": 0.0, "counts": {}})
        counts = agg["counts"]
        if stat in ("s", "self_s"):
            values[name] = agg[stat]
        elif stat.endswith("_per_s"):
            work = counts.get(stat.removesuffix("_per_s"), 0)
            values[name] = work / agg["s"] if agg["s"] else 0.0
        elif stat == "hit_ratio":
            cand = counts.get("candidates", 0)
            values[name] = counts.get("users", 0) / cand if cand else 0.0
        else:
            values[name] = counts.get(stat, 0)
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "spans": len(tracer.spans),
              "calls": {k: v["calls"] for k, v in sorted(totals.items())}}
    return values, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["run_seconds"])
    load_acckit()
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    gate = workloads.Gate(log=sys.stderr)
    try:
        if args.setup_only:
            wl.setup(args.seed, run_dir, gate)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0 if gate.failed == 0 else 1
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                wl.setup(args.seed, run_dir, gate)
            values, detail = per_layer(args, wl, gate, tracer, spec)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_path, {"workload": args.workload,
                                     "seed": args.seed})
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            metrics = spec["per_layer"]
        else:
            wl.setup(args.seed, run_dir, gate)
            values, detail = end_to_end(args, wl, gate,
                                        time.perf_counter() - T0)
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(json.dumps({"workload": args.workload, "why": why[args.workload],
                      "trace": args.trace, "seconds": args.seconds,
                      "environment": environment(args.seed), **detail,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "problems": gate.problems[:20]}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
