#!/usr/bin/env python3
"""Benchmark of labeled_thompson: end-to-end metrics, per-layer traces, answer checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload products-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --smoke          # seconds, not minutes
    python3 perfbench/run.py --record                        # re-record expected.json

Every workload runs in fresh single-threaded processes with a clean
environment (``worker.py``), one closed-loop caller with nothing else
running.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the job once untraced and once traced and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run's provenance.

Every operation's answer is checked, and its digest is compared with the
one recorded in ``expected.json``.  A failed operation is one that raises,
or whose answer check or digest check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("products-large", "certify-small", "dlink", "matching-homology")
# set-up is timed in this many fresh processes per run (the measuring one
# included) and reported as their median
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # per workload; a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "peak_rss_mb": "MB",
}
# printed besides, with --workload all: the same times in plain seconds and
# milliseconds, which carry the host's drift
RAW_TIMES = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


class RunError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_density")) or "_per_" in name:
        return "ratio"
    return "count"


def clean_env() -> dict:
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def spawn(mode: str, workload: str, args, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process and return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"{workload}: out of time before the {mode} process")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload",
        workload,
        "--profile",
        args.profile,
        "--seed",
        str(args.seed),
        *extra,
        "--spawned-ns",
        str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=clean_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: {mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{workload}: {mode} process failed\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all the order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) density over their
    ranks.  Unlike one or two order statistics it does not jump when noise
    swaps two ops on either side of a gap in the latency distribution."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per rank interval; the weights are normalised below
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def per_op_medians(latencies: list[float], ops_per_job: int) -> list[float]:
    """Each op's median latency over the jobs of a run (the jobs run the ops
    in the same order).  The op percentiles are taken over these, so a
    garbage collection or a host hiccup inside one copy of an op does not
    move them."""
    return [statistics.median(latencies[i::ops_per_job]) for i in range(ops_per_job)]


def measure(workload: str, args) -> dict:
    """End-to-end metrics of one workload (tracing off)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn("setup", workload, args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn("measure", workload, args, deadline, "--seconds", str(args.seconds))
    problems = [f"{workload}: {f}" for f in res["failures"]]
    if any(s["input_digest"] != res["input_digest"] for s in setups):
        problems.append(f"{workload}: set-up processes built different inputs")
    lat_ref = per_op_medians(res["latencies_ref"], res["ops_per_job"])
    lat_ms = per_op_medians([x * 1000 for x in res["latencies"]], res["ops_per_job"])
    metrics = {
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [res["setup_s"]]),
        "wall_ref": statistics.median(res["jobs_ref"]),
        "op_p50_ref": percentile(lat_ref, 50),
        "op_p90_ref": percentile(lat_ref, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = {
        "wall_s": statistics.median(res["jobs"]),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
    }
    return {
        "metrics": metrics,
        "raw": raw,
        "units": {**END_TO_END, **RAW_TIMES},
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "problems": problems,
        "numpy": res["numpy"],
        "provenance": {
            "jobs": len(res["jobs"]),
            "ops_per_job": res["ops_per_job"],
            "op_samples": len(res["latencies"]),
            "setup_samples": SETUP_SAMPLES,
            "ref_samples": res["ref_samples"],
            "ref_share": round(res["ref_share"], 4),
            "ref_unit_ms": round(1000 * res["ref_unit_s"], 6),
            **{name: round(value, 6) for name, value in raw.items()},
            "input_digest": res["input_digest"],
            "answer_digest": res["answer_digest"],
        },
    }


def trace(workload: str, args) -> dict:
    """Per-layer metrics of one workload: the job once untraced, once traced."""
    deadline = time.monotonic() + RUN_LIMIT_S
    once = spawn("once", workload, args, deadline)
    out = HERE / "out" / f"trace-{workload}-{args.profile}-seed{args.seed}.json"
    traced = spawn("traced", workload, args, deadline, "--trace-out", str(out))
    problems = [f"{workload}: {f}" for f in once["failures"] + traced["failures"]]
    if traced["answer_digest"] != once["answer_digest"]:
        problems.append(f"{workload}: traced answers differ from untraced answers")
    if traced["self_check"]:
        problems.append(f"{workload}: traced run never reached {traced['self_check']}")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["jobs"][0] - once["jobs"][0]
    return {
        "metrics": metrics,
        "units": {name: layer_unit(name) for name in metrics},
        "attempted": once["attempted"] + traced["attempted"],
        "failed": len(once["failures"]) + len(traced["failures"]),
        "problems": problems,
        "numpy": traced["numpy"],
        "provenance": {
            "jobs": 2,
            "ops_per_job": traced["ops_per_job"],
            "untraced_wall_s": once["jobs"][0],
            "traced_wall_s": traced["jobs"][0],
            "trace_file": str(out.relative_to(ROOT)),
            "input_digest": traced["input_digest"],
            "answer_digest": traced["answer_digest"],
        },
    }


def git_state() -> tuple:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(dirty)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "labeled_thompson").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args) -> int:
    """Recompute the answer digest of every input item into expected.json."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for profile in ("full", "smoke"):
            args.profile = profile
            res = spawn("record", workload, args, time.monotonic() + 3600)
            table[workload][profile] = res["digests"]
            print(f"recorded {workload}/{profile}: {len(res['digests'])} items", flush=True)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    ap.add_argument("--record", action="store_true", help="re-record expected.json")
    args = ap.parse_args(argv)
    args.profile = "smoke" if args.smoke else "full"

    if not (ROOT / "src" / "labeled_thompson" / "__init__.py").is_file():
        print(f"perfbench: no labeled_thompson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        if args.record:
            return record(args)
        for workload in names:
            results[workload] = (trace if args.trace else measure)(workload, args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    sha, dirty = git_state()
    prov = {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "numpy": next(iter(results.values()))["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "trace": args.trace,
        "workloads": {w: r["provenance"] for w, r in results.items()},
    }
    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(names) == 1 else f"{workload}/"
        shown = dict(res["metrics"])
        if len(names) > 1:
            shown.update(res.get("raw", {}))
            shown["fail_frac"] = res["failed"] / res["attempted"]
        for name, value in shown.items():
            unit = res["units"].get(name, "ratio")
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"{prefix}{name} = {value:.6g} {unit}")
        for problem in res["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = not any(r["problems"] for r in results.values())
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
