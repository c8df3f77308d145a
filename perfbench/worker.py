"""Runs one workload inside one fresh process and prints one JSON line.

Started by ``run.py`` with a clean environment; not meant to be run by
hand.  Modes:

- ``setup``: import, build contexts and inputs, report the set-up time.
- ``measure``: set up, then run the workload's fixed job repeatedly for
  about ``--seconds`` seconds (at least once), timing every operation and,
  alongside, the speed of the host (``HostSpeed``).
- ``once``: set up, run the job exactly once, untraced.
- ``traced``: set up, wrap the library (see ``tracer.py``), run the job
  exactly once and report per-layer metrics.
- ``record``: compute the answer digest of every input item.
"""

import time

SPAWNED_NS = time.monotonic_ns()  # overwritten by --spawned-ns when given

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_import_source():
    import labeled_thompson

    src = (ROOT / "src").resolve()
    if src not in Path(labeled_thompson.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: labeled_thompson imported from {labeled_thompson.__file__}, "
            f"not from {src}"
        )


# Reference work: a fixed piece of pure Python in the library's style (short
# strings, tuples, dicts, small-integer arithmetic and calls), about a
# millisecond long.
REF_STEPS = 500
# How often the timer interrupts a job to time the reference work.
SAMPLE_INTERVAL_S = 0.02
# An op's ref unit is the mean of the samples taken from WINDOW_S before it
# started to WINDOW_S after it ended, and of at least MIN_SAMPLES samples.
WINDOW_S = 0.5
MIN_SAMPLES = 20


def _step(total, i):
    return total + i * i % 7


def ref_work():
    seen = {}
    word = ""
    total = 0
    for i in range(REF_STEPS):
        word = (word + "01"[i & 1 ^ (i % 3 == 0)])[-12:]
        key = (word[:6], i % 7)
        seen[key] = seen.get(key, 0) + 1
        for j in range(4):
            total = _step(total, i + j)
    return len(seen), total


class HostSpeed:
    """Samples the speed of the host while a job runs.

    The shared host's speed drifts by tens of percent within seconds to
    minutes, for every kind of work alike.  A real-time timer interrupts
    the job every ``SAMPLE_INTERVAL_S`` and times ``ref_work`` in the
    signal handler.  The mean time of the reference work around an op is
    the op's time unit, a ``ref``: its latency (the handler's time taken
    out) divided by it is its latency with the host's speed divided out.
    """

    def __init__(self):
        self.times = []  # start of each sample
        self.cum = [0.0]  # cum[i]: total time of the first i samples

    @property
    def ref_s(self):
        return self.cum[-1]

    def sample(self, *_):
        t = time.perf_counter()
        ref_work()
        self.times.append(t)
        self.cum.append(self.cum[-1] + time.perf_counter() - t)

    def unit(self, start, end):
        """Mean sample time from WINDOW_S before start to WINDOW_S after end."""
        n = len(self.times)
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        while j - i < min(MIN_SAMPLES, n):
            i, j = max(0, i - 1), min(n, j + 1)
        return (self.cum[j] - self.cum[i]) / (j - i)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_job(ops, expected, host=None):
    """Run every op once and check the answers.

    Returns a dict with the job's ``wall`` time and the op ``latencies``,
    both without the time of the host samples taken meanwhile, the
    ``spans`` (start, end) of the ops, the ``failures`` and the answer
    ``digests``.  The host is sampled once before the first op.
    """
    from workloads import digest

    latencies = []
    spans = []
    answers = []
    failures = []
    clock = time.perf_counter
    host = host or HostSpeed()  # without a running timer: one sample per job
    host.sample()
    ref_start = host.ref_s
    start = clock()
    for op in ops:
        t = clock()
        ref_before = host.ref_s
        try:
            ok, answer = op.run(*op.args)
        except Exception as exc:  # an op that raises is a failed op
            ok, answer = False, f"raised {type(exc).__name__}: {exc}"
        end = clock()
        latencies.append(end - t - (host.ref_s - ref_before))
        spans.append((t, end))
        answers.append((op, ok, answer))
    wall = clock() - start - (host.ref_s - ref_start)
    digests = []
    for op, ok, answer in answers:
        d = digest(answer)
        digests.append(d)
        want = expected.get(op.item)
        if not ok:
            failures.append(f"{op.kind} {op.item}: answer check failed ({str(answer)[:200]})")
        elif want is None:
            failures.append(f"{op.kind} {op.item}: no recorded answer digest")
        elif d != want:
            failures.append(f"{op.kind} {op.item}: answer digest {d} != recorded {want}")
    return {
        "wall": wall,
        "latencies": latencies,
        "spans": spans,
        "failures": failures,
        "digests": digests,
    }


def load_expected(workload, profile):
    with open(HERE / "expected.json") as fh:
        return json.load(fh)[workload][profile]


def main():
    global SPAWNED_NS
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "once", "traced", "record"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--profile", default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spawned-ns", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    if args.spawned_ns is not None:
        SPAWNED_NS = args.spawned_ns

    import numpy  # part of the import cost every caller of the library pays

    check_import_source()
    import workloads

    if args.mode == "record":
        out = {}
        for op in workloads.build_ops(args.workload, args.profile):
            ok, answer = op.run(*op.args)
            if not ok:
                raise SystemExit(f"perfbench: answer check failed on {op.item}")
            out[op.item] = workloads.digest(answer)
        print(json.dumps({"digests": out}))
        return

    ops = workloads.build_ops(args.workload, args.profile, args.seed)
    expected = load_expected(args.workload, args.profile)
    setup_s = (time.monotonic_ns() - SPAWNED_NS) / 1e9
    result = {
        "setup_s": setup_s,
        "input_digest": workloads.input_digest(ops),
        "numpy": numpy.__version__,
        "ops_per_job": len(ops),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        for op in ops:
            op.run = tracer.wrap_op(op.kind, op.run)

    jobs = []
    latencies = []
    spans = []
    failures = []
    answers = None
    budget = args.seconds if args.mode == "measure" else 0.0
    host = HostSpeed()
    if args.mode == "measure":
        host.start()
    start = time.perf_counter()
    try:
        while True:
            job = run_job(ops, expected, host)
            jobs.append(job["wall"])
            latencies.extend(job["latencies"])
            spans.extend(job["spans"])
            failures.extend(job["failures"])
            if answers is None:
                # sorted by item, so the digest does not depend on the op order
                answers = sorted(zip((op.item for op in ops), job["digests"]))
            elapsed = time.perf_counter() - start
            if elapsed + max(jobs) > budget:
                break
    finally:
        host.stop()
    elapsed = time.perf_counter() - start
    latencies_ref = [lat / host.unit(*span) for lat, span in zip(latencies, spans)]
    n = len(ops)
    jobs_ref = [sum(latencies_ref[i : i + n]) for i in range(0, len(latencies_ref), n)]

    result.update(
        {
            "jobs": jobs,
            "jobs_ref": jobs_ref,
            "ref_samples": len(host.times),
            "ref_unit_s": host.ref_s / len(host.times),
            "ref_share": host.ref_s / elapsed,
            "latencies": latencies,
            "latencies_ref": latencies_ref,
            "attempted": len(latencies),
            "failures": failures,
            "answer_digest": workloads.digest(answers),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    if tracer:
        result["layers"] = tracer.metrics()
        result["self_check"] = tracer.self_check(args.workload)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
