"""troplab benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload max-certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; troplab is imported from its
`src/`.  With `--trace 0` the run measures whole passes over the
workload's operations for about `--seconds` seconds (at least one pass)
and prints the end-to-end metrics, scaled to a reference CPU speed
that a probe samples during the run.  With `--trace 1` it makes one
untraced and one traced pass, prints the per-layer metrics and writes
the spans to `perfbench/out/`.  Every operation's output is checked; a
failed check or an exception counts in `failed` and does not stop the
run.  The last line of standard output is the JSON result.  README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("max-certify", "min-dp", "greedy-race")
SETUP_ROUNDS = 10  # imports and input builds per run, at least; setup_s adds their means
PROBE_PERIOD_S = 0.1       # the speed probe samples ten times a second
REFERENCE_PROBE_S = 0.002  # probe time at the reference speed that times are scaled to
OWN_SCALE_SAMPLES = 3      # probe samples an operation needs to be scaled by its own
NOTE = ("shared machine: other tenants load the same cores, and kernel and "
        "cgroup settings are off-limits, so the run cannot be isolated")


def _load_workloads() -> dict:
    """Import troplab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import troplab
    import workloads

    if Path(troplab.__file__).resolve().parent != ROOT / "src" / "troplab":
        raise SystemExit(f"troplab imported from {troplab.__file__}, not from this checkout")
    return workloads.WORKLOADS


def _import_seconds() -> float:
    """Mean time to import troplab in a fresh interpreter."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import troplab; print(time.perf_counter() - start)")
    times = [
        float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(SETUP_ROUNDS)
    ]
    return statistics.fmean(times)


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "note": NOTE,
    }


def _probe_work():
    """A fixed piece of the interpreter work the workloads do: Fraction
    arithmetic, tuples, a set and a small dict."""
    total = Fraction(0)
    seen = set()
    for i in range(1, 400):
        total += Fraction(i % 17, 1 + i % 5)
        seen.add((i % 13, i % 7, i % 3))
        squares = {j: j * i for j in range(8)}
    return total, len(seen), squares


class SpeedProbe:
    """Samples, ten times a second, the speed the CPU gives this process.

    The host's other tenants move that speed by tens of percent from
    one minute to the next, so raw times of runs made minutes apart
    differ by more than any run can average away.  An interval timer
    interrupts the process, and the handler times `_probe_work`.  A
    pass's times are scaled by REFERENCE_PROBE_S over the mean probe
    time during that pass: they read as seconds at the speed where the
    probe takes 2 ms.  About 2% of a run goes to the probe.  A change to
    troplab does not change the probe, so it moves the scaled times as
    much as the raw ones.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds in the handler, taken out of every timing

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Reference probe time over the mean time of samples first..last-1."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[first:last])


class Run:
    """Set-ups and passes of one workload, with their timings and failures."""

    def __init__(self, build, seed: int):
        self.build = build
        self.seed = seed
        self.probe = None     # a SpeedProbe while timed_run runs
        self.setup_times = []
        self.pass_times = []
        self.op_times = []    # one list of operation latencies per pass
        self.pass_scales = []  # with a probe, the speed scale of each pass
        self.op_scales = []    # and of each of its operations
        self.attempted = 0
        self.failed = 0

    def _clock(self) -> float:
        """Seconds, less the time spent in the probe's handler."""
        return time.perf_counter() - (self.probe.spent if self.probe else 0.0)

    def _probe_count(self) -> int:
        return len(self.probe.samples) if self.probe else 0

    def setup(self):
        start = self._clock()
        ops = self.build(self.seed)
        self.setup_times.append(self._clock() - start)
        return ops

    def run_pass(self, ops, tracer=None) -> float:
        gc.collect()
        latencies = []
        marks = []  # probe samples taken before each operation, then in all
        start = self._clock()
        for index, op in enumerate(ops):
            marks.append(self._probe_count())
            if tracer is not None:
                tracer.op = index
            begin = self._clock()
            try:
                result = op.run()
            except Exception:
                latencies.append(self._clock() - begin)
                self._fail(op, traceback.format_exc(limit=3))
                continue
            latencies.append(self._clock() - begin)
            try:
                ok = op.check(result)
            except Exception:
                ok = False
            if not ok:
                self._fail(op, f"unexpected result {result!r:.300}")
        elapsed = self._clock() - start
        marks.append(self._probe_count())
        self.attempted += len(ops)
        self.pass_times.append(elapsed)
        self.op_times.append(latencies)
        if self.probe:
            self._record_scales(marks)
        return elapsed

    def _record_scales(self, marks):
        """The pass's speed scale, and each operation's: its own when the
        probe sampled it OWN_SCALE_SAMPLES times or more, else the pass's.
        A long operation's own samples follow its speed more closely."""
        whole = self.probe.scale(marks[0], marks[-1])
        self.pass_scales.append(whole)
        self.op_scales.append([
            self.probe.scale(first, last) if last - first >= OWN_SCALE_SAMPLES else whole
            for first, last in zip(marks, marks[1:])])

    def _fail(self, op, why: str):
        self.failed += 1
        print(f"FAILED {op.name}: {why}", file=sys.stderr)


def timed_run(run: Run, seconds: float) -> dict:
    """A warm-up pass, then passes until another would end after `seconds`.

    Times are scaled by the probe's speed scale (see SpeedProbe): a
    pass by the scale of that pass, an operation by its own or its
    pass's (see Run._record_scales), input builds by that of the whole
    run.  The import is timed in child processes before the probe
    starts and is not scaled: the probe in this process does not follow
    the children's speed, and scaling made the import's spread worse.

    `wall_s` is the median pass.  An operation's latency is its mean
    over the timed passes (every pass runs the same operations in the
    same order), and `op_p50_ms` and `op_p99_ms` are taken over the
    operations of a pass.  Means, not single samples, because the
    machine's speed also switches between levels about 1.5x apart
    within seconds: a median over single short latencies jumps with the
    share of time spent at each level.  `setup_s` is a sum of means for
    the same reason: one import or input build takes 0.03-0.15 s.
    """
    import_s = _import_seconds()
    run.probe = SpeedProbe()
    with run.probe:
        for _ in range(SETUP_ROUNDS - 1):
            run.setup()
        start = time.perf_counter()
        run.run_pass(run.setup())
        del run.pass_times[0], run.op_times[0], run.pass_scales[0], run.op_scales[0]
        while True:
            run.run_pass(run.setup())
            typical = statistics.median(run.pass_times)
            if time.perf_counter() - start + typical > seconds:
                break
    passes = [t * scale for t, scale in zip(run.pass_times, run.pass_scales)]
    ms = [1000 * statistics.fmean(t * scale for t, scale in zip(times, scales))
          for times, scales in zip(zip(*run.op_times), zip(*run.op_scales))]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    build_s = statistics.fmean(run.setup_times) * run.probe.scale()
    return {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (import_s + build_s, "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p99_ms": (cuts[98], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(run: Run, workload: str, seed: int) -> dict:
    from tracer import Tracer

    untraced = run.run_pass(run.setup())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(run.setup(), tracer)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-seed{seed}.trace.json", workload=workload, seed=seed)
    return metrics


def run_all(args) -> int:
    code = 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="greedy-race weighting seed; the other workloads are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    build = _load_workloads()[args.workload]
    env = _environment()
    run = Run(build, args.seed)
    if args.trace:
        metrics = traced_run(run, args.workload, args.seed)
    else:
        metrics = timed_run(run, args.seconds)
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"env": env}))
    print(f"{args.workload}: passes {len(run.pass_times)} of {len(run.op_times[0])} "
          f"operations each, failed_ops {run.failed}/{run.attempted}")
    print("  unscaled pass times (s): " + " ".join(f"{t:.3f}" for t in run.pass_times))
    if run.probe:
        print(f"  speed probe: {len(run.probe.samples)} samples, mean "
              f"{1000 * statistics.fmean(run.probe.samples):.4f} ms; pass scales: "
              + " ".join(f"{scale:.3f}" for scale in run.pass_scales))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
