"""End-to-end benchmark of the Fig. 6 chain, with an optional per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload compose --seed 1 --seconds 30 --trace 0

A closed loop with one client thread: each job is submitted only after
the previous one has been verified.  A run is a sequence of cluster
lifetimes.  A lifetime builds a 4-node cluster, runs one warm-up job
(together: the set-up), then a fixed number of measured jobs (which
bounds peak memory and fixes the age of every measured job), and tears
the cluster down.  Lifetimes repeat until ``--seconds`` have passed.
Set-up alone is repeated after the measured lifetimes until it has
``MIN_SETUPS`` samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` is a separate run that alternates traced and
untraced jobs and reports the per-layer metrics (see ``README.md`` next
to this file); its spans are written to ``.perfbench_out/`` when the
run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: environment knobs the benchmark must not inherit: each selects a
#: behaviour that the default constructors would otherwise pick
_CLEARED_ENV = ("CN_TRANSPORT", "CN_SCHEDULER", "CN_VERIFY_LOCKING")

#: set-up samples per run (``setup_s`` is their median)
MIN_SETUPS = 5

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _import_program():
    """Import the program from this checkout's ``src`` (never from
    anywhere else); exit non-zero without a result if it is missing."""
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return workloads


def _malloc_trim():
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


_trim = _malloc_trim()


def rss_mb() -> float:
    """Resident set size after a full collection, with free heap pages
    handed back to the OS first."""
    gc.collect()
    _trim(0)
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def _stop_children() -> None:
    """Wait for every child process the program started (proc workers)."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()


class Run:
    """One benchmark run: its samples, counters and lifetimes."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.job_ms: list[float] = []
        #: job_ms of each lifetime, in submission order
        self.lifetimes: list[list[float]] = []
        #: verified jobs per second of each lifetime's measured jobs
        self.throughput: list[float] = []
        self.setup_s: list[float] = []
        self.retained_mb = 0.0

    def job(self, env, item) -> float:
        """Run one job; returns its wall milliseconds, from submit to a
        verified result.  A failure or a wrong result counts as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            ok = self.workload.run_job(env, item)
        except Exception as exc:  # noqa: BLE001 -- a failed job is a counted outcome, never retried
            print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        elapsed = (time.perf_counter() - start) * 1000.0
        if not ok:
            self.failed += 1
        return elapsed

    def open(self):
        """Set-up: build and start the cluster, run the warm-up job."""
        workload = self.workload
        warmup = workload.make_input(self.rng)
        registry = self.tracer.registry(workload) if self.tracer else workload.registry()
        gc.collect()
        start = time.perf_counter()
        env = workload.open(registry)
        self.job(env, warmup)
        self.setup_s.append(time.perf_counter() - start)
        return env

    def close(self, env) -> None:
        env.close()
        _stop_children()

    def lifetime(self) -> None:
        workload, tracer = self.workload, self.tracer
        first = not self.lifetimes
        times: list[float] = []
        self.lifetimes.append(times)
        env = self.open()
        busy_s = 0.0
        try:
            # memory is measured on the process's first cluster only, so
            # pages freed by an earlier cluster cannot hide its growth
            rss_before = rss_mb() if first else 0.0
            for _ in range(workload.jobs_per_cluster):
                item = workload.make_input(self.rng)
                start = time.perf_counter()
                traced = tracer is not None and (len(self.job_ms) + len(self.lifetimes)) % 2 == 0
                if traced:
                    tracer.begin_job(env)
                elapsed = self.job(env, item)
                if traced:
                    tracer.end_job(env, elapsed)
                elif tracer is not None:
                    tracer.untraced.append(elapsed)
                busy_s += time.perf_counter() - start
                times.append(elapsed)
                self.job_ms.append(elapsed)
                del item
            self.throughput.append(len(times) / busy_s)
            if first:
                self.retained_mb = (rss_mb() - rss_before) / len(times)
            if tracer is not None:
                tracer.end_lifetime(env, len(times) + 1)
        finally:
            self.close(env)

    def measure(self) -> None:
        self.lifetime()
        while time.perf_counter() < self.deadline:
            self.lifetime()
        if self.tracer is None:
            while len(self.setup_s) < MIN_SETUPS:
                self.close(self.open())

    def end_to_end(self) -> dict[str, dict]:
        return {
            "job_p50_ms": {"value": statistics.median(self.job_ms), "unit": "ms"},
            "jobs_per_s": {"value": statistics.median(self.throughput), "unit": "1/s"},
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "retained_mb_per_job": {"value": self.retained_mb, "unit": "MB"},
        }

    def describe(self) -> None:
        jobs = self.job_ms
        print(f"workload={self.workload.name} lifetimes={len(self.lifetimes)} "
              f"jobs={len(jobs)} setups={len(self.setup_s)} "
              f"attempted={self.attempted} failed={self.failed}")
        print(f"error_rate = {self.failed / self.attempted:.4f} "
              f"({self.failed} failed or wrong of {self.attempted})")
        print("job_ms p25/p50/p75/max = " + " / ".join(
            f"{v:.1f}" for v in (*statistics.quantiles(jobs, n=4), max(jobs))))
        # age: the same job index across lifetimes, so slowdown shows
        longest = max(len(t) for t in self.lifetimes)
        step = max(1, longest // 12)
        by_age = [
            f"{i}:{statistics.median(t[i] for t in self.lifetimes if len(t) > i):.0f}"
            for i in range(0, longest, step)
        ]
        print("median job_ms by job index in a lifetime: " + " ".join(by_age))
        if longest > 1:
            last = [t[-1] for t in self.lifetimes if len(t) == longest]
            first = [t[0] for t in self.lifetimes]
            print(f"age slowdown (last job / first job of a lifetime, medians): "
                  f"{statistics.median(last) / statistics.median(first):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    result = Run(workload, args.seed, args.seconds, tracer)
    try:
        result.measure()
    finally:
        _stop_children()

    print(f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    result.describe()
    if tracer is None:
        metrics = result.end_to_end()
    else:
        metrics = tracer.report(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
