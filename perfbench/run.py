"""Benchmark of the hirotaverify prover, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``src/`` is put on the children's
``PYTHONPATH``, ``HV_CACHE_DIR`` is removed from their environment, and every
file goes under ``.bench_build/perfbench/`` in the checkout, which is removed
when the run ends.

One benchmark run:

1. Set-up: builds the depth-4 family ``SETUP_REPEATS`` times with
   ``hirotaverify build``, each in a fresh child and to a fresh path, and
   checks the polynomials of the last one against the goldens.  ``setup_s``
   is the median build time.  A traced run builds once, through
   ``tracer.py``, for the per-layer metrics of the build (see
   ``layers.py``).  The program runs read that cache.
2. Measurement: a closed loop with one client.  Each iteration runs
   ``reference.py``, a fixed computation that does not use the program, and
   then one program run, each as a fresh child process started only after
   the previous one has exited; program runs use default program flags.
   Iterations go on until the next would end after ``--seconds``; at least
   one is made.  Wall time spans process start to exit; CPU time and peak
   resident memory come from ``os.wait4`` on that child, so they cover its
   process tree and no other run.  Every run's output is checked.
   One more reference run follows the last program run.  ``wall_ratio`` and
   ``cpu_ratio`` are the summed time of the program runs divided by the
   summed time of the reference runs around them (see ``total_ratio``):
   the shared host runs everything up to twice as slowly for a minute at a
   time, and the ratio cancels that, where a raw time does not.
3. With ``--trace 1``, one more run of the same command goes through
   ``tracer.py`` in-process, and the per-layer metrics come from its spans;
   ``trace.overhead_s`` is its wall time minus the untraced median.  The
   untraced medians in seconds are reported there too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe each
program run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import layer_metrics
from workloads import (
    HERE, SETUP_DEPTH, WORKLOADS, Workload, failed_checks, failed_polynomials, load_goldens,
)

# setup_s is the median of several builds of about 0.4 s each.  A traced run
# reports no setup_s and builds once, traced.
SETUP_REPEATS = 7
WORK_ROOT = Path(".bench_build") / "perfbench"


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten values above it, and its value."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    percent = math.floor(100 * (len(ordered) - 10) / len(ordered))
    return percent, ordered[len(ordered) - 11]


def total_ratio(runs: list[Measured], references: list[Measured], field: str) -> float:
    """Summed program time over the reference time around the program runs.

    There is one reference run before each program run and one after the
    last, and each program run is set against the mean of its two neighbours,
    so the first and the last reference count half.
    """
    around = [getattr(r, field) for r in references]
    return sum(getattr(m, field) for m in runs) / (sum(around) - (around[0] + around[-1]) / 2)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.goldens = load_goldens()
        self.expected = workload.expected(self.goldens, seed)
        self.env = {k: v for k, v in os.environ.items() if k not in ("HV_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.setup_cache: Path | None = None
        self.setup_failed = False

    def python(self, argv: list[str], out_dir: Path) -> Measured:
        """Run one child to completion; its output goes to out_dir/stdout, stderr."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        # wait4 has reaped the child; record its status so Popen does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Measured(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                        proc.returncode)

    def reference(self, label: str) -> Measured:
        """One run of the reference computation; it must succeed."""
        measured = self.python([str(HERE / "reference.py")], self.work / label)
        if measured.returncode != 0:
            raise RuntimeError(f"reference run {label} exited {measured.returncode}")
        return measured

    def digests(self, cache: Path, out_dir: Path) -> dict | None:
        measured = self.python([str(HERE / "digest.py"), str(cache)], out_dir)
        if measured.returncode != 0:
            return None
        try:
            return json.loads((out_dir / "stdout").read_text())
        except ValueError:
            return None

    def setup(self, repeats: int, spans: Path | None = None) -> list[float]:
        """Build the input family repeats times; with spans, through the tracer."""
        times = []
        for k in range(repeats):
            out_dir = self.work / f"setup-{k}"
            self.setup_cache = out_dir / f"family-n{SETUP_DEPTH}.tau"
            argv = ["-m", "hirotaverify", "build", "--n-max", str(SETUP_DEPTH),
                    "--cache", str(self.setup_cache)]
            if spans is not None:
                argv = self.traced(argv, spans, f"setup-{k}")
            measured = self.python(argv, out_dir)
            times.append(measured.wall_s)
            self.setup_failed |= measured.returncode != 0
        found = self.digests(self.setup_cache, self.work / "setup-digest")
        self.setup_failed |= failed_polynomials(found, self.goldens["digests"], SETUP_DEPTH) > 0
        return times

    def run_once(self, label: str, spans: Path | None = None) -> tuple[Measured, int]:
        """One program run and the number of its operations that failed."""
        out_dir = self.work / label
        out_dir.mkdir(parents=True)
        cache = out_dir / "input.tau"
        if self.setup_cache.exists():  # a failed set-up fails every operation anyway
            shutil.copyfile(self.setup_cache, cache)
        argv = self.workload.argv(cache, self.seed)
        if spans is not None:
            argv = self.traced(argv, spans, label)
        measured = self.python(argv, out_dir)
        return measured, self.failed_operations(measured, out_dir)

    def traced(self, argv: list[str], spans: Path, label: str) -> list[str]:
        return [str(HERE / "tracer.py"), "--spans", str(spans),
                "--run-id", f"{self.workload.name}/{self.seed}/{label}", "--", *argv]

    def failed_operations(self, measured: Measured, out_dir: Path) -> int:
        if measured.returncode != 0:
            return len(self.expected)
        return failed_checks(out_dir / "stdout", self.expected)


def describe(label: str, measured: Measured, failed: int, operations: int,
             reference_s: float | None = None) -> None:
    against = f" ({measured.wall_s / reference_s:.3f}x reference)" if reference_s else ""
    print(f"{label}: wall {measured.wall_s:.3f} s{against}, cpu {measured.cpu_s:.3f} s, "
          f"peak rss {measured.peak_rss_mb:.1f} MB, exit {measured.returncode}, "
          f"{operations - failed}/{operations} operations ok", flush=True)


def benchmark(bench: Bench, seconds: float, trace: bool) -> dict:
    operations = len(bench.expected)
    setup_spans = bench.work / "setup-spans.json" if trace else None
    setup_times = bench.setup(1 if trace else SETUP_REPEATS, setup_spans)
    print(f"setup: {len(setup_times)} builds of depth {SETUP_DEPTH}: "
          + ", ".join(f"{t:.3f} s" for t in setup_times)
          + ("  [set-up output wrong]" if bench.setup_failed else ""), flush=True)

    runs: list[Measured] = []
    references: list[Measured] = []
    failed = 0
    iteration_s: list[float] = []
    loop_started = time.perf_counter()
    while True:
        began = time.perf_counter()
        index = len(runs)
        references.append(bench.reference(f"reference-{index}"))
        measured, run_failed = bench.run_once(f"run-{index}")
        iteration_s.append(time.perf_counter() - began)
        runs.append(measured)
        failed += run_failed
        describe(f"run {index + 1}", measured, run_failed, operations,
                 references[-1].wall_s)
        shutil.rmtree(bench.work / f"run-{index}")
        shutil.rmtree(bench.work / f"reference-{index}")
        if time.perf_counter() - loop_started + statistics.median(iteration_s) > seconds:
            break
    references.append(bench.reference(f"reference-{len(runs)}"))

    walls = [m.wall_s for m in runs]
    tail = tail_percentile(walls)
    print(f"program wall: median {statistics.median(walls):.3f} s of {len(walls)} runs; "
          + (f"p{tail[0]} {tail[1]:.3f} s" if tail else "no percentile has ten runs beyond it"),
          flush=True)

    attempted = operations * len(runs)
    if trace:
        spans = bench.work / "spans.json"
        traced, traced_failed = bench.run_once("traced", spans)
        describe("traced run", traced, traced_failed, operations)
        attempted += operations
        failed += traced_failed
        metrics = layer_metrics(json.loads(spans.read_text()),
                                json.loads(setup_spans.read_text()), {
                                    "program.wall_s": statistics.median(walls),
                                    "program.cpu_s": statistics.median(m.cpu_s for m in runs),
                                    "reference.wall_s": statistics.median(
                                        r.wall_s for r in references),
                                    "trace.overhead_s": traced.wall_s - statistics.median(walls),
                                })
    if bench.setup_failed:
        failed = attempted
    if not trace:
        metrics = {
            "wall_ratio": {"value": total_ratio(runs, references, "wall_s"), "unit": "x"},
            "cpu_ratio": {"value": total_ratio(runs, references, "cpu_s"), "unit": "x"},
            "peak_rss_mb": {"value": statistics.median(m.peak_rss_mb for m in runs), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hirotaverify" / "__init__.py").is_file():
        print("error: src/hirotaverify not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = benchmark(Bench(root, WORKLOADS[args.workload], args.seed, work),
                           args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
