"""Command-line driver: build tau caches, run verification suites, benchmark.

Exit codes: 0 when every selected check passes, 1 when any identity fails
(the report is still emitted), 2 on usage or configuration errors and on
harness errors: a failed elimination, an inexact division, an exponent
outside the packed-key fields, cache I/O or any other exception outside the checks.
A harness error inside one check is reported as that check's "error" row;
the run then exits 2 unless some identity failed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import __version__
from .laurent import ExactDivisionError
from .wronskian import DeterminantError, TauFamily, site_steps

if TYPE_CHECKING:  # the commands import the verifier when they run; build never does
    from .verifier import CheckReport

CACHE_ENV_VAR = "HV_CACHE_DIR"


class RunConfig(NamedTuple):
    n_max: int = 3
    suites: Sequence[str] = ("all",)
    cache_path: str | None = None
    report_format: str = "text"
    fail_fast: bool = False

    def validate(self) -> None:
        if self.n_max < 1:
            raise ValueError("n-max must be at least 1")
        if self.report_format not in ("json", "text"):
            raise ValueError("format must be 'json' or 'text'")


def _cache_path(depth: int, cache_path: str | None) -> Path | None:
    """The --cache path if given, else family-n<depth>.tau under HV_CACHE_DIR if set."""
    if cache_path:
        return Path(cache_path)
    root = os.environ.get(CACHE_ENV_VAR)
    return Path(root) / f"family-n{depth}.tau" if root else None


def _build_and_save(depth: int, path: Path | None) -> TauFamily:
    fam = TauFamily.build(depth)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fam.save(path)
    return fam


def _obtain_family(depth: int, cache_path: str | None) -> TauFamily:
    """Load a cached family when possible; build and save it when missing, short or refused."""
    path = _cache_path(depth, cache_path)
    if path is not None and path.exists():
        try:
            fam = TauFamily.load(path)
        except ValueError as exc:
            reason = str(exc)
        else:
            if fam.n_max >= depth:
                return fam
            reason = f"{path} holds sites to n={fam.n_max}, the run reads to n={depth}"
        print(f"note: {reason}; rebuilding the cache", file=sys.stderr)
    return _build_and_save(depth, path)


def _emit_report(config: RunConfig, reports: list[CheckReport], stream) -> None:
    passed = sum(1 for r in reports if r.status == "pass")
    failed = sum(1 for r in reports if r.status == "fail")
    errors = sum(1 for r in reports if r.status == "error")
    total_elapsed = sum(r.elapsed for r in reports)
    if config.report_format == "json":
        import json

        payload = {
            "version": __version__,
            "config": {**config._asdict(), "suites": list(config.suites)},
            "checks": [r.as_dict() for r in reports],
            "summary": {"pass": passed, "fail": failed, "error": errors,
                        "elapsed_total": total_elapsed},
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    for r in reports:
        order = "-" if r.order_index is None else str(r.order_index)
        line = f"{r.status.upper():4} {r.equation_id:<16} n={r.n:<2} I={order:<3} ({r.elapsed:.3f}s)"
        if r.witness:
            line += f"  witness: {r.witness}"
        if r.note:
            line += f"  [{r.note}]"
        stream.write(line + "\n")
    stream.write(f"summary: {passed} pass, {failed} fail, {errors} error, "
                 f"{total_elapsed:.2f}s total\n")


def cmd_verify(config: RunConfig, stream=None) -> int:
    """Run the selected suites; returns the process exit code."""
    from .verifier import run_checks, suite_tasks

    stream = stream or sys.stdout
    config.validate()
    tasks = suite_tasks(config.suites, config.n_max)  # refuses an unknown suite first
    depth = max(task.reads for task in tasks)  # a run that reads no family obtains none
    fam = _obtain_family(depth, config.cache_path) if depth else None
    reports = run_checks(tasks, fam, fail_fast=config.fail_fast)
    _emit_report(config, reports, stream)
    statuses = {r.status for r in reports}
    return 1 if "fail" in statuses else 2 if "error" in statuses else 0


def cmd_build(n_max: int, cache_path: str | None, stream=None) -> int:
    stream = stream or sys.stdout
    path = _cache_path(n_max, cache_path)
    if path is None:
        raise ValueError(f"no cache path given and {CACHE_ENV_VAR} is not set")
    started = time.perf_counter()
    _build_and_save(n_max, path)
    stream.write(
        f"built family to n={n_max} in {time.perf_counter() - started:.2f}s, "
        f"cached at {path}\n"
    )
    return 0


_BENCH_SUITES = ("toda", "mixed", "conjecture", "symmetries", "orderwise-B")


def cmd_bench(n_max: int, stream=None) -> int:
    """Per-site construction timing and u,v term counts, then per-suite timings.

    One family is built, to the depth the suites read.  A site's build time
    is its own elimination step in each of the two Wronskians; building the
    matrices is timed on its own line.
    """
    from .verifier import run_checks, suite_tasks

    stream = stream or sys.stdout
    if n_max < 1:
        raise ValueError("n-max must be at least 1")
    tasks = {suite: suite_tasks([suite], n_max) for suite in _BENCH_SUITES}
    depth = max(task.reads for batch in tasks.values() for task in batch)
    started = time.perf_counter()
    steps = site_steps(depth)
    stream.write(f"Wronskian matrices to n={depth}: {time.perf_counter() - started:.3f}s\n")
    stream.write(f"{'n':>3} {'tau u,v terms':>14} {'f u,v terms':>12} {'build (s)':>10}\n")
    tau, f = [], []
    started = time.perf_counter()
    for n, (tau_n, f_n) in enumerate(steps):
        elapsed = time.perf_counter() - started
        tau.append(tau_n)
        f.append(f_n)
        if 1 <= n <= n_max:
            stream.write(f"{n:>3} {tau_n.term_count:>14} {f_n.term_count:>12} {elapsed:>10.3f}\n")
        started = time.perf_counter()
    for suite in _BENCH_SUITES:
        # An empty site table, so that no suite reads what another computed.
        reports = run_checks(tasks[suite], TauFamily(depth, tau_uv=tau, f_uv=f))
        elapsed = sum(r.elapsed for r in reports)  # the runner's clock, as verify's elapsed_total
        status = "ok" if all(r.passed for r in reports) else "FAIL"
        stream.write(f"suite {suite:<12} {len(reports):>4} checks "
                     f"{elapsed:>8.3f}s  {status}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirota-verify",
        description="Exact verification of bilinear Toda-molecule identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", default=None,
                        help="suite name, repeatable; 'all' (the default) runs every suite")
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--cache", default=None, help="tau-family cache file")
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--fail-fast", action="store_true")

    build = sub.add_parser("build", help="construct and cache a tau family")
    build.add_argument("--n-max", type=int, required=True)
    build.add_argument("--cache", default=None)

    bench = sub.add_parser("bench", help="report construction and suite timings")
    bench.add_argument("--n-max", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = RunConfig(
                n_max=args.n_max,
                suites=args.suite or ["all"],
                cache_path=args.cache,
                report_format=args.format,
                fail_fast=args.fail_fast,
            )
            return cmd_verify(config)
        if args.command == "build":
            return cmd_build(args.n_max, args.cache)
        return cmd_bench(args.n_max)
    except (ValueError, DeterminantError, ExactDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash outside the checks (a MemoryError, say), never exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
