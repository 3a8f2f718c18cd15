"""Command-line driver: build tau caches, run verification suites, benchmark.

Exit codes: 0 when every selected check passes, 1 when any identity fails
(the report is still emitted), 2 on usage or configuration errors and on
harness errors: a failed elimination, an inexact division or cache I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .laurent import ExactDivisionError
from .report import CheckReport
from .verifier import SUITE_NAMES, family_depth_needed, run_checks, suite_tasks
from .wronskian import DeterminantError, TauFamily

CACHE_ENV_VAR = "HV_CACHE_DIR"


@dataclass
class RunConfig:
    n_max: int = 3
    suites: list[str] = field(default_factory=lambda: ["all"])
    cache_path: str | None = None
    report_format: str = "text"
    fail_fast: bool = False

    def validate(self) -> None:
        if self.n_max < 1:
            raise ValueError("n-max must be at least 1")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suite name(s): {', '.join(unknown)}")
        if self.report_format not in ("json", "text"):
            raise ValueError("format must be 'json' or 'text'")


def _default_cache_path(depth: int) -> Path | None:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    return Path(root) / f"family-n{depth}.tau"


def _obtain_family(depth: int, cache_path: str | None) -> TauFamily:
    """Load a cached family when possible; build and save it when missing, short or refused."""
    path = Path(cache_path) if cache_path else _default_cache_path(depth)
    if path is not None and path.exists():
        try:
            fam = TauFamily.load(path)
        except ValueError as exc:
            print(f"note: {exc}; rebuilding the cache", file=sys.stderr)
        else:
            if fam.n_max >= depth:
                return fam
    fam = TauFamily.build(depth)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fam.save(path)
    return fam


def _emit_report(config: RunConfig, reports: list[CheckReport], stream) -> None:
    passed = sum(1 for r in reports if r.passed)
    failed = len(reports) - passed
    total_elapsed = sum(r.elapsed for r in reports)
    if config.report_format == "json":
        payload = {
            "version": __version__,
            "config": {
                "n_max": config.n_max,
                "suites": list(config.suites),
                "cache_path": config.cache_path,
                "report_format": config.report_format,
                "fail_fast": config.fail_fast,
            },
            "checks": [r.as_dict() for r in reports],
            "summary": {"pass": passed, "fail": failed, "elapsed_total": total_elapsed},
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
    stream.write(f"summary: {passed} pass, {failed} fail, {total_elapsed:.2f}s total\n")


def cmd_verify(config: RunConfig, stream=None) -> int:
    """Run the selected suites; returns the process exit code."""
    stream = stream or sys.stdout
    config.validate()
    depth = family_depth_needed(config.suites, config.n_max)
    fam = _obtain_family(depth, config.cache_path)
    tasks = []
    for suite in config.suites:
        tasks.extend(suite_tasks(suite, fam, config.n_max))
    reports = run_checks(tasks, fail_fast=config.fail_fast)
    _emit_report(config, reports, stream)
    return 0 if all(r.passed for r in reports) else 1


def cmd_build(n_max: int, cache_path: str | None, stream=None) -> int:
    stream = stream or sys.stdout
    if n_max < 1:
        raise ValueError("n-max must be at least 1")
    path = Path(cache_path) if cache_path else _default_cache_path(n_max)
    if path is None:
        raise ValueError(f"no cache path given and {CACHE_ENV_VAR} is not set")
    started = time.perf_counter()
    fam = TauFamily.build(n_max)
    path.parent.mkdir(parents=True, exist_ok=True)
    fam.save(path)
    stream.write(
        f"built family to n={n_max} in {time.perf_counter() - started:.2f}s, "
        f"cached at {path}\n"
    )
    return 0


_BENCH_SUITES = ("toda", "mixed", "conjecture", "symmetries", "orderwise-B")


def cmd_bench(n_max: int, stream=None) -> int:
    """Per-site construction timing and term counts, then per-suite timings."""
    stream = stream or sys.stdout
    if n_max < 1:
        raise ValueError("n-max must be at least 1")
    stream.write(f"{'n':>3} {'tau terms':>10} {'f terms':>9} {'build (s)':>10}\n")
    for n in range(1, n_max + 1):
        started = time.perf_counter()
        fam = TauFamily.build(n)
        elapsed = time.perf_counter() - started
        stream.write(
            f"{n:>3} {fam.tau[n].term_count:>10} {fam.f[n].term_count:>9} "
            f"{elapsed:>10.3f}\n"
        )
    depth = family_depth_needed(_BENCH_SUITES, n_max)
    fam = TauFamily.build(depth)
    for suite in _BENCH_SUITES:
        started = time.perf_counter()
        reports = run_checks(suite_tasks(suite, fam, n_max))
        elapsed = time.perf_counter() - started
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
                        help=f"suite name, repeatable; one of {', '.join(SUITE_NAMES)}")
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
    except (ValueError, DeterminantError, ExactDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
