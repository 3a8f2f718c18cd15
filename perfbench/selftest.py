"""Self-tests of the benchmark's accounting and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that a dropped check, a failed
check, a corrupted polynomial digest or ``g != tau`` each count as failed
operations; that a nonzero exit fails a whole run; that the benchmark exits
nonzero, printing no result, where there is no program; that two traced
runs of ``su11-n2`` and of its set-up build give identical counts; and that
spans from another thread, or a run that starts a worker process, are
refused.  Takes about a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import threading
import unittest
from pathlib import Path

from layers import METRICS, UNTRACED_METRICS, layer_metrics
from run import Bench, Measured, WORK_ROOT
from tracer import Tracer
from workloads import HERE, WORKLOADS, failed_checks, failed_polynomials, load_goldens

ROOT = Path.cwd()
SCRATCH = ROOT / WORK_ROOT / "selftest"


def report_of(triples, status="pass") -> dict:
    return {"checks": [{"equation_id": e, "n": n, "order_index": i, "status": status}
                       for e, n, i in triples]}


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.goldens = load_goldens()
        self.expected = WORKLOADS["orderwise-n3"].expected(self.goldens, 0)
        self.report = SCRATCH / "report.json"

    def failed_for(self, payload: dict) -> int:
        self.report.write_text(json.dumps(payload))
        return failed_checks(self.report, self.expected)

    def test_complete_report_has_no_failure(self):
        self.assertEqual(self.failed_for(report_of(self.expected)), 0)

    def test_dropped_check_fails(self):
        self.assertEqual(self.failed_for(report_of(self.expected[1:])), 1)

    def test_failed_check_fails(self):
        payload = report_of(self.expected)
        payload["checks"][5]["status"] = "fail"
        self.assertEqual(self.failed_for(payload), 1)

    def test_failing_duplicate_fails(self):
        payload = report_of(self.expected)
        payload["checks"].append(dict(payload["checks"][0], status="fail"))
        self.assertEqual(self.failed_for(payload), 1)

    def test_unreadable_report_fails_everything(self):
        self.report.write_text("not json")
        self.assertEqual(failed_checks(self.report, self.expected), len(self.expected))

    def test_polynomial_digests(self):
        digests = self.goldens["digests"]
        found = {"tau": list(digests["tau"]), "f": list(digests["f"]),
                 "g_is_tau": [True] * len(digests["tau"])}
        self.assertEqual(failed_polynomials(found, digests, 6), 0)
        corrupted = dict(found, f=found["f"][:3] + ["0" * 64] + found["f"][4:])
        self.assertEqual(failed_polynomials(corrupted, digests, 6), 1)
        g_differs = dict(found, g_is_tau=[True] * 6 + [False])
        self.assertEqual(failed_polynomials(g_differs, digests, 6), 1)
        self.assertEqual(failed_polynomials(dict(found, tau=found["tau"][:5]), digests, 6), 2)
        self.assertEqual(failed_polynomials(None, digests, 6), 14)

    def test_nonzero_exit_fails_the_run(self):
        for name, workload in WORKLOADS.items():
            bench = Bench(ROOT, workload, 0, SCRATCH)
            failed = bench.failed_operations(Measured(1.0, 1.0, 1.0, 1), SCRATCH)
            self.assertEqual(failed, len(bench.expected), name)


class WholeRuns(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=170,
        )

    def fake_checkout(self, name: str, main_body: str | None) -> Path:
        root = SCRATCH / name
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", root / "BENCHMARK.json")
        if main_body is not None:
            package = root / "src" / "hirotaverify"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text("")
            (package / "__main__.py").write_text(main_body)
        return root

    def test_no_program_exits_nonzero_without_result(self):
        root = self.fake_checkout("bare", None)
        done = self.run_bench(root, "--workload", "orderwise-n3", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_program_that_exits_1_fails_every_operation(self):
        root = self.fake_checkout("exit1", "raise SystemExit(1)\n")
        done = self.run_bench(root, "--workload", "orderwise-n3", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 0.0)
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared["end_to_end"]))
        self.assertEqual([m["name"] for m in declared["per_layer"]], list(METRICS))


class Tracing(unittest.TestCase):
    def test_two_traced_runs_count_the_same(self):
        work = SCRATCH / "trace"
        shutil.rmtree(work, ignore_errors=True)
        bench = Bench(ROOT, WORKLOADS["su11-n2"], 7, work)
        counts = []
        for label in ("a", "b"):
            setup_spans = work / f"setup-spans-{label}.json"
            bench.setup(1, setup_spans)
            self.assertFalse(bench.setup_failed)
            spans = work / f"spans-{label}.json"
            _, failed = bench.run_once(label, spans)
            self.assertEqual(failed, 0)
            untraced = dict.fromkeys(UNTRACED_METRICS, 0.0)
            metrics = layer_metrics(json.loads(spans.read_text()),
                                    json.loads(setup_spans.read_text()), untraced)
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["laurent.mul.complex_share"], 0)
        self.assertEqual(counts[0]["verifier.checks"], 28)
        self.assertEqual(counts[0]["verifier.su11_family.calls"], 4)
        self.assertEqual(counts[0]["setup.laurent.div.term_ops"], 4_203)
        self.assertEqual(counts[0]["setup.laurent.mul.term_products"], 24_532)


def _idle() -> None:
    pass


class ForeignSpans(unittest.TestCase):
    """Spans of one thread of one process only; anything else is refused."""

    def traced_document(self, tracer: Tracer, call) -> dict:
        call(tracer.wrap("laurent.mul", _idle))
        return tracer.document()

    def refused(self, document: dict) -> None:
        clean = Tracer("clean").document()
        with self.assertRaisesRegex(RuntimeError, "incomplete"):
            layer_metrics(document, clean, {})
        with self.assertRaisesRegex(RuntimeError, "incomplete"):
            layer_metrics(clean, document, {})

    def test_same_thread_is_accepted(self):
        document = self.traced_document(Tracer("main"), lambda fn: fn())
        self.assertEqual(document["foreign"], [])
        self.assertEqual(len(document["spans"]), 1)

    def test_other_thread_is_refused(self):
        def in_thread(fn):
            worker = threading.Thread(target=fn)
            worker.start()
            worker.join()

        document = self.traced_document(Tracer("threads"), in_thread)
        self.assertEqual(document["spans"], [])
        self.refused(document)

    def test_worker_process_is_refused(self):
        tracer = Tracer("processes")
        tracer.watch_workers()
        worker = multiprocessing.get_context("spawn").Process(target=_idle)
        worker.start()
        worker.join()
        self.assertEqual(worker.exitcode, 0)
        self.refused(tracer.document())


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
